// Unit tests for the Chase & Backchase family (Appendix A; Theorems A.1,
// 6.4, K.1, K.2) — soundness checked against the Σ-equivalence tests, and
// completeness on the paper's Example 4.1 instance.
#include "reformulation/candb.h"

#include <gtest/gtest.h>

#include <chrono>

#include "equivalence/aggregate_equivalence.h"
#include "equivalence/isomorphism.h"
#include "equivalence/sigma_equivalence.h"
#include "reformulation/aggregate_candb.h"
#include "reformulation/bag_candb.h"
#include "reformulation/minimize.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::AQ;
using testing::EngineEquivalent;
using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Sigma;
using testing::Unwrap;

TEST(CandB, SetSemanticsFindsMinimalReformulation) {
  // C&B on Q1 of Example 4.1 under set semantics: the Σ-minimal
  // reformulation is Q4.
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  CandBResult result = Unwrap(SetCandB(q1, Example41Sigma()));
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_TRUE(AreIsomorphic(result.reformulations[0], Q("Q4(X) :- p(X, Y).")));
  EXPECT_EQ(result.universal_plan.body().size(), 5u);
}

TEST(CandB, BagSemanticsExample41) {
  // Bag-C&B on Q1: the Σ-minimal bag reformulation keeps r and u (which
  // sound bag chase cannot re-derive) and drops t and s (which it can).
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  CandBResult result = Unwrap(BagCandB(q1, Example41Sigma(), Example41Schema()));
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_TRUE(AreIsomorphic(result.reformulations[0],
                            Q("E(X) :- p(X, Y), r(X), u(X, U).")));
}

TEST(CandB, BagSetSemanticsExample41) {
  // Bag-Set-C&B on Q1: r is re-derivable under BS, u is not.
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  CandBResult result = Unwrap(BagSetCandB(q1, Example41Sigma(), Example41Schema()));
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_TRUE(
      AreIsomorphic(result.reformulations[0], Q("E(X) :- p(X, Y), u(X, U).")));
}

TEST(CandB, OutputsAreEquivalentToInput) {
  // Soundness: every output is ≡Σ,X to the input, for all three semantics.
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    CandBResult result = Unwrap(
        ChaseAndBackchase(q1, Example41Sigma(), sem, Example41Schema()));
    for (const ConjunctiveQuery& reform : result.reformulations) {
      EXPECT_TRUE(Unwrap(EngineEquivalent(reform, q1, Example41Sigma(), sem,
                                          Example41Schema())))
          << SemanticsToString(sem) << ": " << reform.ToString();
    }
  }
}

TEST(CandB, OutputsAreSigmaMinimal) {
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    CandBResult result = Unwrap(
        ChaseAndBackchase(q1, Example41Sigma(), sem, Example41Schema()));
    for (const ConjunctiveQuery& reform : result.reformulations) {
      EXPECT_TRUE(Unwrap(IsSigmaMinimal(reform, Example41Sigma(), sem,
                                        Example41Schema())))
          << SemanticsToString(sem) << ": " << reform.ToString();
    }
  }
}

TEST(CandB, NoDependenciesReducesToMinimization) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), p(X, Z).");
  CandBResult result = Unwrap(SetCandB(q, {}));
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_EQ(result.reformulations[0].body().size(), 1u);
}

TEST(CandB, VerifySigmaMinimalityFlag) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), p(X, Z).");
  CandBOptions options;
  options.verify_sigma_minimality = true;
  CandBResult result =
      Unwrap(ChaseAndBackchase(q, {}, Semantics::kSet, Schema(), options));
  ASSERT_EQ(result.reformulations.size(), 1u);
}

TEST(CandB, MultipleIncomparableReformulations) {
  // Two symmetric inclusion dependencies a ⇄ b: both Q(X):-a(X) and
  // Q(X):-b(X) are Σ-minimal reformulations of Q(X):-a(X),b(X).
  DependencySet sigma = Sigma({"a(X) -> b(X).", "b(X) -> a(X)."});
  ConjunctiveQuery q = Q("Q(X) :- a(X), b(X).");
  CandBResult result = Unwrap(SetCandB(q, sigma));
  ASSERT_EQ(result.reformulations.size(), 2u);
}

TEST(CandB, CandidatesExaminedCounted) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  CandBResult result = Unwrap(SetCandB(q, {}));
  EXPECT_GE(result.candidates_examined, 1u);
}

TEST(CandB, FailedChaseReported) {
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  ConjunctiveQuery q = Q("Q(X) :- s(X, 4), s(X, 5).");
  Result<CandBResult> result = SetCandB(q, sigma);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CandB, CompletenessAgainstBruteForceLattice) {
  // Meta-test of Thm 6.4/A.1 completeness: enumerate EVERY subquery of the
  // universal plan directly, decide equivalence with the independent
  // Σ-equivalence test, and check that C&B's outputs are exactly the minimal
  // equivalent subqueries (up to isomorphism).
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  DependencySet sigma = Example41Sigma();
  Schema schema = Example41Schema();
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    CandBResult result =
        Unwrap(ChaseAndBackchase(q1, sigma, sem, schema));
    const ConjunctiveQuery& u = result.universal_plan;
    size_t n = u.body().size();
    ASSERT_LT(n, 16u);
    // Brute force: all equivalent subqueries, by mask.
    std::vector<uint64_t> equivalent_masks;
    for (uint64_t mask = 1; mask < (uint64_t(1) << n); ++mask) {
      std::vector<Atom> body;
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) body.push_back(u.body()[i]);
      }
      Result<ConjunctiveQuery> candidate =
          ConjunctiveQuery::Create("C", u.head(), std::move(body));
      if (!candidate.ok()) continue;
      if (Unwrap(EngineEquivalent(*candidate, q1, sigma, sem, schema))) {
        equivalent_masks.push_back(mask);
      }
    }
    // Minimal elements of the brute-force set.
    std::vector<uint64_t> minimal;
    for (uint64_t m : equivalent_masks) {
      bool is_minimal = true;
      for (uint64_t other : equivalent_masks) {
        if (other != m && (m & other) == other) {
          is_minimal = false;
          break;
        }
      }
      if (is_minimal) minimal.push_back(m);
    }
    // Every brute-force minimal subquery must be isomorphic to some C&B
    // output, and vice versa (as sets up to isomorphism).
    for (uint64_t m : minimal) {
      std::vector<Atom> body;
      for (size_t i = 0; i < n; ++i) {
        if ((m >> i) & 1) body.push_back(u.body()[i]);
      }
      ConjunctiveQuery reference = ConjunctiveQuery::Make("C", u.head(), body);
      bool found = false;
      for (const ConjunctiveQuery& out : result.reformulations) {
        if (AreIsomorphic(out, reference)) found = true;
      }
      EXPECT_TRUE(found) << SemanticsToString(sem) << ": brute-force minimal "
                         << reference.ToString() << " missing from C&B outputs";
    }
    for (const ConjunctiveQuery& out : result.reformulations) {
      bool found = false;
      for (uint64_t m : minimal) {
        std::vector<Atom> body;
        for (size_t i = 0; i < n; ++i) {
          if ((m >> i) & 1) body.push_back(u.body()[i]);
        }
        if (AreIsomorphic(out, ConjunctiveQuery::Make("C", u.head(), body))) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << SemanticsToString(sem) << ": C&B output "
                         << out.ToString() << " not brute-force minimal";
    }
  }
}

TEST(CandB, CacheHitAccountingIsExactAndDeterministic) {
  // Q(X) :- p(X,Y1), p(X,Y2), p(X,Y3): the three single-atom candidates are
  // isomorphic, so the memo chases one of them and serves the others from
  // cache. The single-atom candidates are accepted (set semantics), so every
  // two-atom superset is pruned: examined = 3, misses = 1, hits = 2.
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y1), p(X, Y2), p(X, Y3).");
  CandBResult result = Unwrap(ChaseAndBackchase(q, {}, Semantics::kSet, Schema()));
  EXPECT_EQ(result.candidates_examined, 3u);
  EXPECT_EQ(result.chase_cache_misses, 1u);
  EXPECT_EQ(result.chase_cache_hits, 2u);
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_EQ(result.reformulations[0].body().size(), 1u);
}

TEST(CandB, DeadlineExpiryReportsResourceExhausted) {
  ConjunctiveQuery q1 = Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  CandBOptions options;
  options.context.budget.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Result<CandBResult> result = ChaseAndBackchase(q1, Example41Sigma(), Semantics::kSet,
                                                 Example41Schema(), options);
  // Anytime contract: deadline expiry yields a partial result, not an error.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->complete);
  ASSERT_TRUE(result->exhaustion.has_value());
  EXPECT_EQ(result->exhaustion->limit, "deadline");
  EXPECT_NE(result->exhaustion->progress.find("deadline"), std::string::npos)
      << result->exhaustion->ToString();
  EXPECT_TRUE(result->checkpoint.has_value());
}

TEST(CandB, CandidateBudgetErrorNamesTheLimit) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), r(X).");
  CandBOptions options;
  options.context.budget.max_candidates = 1;
  Result<CandBResult> result =
      ChaseAndBackchase(q, {}, Semantics::kSet, Schema(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->complete);
  ASSERT_TRUE(result->exhaustion.has_value());
  EXPECT_EQ(result->exhaustion->limit, "max_candidates");
  EXPECT_NE(result->exhaustion->progress.find("max_candidates"), std::string::npos)
      << result->exhaustion->ToString();
  ASSERT_TRUE(result->checkpoint.has_value());
  EXPECT_EQ(result->checkpoint->phase, CandBCheckpoint::kBackchasePhase);
}

TEST(CandB, ChaseStepBudgetErrorNamesTheLimit) {
  // One tgd application is needed; a zero step budget trips first.
  DependencySet sigma = Sigma({"a(X) -> b(X).", "b(X) -> a(X)."});
  ConjunctiveQuery q = Q("Q(X) :- a(X), b(X).");
  CandBOptions options;
  options.context.budget.max_chase_steps = 0;
  Result<CandBResult> result =
      ChaseAndBackchase(q, sigma, Semantics::kSet, Schema(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->complete);
  ASSERT_TRUE(result->exhaustion.has_value());
  EXPECT_EQ(result->exhaustion->limit, "max_chase_steps");
  ASSERT_TRUE(result->checkpoint.has_value());
  EXPECT_EQ(result->checkpoint->phase, CandBCheckpoint::kChasePhase);
}

TEST(CandB, ResumeRejectsMasksOutsideTheLattice) {
  // Q1's universal plan has five atoms, so its lattice masks are < 2^5. A
  // resume point past that, a wave past the fifth, or a carried mask past
  // it is a foreign checkpoint, not a finished sweep.
  ConjunctiveQuery q1 = Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  CandBOptions budgeted;
  budgeted.context.budget.max_candidates = 2;
  CandBResult partial = Unwrap(ChaseAndBackchase(q1, Example41Sigma(), Semantics::kSet,
                                                 Example41Schema(), budgeted));
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.checkpoint.has_value());
  ASSERT_TRUE(partial.checkpoint->backchase.has_value());
  ASSERT_EQ(partial.universal_plan.body().size(), 5u);

  auto resume_with = [&](auto&& edit) {
    CandBCheckpoint cp = *partial.checkpoint;
    edit(*cp.backchase);
    CandBOptions options;
    options.resume = &cp;
    return ChaseAndBackchase(q1, Example41Sigma(), Semantics::kSet, Example41Schema(),
                             options)
        .status();
  };
  EXPECT_TRUE(resume_with([](BackchaseCheckpoint&) {}).ok());
  for (Status status : {
           resume_with([](BackchaseCheckpoint& b) { b.next_mask = uint64_t{1} << 5; }),
           resume_with([](BackchaseCheckpoint& b) { b.next_mask = uint64_t{1} << 40; }),
           resume_with([](BackchaseCheckpoint& b) {
             b.next_mask = 0;
             b.cardinality = 6;
           }),
           resume_with([](BackchaseCheckpoint& b) { b.accepted_masks.push_back(32); }),
           resume_with([](BackchaseCheckpoint& b) { b.failed_masks.push_back(64); }),
       }) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  }
}

TEST(AggregateCandBTest, SumDropsKeyedJoin) {
  // Sum-Count-C&B: the dept join is removable thanks to the key fd.
  DependencySet sigma = Sigma({
      "emp(E, D) -> dept(D, M).",
      "dept(D, M1), dept(D, M2) -> M1 = M2.",
  });
  Schema schema;
  schema.Relation("emp", 2).Relation("dept", 2).Relation("sal", 2);
  AggregateQuery q = AQ("A(E, sum(S)) :- sal(E, S), emp(E, D), dept(D, M).");
  AggregateCandBResult result = Unwrap(AggregateCandB(q, sigma, schema));
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_EQ(result.reformulations[0].body().size(), 2u);
  EXPECT_EQ(result.reformulations[0].function(), AggregateFunction::kSum);
  // The output is Σ-equivalent to the input (Thm K.2).
  EXPECT_TRUE(Unwrap(AggregateEquivalentUnder(result.reformulations[0], q, sigma)));
}

TEST(AggregateCandBTest, SumKeepsUnkeyedJoin) {
  // Without the key fd the join multiplies sums: the only Σ-minimal
  // reformulation keeps all three atoms.
  DependencySet sigma = Sigma({"emp(E, D) -> dept(D, M)."});
  Schema schema;
  schema.Relation("emp", 2).Relation("dept", 2).Relation("sal", 2);
  AggregateQuery q = AQ("A(E, sum(S)) :- sal(E, S), emp(E, D), dept(D, M).");
  AggregateCandBResult result = Unwrap(AggregateCandB(q, sigma, schema));
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_EQ(result.reformulations[0].body().size(), 3u);
}

TEST(AggregateCandBTest, MaxDropsUnkeyedJoin) {
  // Max-Min-C&B needs only set equivalence: the join goes even without the
  // key fd (Thm 6.3(1)).
  DependencySet sigma = Sigma({"emp(E, D) -> dept(D, M)."});
  Schema schema;
  schema.Relation("emp", 2).Relation("dept", 2).Relation("sal", 2);
  AggregateQuery q = AQ("A(E, max(S)) :- sal(E, S), emp(E, D), dept(D, M).");
  AggregateCandBResult result = Unwrap(AggregateCandB(q, sigma, schema));
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_EQ(result.reformulations[0].body().size(), 2u);
  EXPECT_EQ(result.reformulations[0].function(), AggregateFunction::kMax);
}

TEST(AggregateCandBTest, CountStarSupported) {
  DependencySet sigma = Sigma({
      "emp(E, D) -> dept(D, M).",
      "dept(D, M1), dept(D, M2) -> M1 = M2.",
  });
  Schema schema;
  schema.Relation("emp", 2).Relation("dept", 2);
  AggregateQuery q = AQ("A(E, count(*)) :- emp(E, D), dept(D, M).");
  AggregateCandBResult result = Unwrap(AggregateCandB(q, sigma, schema));
  ASSERT_EQ(result.reformulations.size(), 1u);
  EXPECT_EQ(result.reformulations[0].body().size(), 1u);
  EXPECT_EQ(result.reformulations[0].function(), AggregateFunction::kCountStar);
}

}  // namespace
}  // namespace sqleq
