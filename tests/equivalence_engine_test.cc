// Tests for the EquivalenceEngine facade: verdicts, chase-memo reuse across
// calls, and ResourceBudget deadline enforcement. The evidence behind a
// verdict (chase results, traces, witnesses) comes from ExplainEquivalence.
#include "equivalence/engine.h"

#include <gtest/gtest.h>

#include <chrono>

#include "equivalence/bag_equivalence.h"
#include "equivalence/bag_set_equivalence.h"
#include "equivalence/explain.h"
#include "service/session.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Sigma;
using testing::Unwrap;

TEST(EquivalenceEngine, DecidesExample41PerSemantics) {
  // Q1 ≡Σ Q4 under S but not under B/BS (Example 4.1 / §6.3).
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  EquivalenceEngine engine;
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    EquivRequest request{sem, Example41Sigma(), Example41Schema()};
    EquivVerdict verdict = Unwrap(engine.Equivalent(q1, q4, request));
    EXPECT_EQ(verdict.verdict == Verdict::kEquivalent, sem == Semantics::kSet)
        << SemanticsToString(sem);
    EXPECT_EQ(verdict.semantics, sem);
  }
  // The set-semantics verdict specifically is "equivalent".
  EquivRequest set_request{Semantics::kSet, Example41Sigma(), Example41Schema()};
  EXPECT_EQ(Unwrap(engine.Equivalent(q1, q4, set_request)).verdict,
            Verdict::kEquivalent);
}

TEST(EquivalenceEngine, VerdictCarriesTracesAndWitness) {
  DependencySet sigma = Sigma({"a(X) -> b(X)."});
  ConjunctiveQuery q1 = Q("Q1(X) :- a(X).");
  ConjunctiveQuery q2 = Q("Q2(X) :- a(X), b(X).");
  EquivalenceEngine engine;
  EquivVerdict v =
      Unwrap(engine.Equivalent(q1, q2, EquivRequest{Semantics::kSet, sigma, {}}));
  EXPECT_EQ(v.verdict, Verdict::kEquivalent);
  // The verdict carries no evidence (its chases are memoized, in canonical
  // variable space); the uncached ExplainEquivalence does. Q1's chase
  // applies the tgd once, Q2's none.
  EquivalenceExplanation e =
      Unwrap(ExplainEquivalence(q1, q2, sigma, Semantics::kSet, Schema()));
  EXPECT_TRUE(e.equivalent);
  EXPECT_EQ(e.trace_q1.size(), 1u);
  EXPECT_TRUE(e.trace_q2.empty());
  // The chased queries are in the callers' variables.
  EXPECT_EQ(e.chased_q1.name(), "Q1");
  EXPECT_EQ(e.chased_q1.body().size(), 2u);
  ASSERT_EQ(e.chased_q1.head().size(), 1u);
  EXPECT_EQ(e.chased_q1.head()[0], Term::Var("X"));
  // Set semantics: containment mappings both ways.
  EXPECT_TRUE(e.witness_forward.has_value());
  EXPECT_TRUE(e.witness_backward.has_value());
}

TEST(EquivalenceEngine, NonEquivalentVerdictHasNoWitness) {
  ConjunctiveQuery q1 = Q("Q1(X) :- p(X, Y).");
  ConjunctiveQuery q2 = Q("Q2(X) :- p(Y, X).");
  EquivalenceEngine engine;
  EXPECT_EQ(Unwrap(engine.Equivalent(q1, q2, EquivRequest{})).verdict,
            Verdict::kNotEquivalent);
  EquivalenceExplanation e = Unwrap(ExplainEquivalence(q1, q2, {}, Semantics::kSet, {}));
  EXPECT_FALSE(e.equivalent);
  EXPECT_FALSE(e.witness_forward.has_value());
  EXPECT_FALSE(e.witness_backward.has_value());
}

TEST(EquivalenceEngine, BothChasesFailingMeansEquivalent) {
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  ConjunctiveQuery q1 = Q("Q1(X) :- s(X, 4), s(X, 5).");
  ConjunctiveQuery q2 = Q("Q2(X) :- s(X, 1), s(X, 2), p(X, Y).");
  EquivalenceEngine engine;
  EquivVerdict v = Unwrap(
      engine.Equivalent(q1, q2, EquivRequest{Semantics::kSet, sigma, {}}));
  EXPECT_EQ(v.verdict, Verdict::kEquivalent);  // both empty on every D |= Σ
  EquivalenceExplanation e = Unwrap(ExplainEquivalence(q1, q2, sigma, Semantics::kSet, {}));
  EXPECT_TRUE(e.q1_failed);
  EXPECT_TRUE(e.q2_failed);
  EXPECT_TRUE(e.equivalent);
}

TEST(EquivalenceEngine, RenamingSharesOneOutcomeUnderEverySemantics) {
  // A query and its renaming have one canonical key, so the second lookup
  // returns the first one's memo outcome and the pair is equivalent under
  // S, B and BS without a decision — also when both chases fail.
  const DependencySet sigma =
      Sigma({"s(A, B), s(A, C) -> B = C.", "p(X, Y) -> s(X, Y)."});
  Schema schema;
  schema.Relation("p", 2).Relation("s", 2);
  const std::pair<ConjunctiveQuery, ConjunctiveQuery> pairs[] = {
      {Q("Q1(X) :- p(X, Y), s(Y, Z)."), Q("Q2(A) :- s(B, C), p(A, B).")},
      {Q("Q1(X) :- s(X, 4), s(X, 5)."), Q("Q2(Y) :- s(Y, 5), s(Y, 4).")},
  };
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    for (const auto& [a, b] : pairs) {
      EquivalenceEngine engine;
      std::shared_ptr<ChaseContext> context = engine.ContextFor(sem, sigma, schema);
      EquivVerdict v = Unwrap(engine.Equivalent(a, b, *context, EquivOptions{}));
      EXPECT_EQ(v.verdict, Verdict::kEquivalent)
          << SemanticsToString(sem) << " " << a.ToString();
      EXPECT_EQ(v.semantics, sem);
      ChaseMemo::Stats stats = context->memo().stats();
      EXPECT_EQ(stats.misses, 1u);
      EXPECT_EQ(stats.hits, 1u);
      // The evidence agrees, failed chases included.
      EquivalenceExplanation e = Unwrap(ExplainEquivalence(a, b, sigma, sem, schema));
      EXPECT_TRUE(e.equivalent);
      EXPECT_EQ(e.q1_failed, &a == &pairs[1].first);
      EXPECT_EQ(e.q2_failed, e.q1_failed);
    }
  }
}

TEST(EquivalenceEngine, EmptySigmaBagMatchesTheorem21) {
  // With Σ = ∅ the facade's kBag verdict is Theorem 2.1(1) isomorphism —
  // exactly what the legacy bool entry point reports.
  ConjunctiveQuery a = Q("Q(X) :- p(X, Y), p(Y, Z).");
  ConjunctiveQuery b = Q("P(A) :- p(B, C), p(A, B).");
  ConjunctiveQuery c = Q("R(X) :- p(X, Y), p(Y, Z), p(X, W).");
  EquivalenceEngine engine;
  EXPECT_EQ(Unwrap(engine.Equivalent(a, b, EquivRequest{Semantics::kBag, {}, {}})).verdict,
            Verdict::kEquivalent);
  EXPECT_EQ(BagEquivalent(a, b), true);
  EXPECT_EQ(Unwrap(engine.Equivalent(a, c, EquivRequest{Semantics::kBag, {}, {}})).verdict,
            Verdict::kNotEquivalent);
  EXPECT_EQ(BagEquivalent(a, c), false);
  // And the BS wrapper still implements Theorem 2.1(2) duplicate-blindness.
  EXPECT_TRUE(BagSetEquivalent(Q("Q(X) :- p(X, Y)."), Q("Q(X) :- p(X, Y), p(X, Y).")));
  EXPECT_FALSE(BagEquivalent(Q("Q(X) :- p(X, Y)."), Q("Q(X) :- p(X, Y), p(X, Y).")));
}

TEST(EquivalenceEngine, RepeatCallsHitTheChaseMemo) {
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  EquivalenceEngine engine;
  EquivRequest request{Semantics::kSet, Example41Sigma(), Example41Schema()};
  Unwrap(engine.Equivalent(q1, q4, request));
  EquivalenceEngine::CacheStats first = engine.cache_stats();
  EXPECT_EQ(first.contexts, 1u);
  EXPECT_EQ(first.misses, 2u);  // q1 and q4, both fresh
  EXPECT_EQ(first.hits, 0u);
  Unwrap(engine.Equivalent(q1, q4, request));
  EquivalenceEngine::CacheStats second = engine.cache_stats();
  EXPECT_EQ(second.contexts, 1u);
  EXPECT_EQ(second.misses, 2u);  // nothing re-chased
  EXPECT_EQ(second.hits, 2u);
}

TEST(EquivalenceEngine, BudgetIsPerCallMemoIsPerContext) {
  // The budget travels with each call; the memo belongs to the context. A
  // call that runs out of steps leaves nothing behind, a roomy call warms
  // the memo, and a later call under the same tight budget is answered
  // from it — all through one memo context.
  ConjunctiveQuery q = Q("P(X) :- p(X, Y).");  // five steps under S
  ConjunctiveQuery renamed = Q("P(A) :- p(A, B).");
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    SCOPED_TRACE(SemanticsToString(sem));
    EquivalenceEngine engine;
    EquivRequest tight{sem, Example41Sigma(), Example41Schema()};
    tight.context.budget.max_chase_steps = 1;
    EquivRequest roomy{sem, Example41Sigma(), Example41Schema()};

    EquivVerdict cold = Unwrap(engine.Equivalent(q, renamed, tight), "cold");
    EXPECT_EQ(cold.verdict, Verdict::kUnknown);
    ASSERT_TRUE(cold.exhaustion.has_value());
    EXPECT_EQ(cold.exhaustion->limit, "max_chase_steps");
    EXPECT_EQ(engine.cache_stats().contexts, 1u);
    EXPECT_EQ(engine.cache_stats().entries, 0u);

    EXPECT_EQ(Unwrap(engine.Equivalent(q, renamed, roomy), "roomy").verdict,
              Verdict::kEquivalent);
    EquivalenceEngine::CacheStats warm = engine.cache_stats();
    EXPECT_EQ(warm.contexts, 1u);

    EXPECT_EQ(Unwrap(engine.Equivalent(q, renamed, tight), "repeat").verdict,
              Verdict::kEquivalent);
    EquivalenceEngine::CacheStats repeat = engine.cache_stats();
    EXPECT_EQ(repeat.contexts, 1u);
    EXPECT_EQ(repeat.misses, warm.misses);  // nothing chased under the cap
    EXPECT_EQ(repeat.hits, warm.hits + 2);
  }
}

TEST(EquivalenceEngine, DistinctSigmaDistinctContexts) {
  ConjunctiveQuery a = Q("Q(X) :- a(X).");
  ConjunctiveQuery b = Q("P(X) :- a(X), b(X).");
  EquivalenceEngine engine;
  Unwrap(engine.Equivalent(a, b, EquivRequest{Semantics::kSet, {}, {}}));
  Unwrap(engine.Equivalent(
      a, b, EquivRequest{Semantics::kSet, Sigma({"a(X) -> b(X)."}), {}}));
  EXPECT_EQ(engine.cache_stats().contexts, 2u);
}

TEST(EquivalenceEngine, ContextIdentityIsStructural) {
  // The same DDL applied in two sessions builds equal Σ and schemas apart;
  // the engine finds one context for both.
  const std::string ddl =
      "CREATE TABLE r (a INT PRIMARY KEY, b INT);"
      "CREATE TABLE s (c INT, d INT, FOREIGN KEY (c) REFERENCES r (a));";
  service::Session first;
  service::Session second;
  ASSERT_TRUE(first.ApplyDdl(ddl).ok());
  ASSERT_TRUE(second.ApplyDdl(ddl).ok());
  ASSERT_FALSE(first.catalog().sigma.empty());
  EquivalenceEngine shared;
  const ConjunctiveQuery s_query = Q("Q(X) :- s(X, Y).");
  for (const service::Session* session : {&first, &second}) {
    Unwrap(shared.Equivalent(s_query, s_query,
                             EquivRequest{Semantics::kSet, session->catalog().sigma,
                                          session->catalog().schema}));
  }
  EXPECT_EQ(shared.cache_stats().contexts, 1u);

  // Each variant differs from the base in one respect and gets its own
  // context; the base, asked again, does not.
  const DependencySet sigma = Sigma({"p(X, Y) -> r(X).", "r(X), r(Y) -> X = Y."});
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("p", 2, {"a", "b"}).ok());
  ASSERT_TRUE(schema.AddRelation("r", 1, {"a"}).ok());

  DependencySet relabelled = sigma;
  relabelled[0] = sigma[0].WithLabel("other");
  const DependencySet one_term = Sigma({"p(X, Y) -> r(Y).", "r(X), r(Y) -> X = Y."});
  const DependencySet reordered = {sigma[1], sigma[0]};
  Schema renamed_attribute;
  ASSERT_TRUE(renamed_attribute.AddRelation("p", 2, {"a", "c"}).ok());
  ASSERT_TRUE(renamed_attribute.AddRelation("r", 1, {"a"}).ok());

  EquivalenceEngine engine;
  const ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  auto contexts_after = [&](const DependencySet& sig, const Schema& sch) {
    Unwrap(engine.Equivalent(q, q, EquivRequest{Semantics::kSet, sig, sch}));
    return engine.cache_stats().contexts;
  };
  EXPECT_EQ(contexts_after(sigma, schema), 1u);
  EXPECT_EQ(contexts_after(relabelled, schema), 2u);
  EXPECT_EQ(contexts_after(one_term, schema), 3u);
  EXPECT_EQ(contexts_after(reordered, schema), 4u);
  EXPECT_EQ(contexts_after(sigma, renamed_attribute), 5u);
  EXPECT_EQ(contexts_after(sigma, schema), 5u);
}

TEST(EquivalenceEngine, ExpiredDeadlineReportsResourceExhausted) {
  EquivalenceEngine engine;
  EquivRequest request{Semantics::kSet, Sigma({"a(X) -> b(X)."}), {}};
  request.context.budget.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Result<EquivVerdict> v =
      engine.Equivalent(Q("Q(X) :- a(X)."), Q("P(X) :- a(X), b(X)."), request);
  // Anytime contract: the expired deadline yields kUnknown, not an error.
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->verdict, Verdict::kUnknown);
  ASSERT_TRUE(v->exhaustion.has_value());
  EXPECT_EQ(v->exhaustion->limit, "deadline");
  EXPECT_NE(v->exhaustion->progress.find("deadline"), std::string::npos)
      << v->exhaustion->ToString();
}

}  // namespace
}  // namespace sqleq
