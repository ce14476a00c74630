// Differential check of the engine's memoized decision path. For every
// worked-example pair of the paper and a random corpus drawn the way the
// property suite draws its queries, under S, B and BS,
// EquivalenceEngine::Equivalent must give the verdict ExplainEquivalence
// gives (which chases uncached, in the caller's variable names) in three
// memo states: on a cold engine, on the same engine warm (the second call,
// served from the memory tier), and on a fresh engine whose memo is
// re-warmed from a MemoStore disk tier that another engine filled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chase/memo_store.h"
#include "equivalence/engine.h"
#include "equivalence/explain.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Sigma;
using testing::Unwrap;

constexpr Semantics kAllSemantics[] = {Semantics::kSet, Semantics::kBag,
                                       Semantics::kBagSet};

/// Pairs that share one Σ and schema.
struct Fixture {
  std::string name;
  DependencySet sigma;
  Schema schema;
  std::vector<std::pair<ConjunctiveQuery, ConjunctiveQuery>> pairs;
};

/// A schema of binary relations, those in `set_valued` flagged set valued.
Schema Binary(std::initializer_list<const char*> names,
              std::initializer_list<std::string_view> set_valued = {}) {
  Schema schema;
  for (const char* name : names) {
    schema.Relation(name, 2, std::find(set_valued.begin(), set_valued.end(),
                                       name) != set_valued.end());
  }
  return schema;
}

/// The paper's worked examples (tests/paper_examples_test.cc), each with the
/// Σ and schema it is stated under, plus the failed-chase fixture.
std::vector<Fixture> PaperFixtures() {
  const ConjunctiveQuery q1 = Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  const ConjunctiveQuery q2 = Q("Q2(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X).");
  const ConjunctiveQuery q3 = Q("Q3(X) :- p(X, Y), t(X, Y, W), s(X, Z).");
  const ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  const ConjunctiveQuery q4p = Q("Q4p(X) :- p(X, Y), t(X, Y, W), u(X, Z).");
  const ConjunctiveQuery q5 = Q("Q5(X) :- p(X, Y), t(X, Y, W), s(X, Z), s(X, Z).");
  const ConjunctiveQuery pu = Q("Q(X) :- p(X, Y), u(X, Z).");
  const DependencySet sigma_prime = Sigma({
      "p(X, Y) -> s(X, Z), t(X, V, W).",
      "p(X, Y) -> r(X).",
      "p(X, Y) -> u(X, Z), t(X, Y, W).",
      "s(X, Y), s(X, Z) -> Y = Z.",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  });
  const DependencySet sigma_46 = Sigma({
      "p(X, Y) -> s(X, Z), t(Z, Y).",
      "t(X, Y), t(Z, Y) -> X = Z.",
  });
  const ConjunctiveQuery q46 = Q("Q(X) :- p(X, Y), s(X, Z).");
  const ConjunctiveQuery q46_bad = Q("Qb(X) :- p(X, Y), s(X, Z), t(Z, Y).");
  const ConjunctiveQuery q46_good = Q("Qg(X) :- p(X, Y), s(X, Z), s(X, W), t(W, Y).");
  const ConjunctiveQuery qe = Q("Q(A) :- r(A, B).");
  const ConjunctiveQuery qe1 = Q("Qp(A) :- r(A, B), p(A, B).");
  const ConjunctiveQuery qe2 = Q("Qp(A) :- r(A, B), p(A, C).");
  const ConjunctiveQuery both_fail_1 = Q("Q1(X) :- s(X, 4), s(X, 5).");
  const ConjunctiveQuery both_fail_2 = Q("Q2(X) :- s(X, 1), s(X, 2), p(X, Y).");
  const ConjunctiveQuery satisfiable = Q("Q3(X) :- s(X, 4), p(X, Y).");

  Schema pr;
  pr.Relation("p", 2).Relation("r", 1);
  return {
      {"Example 4.1", Example41Sigma(), Example41Schema(),
       {{q1, q4}, {q2, q4}, {q3, q4}, {q1, q2}, {q3, q5}, {q4, q4p}, {pu, q4}}},
      {"Example 4.4", sigma_prime, Example41Schema(), {{q3, q4}, {q4, q4p}}},
      {"Example 4.6", sigma_46, Binary({"p", "s", "t"}),
       {{q46, q46_bad}, {q46_good, q46}}},
      {"Example 4.8", sigma_46, Binary({"p", "s", "t"}, {"s", "t"}),
       {{q46, q46_good}, {q46, q46_bad}}},
      {"Example 4.9", {}, Example41Schema(), {{q3, q5}}},
      {"Example D.2", {}, pr,
       {{Q("Q7(X) :- p(X, Y), r(X), r(X)."), Q("Q8(X) :- p(X, Y), r(X).")}}},
      {"Example E.1", Sigma({"p(X, Y), p(X, Z) -> Y = Z.", "r(X, Y) -> p(X, Y)."}),
       Binary({"p", "r"}), {{qe, qe1}}},
      {"Example E.1 (P set valued)",
       Sigma({"p(X, Y), p(X, Z) -> Y = Z.", "r(X, Y) -> p(X, Y)."}),
       Binary({"p", "r"}, {"p"}), {{qe, qe1}}},
      {"Example E.2", Sigma({"r(X, Y) -> p(X, Z)."}),
       Binary({"p", "r"}), {{qe, qe2}}},
      {"failed chases", Sigma({"s(A, B), s(A, C) -> B = C."}),
       Binary({"p", "s"}),
       {{both_fail_1, both_fail_2}, {both_fail_1, satisfiable}}},
  };
}

/// The property suite's corpus: random queries over Example 4.1's schema
/// under its Σ, and over a small keyless schema under Σ = ∅, at the suite's
/// seeds. Each draw is paired with an independent draw, with an isomorphic
/// variant of itself, and with itself plus a duplicated atom.
std::vector<Fixture> PropertyFixtures() {
  Schema small;
  small.Relation("p", 2).Relation("r", 1).Relation("s", 2);
  std::vector<Fixture> fixtures = {
      {"property corpus, Example 4.1 Σ", Example41Sigma(), Example41Schema(), {}},
      {"property corpus, Σ = ∅", {}, small, {}},
  };
  for (Fixture& fixture : fixtures) {
    for (uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}) {
      Rng rng(seed);
      for (int round = 0; round < 2; ++round) {
        ConjunctiveQuery a =
            testing::RandomQuery(fixture.schema, rng.UniformInt(1, 3), 3, &rng);
        ConjunctiveQuery b =
            testing::RandomQuery(fixture.schema, rng.UniformInt(1, 3), 3, &rng);
        if (a.head().size() == b.head().size()) fixture.pairs.emplace_back(a, b);
        ConjunctiveQuery renamed = a.RenameApart();
        std::vector<Atom> shuffled = renamed.body();
        rng.Shuffle(&shuffled);
        fixture.pairs.emplace_back(a, renamed.WithBody(std::move(shuffled)));
        std::vector<Atom> duplicated = a.body();
        duplicated.push_back(duplicated[rng.Index(duplicated.size())]);
        fixture.pairs.emplace_back(a, a.WithBody(std::move(duplicated)));
      }
    }
  }
  return fixtures;
}

std::string TempDir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/sqleq_verdict_differential_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* made = ::mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return std::string(made);
}

std::shared_ptr<MemoStore> OpenStore(const std::string& dir) {
  MemoStoreOptions options;
  options.dir = dir;
  return Unwrap(MemoStore::Open(std::move(options)), "MemoStore::Open");
}

bool Decided(EquivalenceEngine& engine, const ConjunctiveQuery& q1,
             const ConjunctiveQuery& q2, const EquivRequest& request,
             const std::string& context) {
  EquivVerdict v = Unwrap(engine.Equivalent(q1, q2, request));
  EXPECT_NE(v.verdict, Verdict::kUnknown) << context;
  EXPECT_EQ(v.semantics, request.semantics) << context;
  return v.verdict == Verdict::kEquivalent;
}

/// How the pairs of a fixture were decided, so a corpus can be checked to
/// exercise both verdicts: per semantics (kAllSemantics order), and the
/// decisions where a chase failed.
struct Tally {
  int equivalent[3] = {};
  int not_equivalent[3] = {};
  int failed = 0;
};

Tally CheckAgreement(const Fixture& fixture) {
  Tally tally;
  const std::string dir = TempDir();
  // The disk tier: one engine fills it, and a fresh engine on a reopened
  // store later decides every pair from it.
  {
    EquivalenceEngine writer;
    writer.set_memo_store(OpenStore(dir));
    for (Semantics semantics : kAllSemantics) {
      EquivRequest request(semantics, fixture.sigma, fixture.schema);
      for (const auto& [q1, q2] : fixture.pairs) {
        (void)Unwrap(writer.Equivalent(q1, q2, request));
      }
    }
  }
  std::shared_ptr<MemoStore> store = OpenStore(dir);
  EquivalenceEngine rewarmed;
  rewarmed.set_memo_store(store);

  for (size_t s = 0; s < std::size(kAllSemantics); ++s) {
    const Semantics semantics = kAllSemantics[s];
    EquivRequest request(semantics, fixture.sigma, fixture.schema);
    for (const auto& [q1, q2] : fixture.pairs) {
      const std::string context = fixture.name + ": " + q1.ToString() + " vs " +
                                  q2.ToString() + " under " +
                                  SemanticsToString(semantics);
      const EquivalenceExplanation explained =
          Unwrap(ExplainEquivalence(q1, q2, fixture.sigma, semantics, fixture.schema));
      const bool expected = explained.equivalent;
      ++(expected ? tally.equivalent : tally.not_equivalent)[s];
      if (explained.q1_failed || explained.q2_failed) ++tally.failed;

      EquivalenceEngine engine;
      EXPECT_EQ(Decided(engine, q1, q2, request, context + " (cold)"), expected)
          << context << " (cold)";
      const size_t hits = engine.cache_stats().hits;
      EXPECT_EQ(Decided(engine, q1, q2, request, context + " (warm)"), expected)
          << context << " (warm)";
      EXPECT_EQ(engine.cache_stats().hits, hits + 2) << context << " (warm)";

      EXPECT_EQ(Decided(rewarmed, q1, q2, request, context + " (disk)"), expected)
          << context << " (disk)";
    }
  }
  // Every outcome the re-warmed engine used came from the disk tier: a
  // fresh chase would have written its record through.
  EXPECT_EQ(store->stats().writes, 0u) << fixture.name;
  EXPECT_GT(store->stats().hits, 0u) << fixture.name;
  return tally;
}

TEST(VerdictDifferential, PaperExamplesAgreeWithExplainInEveryMemoState) {
  Tally total;
  for (const Fixture& fixture : PaperFixtures()) {
    Tally tally = CheckAgreement(fixture);
    for (size_t s = 0; s < std::size(kAllSemantics); ++s) {
      total.equivalent[s] += tally.equivalent[s];
      total.not_equivalent[s] += tally.not_equivalent[s];
    }
    total.failed += tally.failed;
  }
  for (size_t s = 0; s < std::size(kAllSemantics); ++s) {
    EXPECT_GT(total.equivalent[s], 0) << SemanticsToString(kAllSemantics[s]);
    EXPECT_GT(total.not_equivalent[s], 0) << SemanticsToString(kAllSemantics[s]);
  }
  EXPECT_GT(total.failed, 0);
}

TEST(VerdictDifferential, PropertyCorpusAgreesWithExplainInEveryMemoState) {
  std::vector<Fixture> fixtures = PropertyFixtures();
  for (const Fixture& fixture : fixtures) {
    ASSERT_GE(fixture.pairs.size(), 40u) << fixture.name;
    Tally tally = CheckAgreement(fixture);
    for (size_t s = 0; s < std::size(kAllSemantics); ++s) {
      const std::string context =
          fixture.name + " under " + SemanticsToString(kAllSemantics[s]);
      EXPECT_GT(tally.equivalent[s], 0) << context;
      EXPECT_GT(tally.not_equivalent[s], 0) << context;
    }
  }
}

}  // namespace
}  // namespace sqleq
