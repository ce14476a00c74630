// Unit tests for sound chase under bag and bag-set semantics (Theorems 4.1,
// 4.3, 5.1; Proposition 5.1).
#include "chase/sound_chase.h"

#include <gtest/gtest.h>

#include "chase/assignment_fixing.h"
#include "chase/homomorphism.h"
#include "chase/sigma_plan.h"
#include "constraints/regularize.h"
#include "equivalence/bag_equivalence.h"
#include "equivalence/bag_set_equivalence.h"
#include "equivalence/isomorphism.h"
#include "ir/printer.h"
#include "reformulation/minimize.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Sigma;
using testing::Unwrap;

TEST(NormalizeForBagTest, DropsOnlySetValuedDuplicates) {
  Schema schema;
  schema.Relation("s", 2, /*set_valued=*/true).Relation("u", 2);
  ConjunctiveQuery q = Q("Q(X) :- s(X, Z), s(X, Z), u(X, W), u(X, W).");
  ConjunctiveQuery n = NormalizeForBag(q, schema);
  ASSERT_EQ(n.body().size(), 3u);
  auto counts = n.PredicateCounts();
  EXPECT_EQ(counts.at("s"), 1u);
  EXPECT_EQ(counts.at("u"), 2u);
}

TEST(SoundChase, SetSemanticsDispatchesToSetChase) {
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  ChaseOutcome out =
      Unwrap(SoundChase(q4, Example41Sigma(), Semantics::kSet, Example41Schema()));
  // The set-chase result may carry one redundant t-atom depending on step
  // order; its core is exactly Q1 of Example 4.1 (5 atoms).
  EXPECT_EQ(MinimizeSet(out.result).body().size(), 5u);
}

TEST(SoundChase, Example41BagChaseGivesQ3) {
  // (Q4)Σ,B = Q3: p, t, s (r is excluded because R is bag valued; u because
  // σ4's u-piece is not assignment fixing).
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  ChaseOutcome out =
      Unwrap(SoundChase(q4, Example41Sigma(), Semantics::kBag, Example41Schema()));
  ConjunctiveQuery q3 = Q("Q3(X) :- p(X, Y), t(X, Y, W), s(X, Z).");
  EXPECT_TRUE(AreIsomorphic(out.result, q3));
}

TEST(SoundChase, Example41BagSetChaseGivesQ2) {
  // (Q4)Σ,BS = Q2: p, t, s, r (r comes back: full tgds need no set-valued
  // target under BS).
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  ChaseOutcome out =
      Unwrap(SoundChase(q4, Example41Sigma(), Semantics::kBagSet, Example41Schema()));
  ConjunctiveQuery q2 = Q("Q2(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X).");
  EXPECT_TRUE(AreIsomorphic(out.result, q2));
}

TEST(SoundChase, PropositionSixTwoContainmentChain) {
  // (Q)Σ,S ⊑S (Q)Σ,BS ⊑S (Q)Σ,B ⊑S Q on Example 4.1 (Prop 6.2).
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  ChaseOutcome s =
      Unwrap(SoundChase(q4, Example41Sigma(), Semantics::kSet, Example41Schema()));
  ChaseOutcome bs =
      Unwrap(SoundChase(q4, Example41Sigma(), Semantics::kBagSet, Example41Schema()));
  ChaseOutcome b =
      Unwrap(SoundChase(q4, Example41Sigma(), Semantics::kBag, Example41Schema()));
  EXPECT_GE(s.result.body().size(), bs.result.body().size());
  EXPECT_GE(bs.result.body().size(), b.result.body().size());
  EXPECT_GE(b.result.body().size(), q4.body().size());
}

TEST(SoundChase, Example48AppliesNu1) {
  // ν1 is assignment-fixing w.r.t. Q; under BS the sound chase applies it
  // (Example 4.8 — adds both an S- and a T-subgoal).
  DependencySet sigma = Sigma({
      "p(X, Y) -> s(X, Z), t(Z, Y).",
      "t(X, Y), t(Z, Y) -> X = Z.",
  });
  Schema schema;
  schema.Relation("p", 2)
      .Relation("s", 2, /*set_valued=*/true)
      .Relation("t", 2, /*set_valued=*/true);
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), s(X, Z).");
  ChaseOutcome out = Unwrap(SoundChase(q, sigma, Semantics::kBag, schema));
  // Q'' of Example 4.8: p(X,Y), s(X,Z), s(X,W), t(W,Y).
  ConjunctiveQuery expected = Q("E(X) :- p(X, Y), s(X, Z), s(X, W), t(W, Y).");
  EXPECT_TRUE(AreIsomorphic(out.result, expected));
}

TEST(SoundChase, Example48BagValuedTargetBlocksUnderBag) {
  // Same ν1, but with S and T bag valued: under B the step is unsound
  // (Thm 4.1 requires set-valued targets) — the chase must refuse it.
  DependencySet sigma = Sigma({
      "p(X, Y) -> s(X, Z), t(Z, Y).",
      "t(X, Y), t(Z, Y) -> X = Z.",
  });
  Schema schema;
  schema.Relation("p", 2).Relation("s", 2).Relation("t", 2);
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), s(X, Z).");
  ChaseOutcome out = Unwrap(SoundChase(q, sigma, Semantics::kBag, schema));
  EXPECT_TRUE(AreIsomorphic(out.result, q));
  // Under BS the set-valuedness requirement disappears (Thm 4.3).
  ChaseOutcome bs = Unwrap(SoundChase(q, sigma, Semantics::kBagSet, schema));
  EXPECT_EQ(bs.result.body().size(), 4u);
}

TEST(SoundChase, EgdStepsAlwaysApply) {
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  Schema schema;
  schema.Relation("s", 2).Relation("r", 1);
  ConjunctiveQuery q = Q("Q(X) :- s(X, Y), s(X, Z), r(Y), r(Z).");
  ChaseOutcome out = Unwrap(SoundChase(q, sigma, Semantics::kBag, schema));
  // Y and Z unify. S is bag valued here, so the duplicate s-subgoals MUST
  // survive under B (Thm 4.1(2)); duplicate r-subgoals likewise.
  auto counts = out.result.PredicateCounts();
  EXPECT_EQ(counts.at("s"), 2u);
  EXPECT_EQ(counts.at("r"), 2u);
}

TEST(SoundChase, EgdDuplicateDroppedWhenSetValued) {
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  Schema schema;
  schema.Relation("s", 2, /*set_valued=*/true).Relation("r", 1);
  ConjunctiveQuery q = Q("Q(X) :- s(X, Y), s(X, Z), r(Y), r(Z).");
  ChaseOutcome out = Unwrap(SoundChase(q, sigma, Semantics::kBag, schema));
  auto counts = out.result.PredicateCounts();
  EXPECT_EQ(counts.at("s"), 1u);  // set-valued duplicate dropped
  EXPECT_EQ(counts.at("r"), 2u);  // bag-valued duplicates kept
}

TEST(SoundChase, UnderBagSetAllDuplicatesNormalizedAway) {
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  Schema schema;
  schema.Relation("s", 2).Relation("r", 1);
  ConjunctiveQuery q = Q("Q(X) :- s(X, Y), s(X, Z), r(Y), r(Z).");
  ChaseOutcome out = Unwrap(SoundChase(q, sigma, Semantics::kBagSet, schema));
  EXPECT_EQ(out.result.body().size(), 2u);
}

TEST(SoundChase, FailurePropagates) {
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  Schema schema;
  schema.Relation("s", 2);
  ConjunctiveQuery q = Q("Q(X) :- s(X, 4), s(X, 5).");
  ChaseOutcome out = Unwrap(SoundChase(q, sigma, Semantics::kBag, schema));
  EXPECT_TRUE(out.failed);
}

TEST(SoundChase, NonRegularTgdRegularizedInternally) {
  // σ4 of Example 4.1 alone (non-regularized): under BS its t-piece applies
  // (key on t) while its u-piece does not — exactly Example 4.4/4.5's fix.
  DependencySet sigma = Sigma({
      "p(X, Y) -> u(X, Z), t(X, Y, W).",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  });
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  ChaseOutcome out =
      Unwrap(SoundChase(q4, sigma, Semantics::kBagSet, Example41Schema()));
  ConjunctiveQuery expected = Q("E(X) :- p(X, Y), t(X, Y, W).");
  EXPECT_TRUE(AreIsomorphic(out.result, expected));
}

TEST(SoundChase, Theorem51UniquenessAcrossStatementOrder) {
  // Permute Σ; the sound-chase results must stay isomorphic (after the bag
  // normalization the theorem prescribes).
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  DependencySet sigma = Example41Sigma();
  ChaseOutcome base =
      Unwrap(SoundChase(q4, sigma, Semantics::kBag, Example41Schema()));
  std::vector<size_t> order{5, 4, 3, 2, 1, 0};
  DependencySet permuted;
  for (size_t i : order) permuted.push_back(sigma[i]);
  ChaseOutcome alt =
      Unwrap(SoundChase(q4, permuted, Semantics::kBag, Example41Schema()));
  EXPECT_TRUE(AreIsomorphic(base.result, alt.result));
  // Same for bag-set.
  ChaseOutcome base_bs =
      Unwrap(SoundChase(q4, sigma, Semantics::kBagSet, Example41Schema()));
  ChaseOutcome alt_bs =
      Unwrap(SoundChase(q4, permuted, Semantics::kBagSet, Example41Schema()));
  EXPECT_TRUE(BagSetEquivalent(base_bs.result, alt_bs.result));
}

TEST(SoundChase, BudgetExhaustionSurfaces) {
  DependencySet sigma = Sigma({"p(X, Y) -> p(Y, Z)."});
  Schema schema;
  schema.Relation("p", 2, /*set_valued=*/true);
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  ChaseRuntime runtime;
  runtime.budget.max_chase_steps = 20;
  Result<ChaseOutcome> out = SoundChase(q, sigma, Semantics::kBag, schema, runtime);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(SoundChase, KeyBasedFastPathIsPureOptimization) {
  // Under B and BS the sound chase admits a key-based tgd step (Def 5.1)
  // without the Def 4.3 test chase, which is sound only because key-based
  // implies assignment-fixing (§5.1). Check the implication directly on
  // random queries over the Example 4.1 setting: every tgd of the
  // regularized Σ that is key-based under B or BS is assignment-fixing at
  // every homomorphism under which it applies.
  DependencySet sigma = RegularizeSigma(Example41Sigma());
  Schema schema = Example41Schema();
  SigmaPlan plan = SigmaPlan::Compile(sigma, schema);
  Rng rng(4242);
  size_t checked = 0;
  for (int round = 0; round < 40; ++round) {
    ConjunctiveQuery q = testing::RandomQuery(schema, rng.UniformInt(1, 3), 3, &rng);
    for (const Dependency& dep : sigma) {
      if (!dep.IsTgd()) continue;
      const Tgd& tgd = dep.tgd();
      const bool key_based_bag =
          IsKeyBased(tgd, sigma, schema, /*require_set_valued=*/true);
      const bool key_based_bag_set =
          IsKeyBased(tgd, sigma, schema, /*require_set_valued=*/false);
      if (!key_based_bag && !key_based_bag_set) continue;
      ForEachHomomorphism(tgd.body(), q.body(), {}, [&](const TermMap& h) {
        if (HomomorphismExists(tgd.head(), q.body(), h)) return true;  // not applicable
        Result<bool> fixing = IsAssignmentFixing(q, tgd, h, sigma, plan);
        EXPECT_TRUE(fixing.ok()) << fixing.status().ToString();
        EXPECT_TRUE(fixing.ok() && *fixing)
            << dep.label() << " key-based but not assignment-fixing on "
            << q.ToString() << " at " << TermMapToString(h);
        ++checked;
        return true;
      });
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ClassifyStepTest, ThreeWayClassification) {
  DependencySet sigma = Example41Sigma();
  Schema schema = Example41Schema();
  ConjunctiveQuery q3 = Q("Q3(X) :- p(X, Y), t(X, Y, W), s(X, Z).");
  // σ3 (p → r): applicable to Q3, but R is bag valued → unsound only.
  EXPECT_EQ(Unwrap(ClassifyStep(q3, sigma[2], sigma, Semantics::kBag, schema)),
            StepAvailability::kUnsoundOnly);
  // Under BS the same step is sound.
  EXPECT_EQ(Unwrap(ClassifyStep(q3, sigma[2], sigma, Semantics::kBagSet, schema)),
            StepAvailability::kSoundApplicable);
  // σ2 (p → t with key): already satisfied by Q3 → not applicable.
  EXPECT_EQ(Unwrap(ClassifyStep(q3, sigma[1], sigma, Semantics::kBag, schema)),
            StepAvailability::kNotApplicable);
}

}  // namespace
}  // namespace sqleq
