// Unit tests for set-semantics chase to termination (§2.4, Theorem 2.2).
#include "chase/set_chase.h"

#include <gtest/gtest.h>

#include "db/satisfaction.h"
#include "equivalence/containment.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Q;
using testing::Sigma;
using testing::Unwrap;

TEST(SetChase, NoApplicableDependencyIsIdentity) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), r(X).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  ChaseOutcome out = Unwrap(SetChase(q, sigma));
  EXPECT_FALSE(out.failed);
  EXPECT_TRUE(out.trace.empty());
  EXPECT_TRUE(out.result.SameUpToAtomOrder(q));
}

TEST(SetChase, SingleTgdStep) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  ChaseOutcome out = Unwrap(SetChase(q, sigma));
  EXPECT_EQ(out.result.body().size(), 2u);
  EXPECT_EQ(out.trace.size(), 1u);
  EXPECT_TRUE(out.trace[0].is_tgd);
}

TEST(SetChase, TerminalResultSatisfiesSigma) {
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  DependencySet sigma = testing::Example41Sigma();
  ChaseOutcome out = Unwrap(SetChase(q4, sigma));
  CanonicalDatabase canon =
      Unwrap(BuildCanonicalDatabase(out.result, testing::Example41Schema()));
  EXPECT_TRUE(Unwrap(Satisfies(canon.database, sigma)));
}

TEST(SetChase, Example41UniversalPlanIsQ1) {
  // (Q4)Σ,S must be set-equivalent to Q1 (the paper's universal plan).
  ConjunctiveQuery q4 = Q("Q4(X) :- p(X, Y).");
  ConjunctiveQuery q1 =
      Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
  ChaseOutcome out = Unwrap(SetChase(q4, testing::Example41Sigma()));
  EXPECT_TRUE(SetEquivalent(out.result, q1));
}

TEST(SetChase, EgdUnifiesVariables) {
  ConjunctiveQuery q = Q("Q(X) :- s(X, Y), s(X, Z), r(Y), r(Z).");
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  ChaseOutcome out = Unwrap(SetChase(q, sigma));
  // Unification collapses the duplicate s and r atoms.
  EXPECT_EQ(out.result.body().size(), 2u);
}

TEST(SetChase, ChaseFailureOnConstantClash) {
  ConjunctiveQuery q = Q("Q(X) :- s(X, 4), s(X, 5).");
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  ChaseOutcome out = Unwrap(SetChase(q, sigma));
  EXPECT_TRUE(out.failed);
}

TEST(SetChase, NonTerminatingChaseHitsBudget) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> p(Y, Z)."});  // not weakly acyclic
  ChaseRuntime runtime;
  runtime.budget.max_chase_steps = 50;
  Result<ChaseOutcome> out = SetChase(q, sigma, runtime);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(Unwrap(SetChaseTerminates(q, sigma, runtime.budget)));
  // The diagnostic distinguishes divergence from a too-small budget.
  EXPECT_NE(out.status().message().find("NOT weakly acyclic"), std::string::npos)
      << out.status().ToString();
}

TEST(SetChase, BudgetDiagnosticForWeaklyAcyclicSigma) {
  // A weakly acyclic Σ with a budget of 0 steps: the message must say that
  // raising the budget will terminate.
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  ChaseRuntime runtime;
  runtime.budget.max_chase_steps = 0;
  Result<ChaseOutcome> out = SetChase(q, sigma, runtime);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("is weakly acyclic"), std::string::npos)
      << out.status().ToString();
}

TEST(SetChase, TerminatesReportsTrue) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  EXPECT_TRUE(Unwrap(SetChaseTerminates(q, sigma)));
}

TEST(SetChase, ChaseResultContainedInOriginal) {
  // Each tgd chase step only adds atoms: (Q)Σ,S ⊑S Q (Prop 6.2 tail).
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> s(X, Z).", "s(X, Z) -> r(Z)."});
  ChaseOutcome out = Unwrap(SetChase(q, sigma));
  EXPECT_EQ(out.result.body().size(), 3u);
  EXPECT_TRUE(SetContained(out.result, q));
}

TEST(SetChase, TransitiveTgdCascade) {
  ConjunctiveQuery q = Q("Q(X) :- a(X).");
  DependencySet sigma = Sigma({"a(X) -> b(X).", "b(X) -> c(X).", "c(X) -> d(X)."});
  ChaseOutcome out = Unwrap(SetChase(q, sigma));
  EXPECT_EQ(out.result.body().size(), 4u);
  EXPECT_EQ(out.trace.size(), 3u);
}

TEST(SetChase, TraceRecordsLabels) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  ChaseOutcome out = Unwrap(SetChase(q, sigma));
  ASSERT_EQ(out.trace.size(), 1u);
  EXPECT_EQ(out.trace[0].dep_label, "sigma1");
}

TEST(SetChase, InputDuplicateAtomsCanonicalizedUpFront) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), p(X, Y).");
  ChaseOutcome out = Unwrap(SetChase(q, {}));
  EXPECT_EQ(out.result.body().size(), 1u);
}

TEST(SetChase, Theorem22EquivalenceViaChasedQueries) {
  // Q ≡Σ,S Q′ iff (Q)Σ,S ≡S (Q′)Σ,S — sanity-check on a small instance.
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  ConjunctiveQuery q_with_r = Q("Q(X) :- p(X, Y), r(X).");
  ChaseOutcome c1 = Unwrap(SetChase(q, sigma));
  ChaseOutcome c2 = Unwrap(SetChase(q_with_r, sigma));
  EXPECT_TRUE(SetEquivalent(c1.result, c2.result));
}

}  // namespace
}  // namespace sqleq
