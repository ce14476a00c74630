// Unit tests for associated test queries, assignment-fixing tgds
// (Definitions 4.2, 4.3) and key-based tgds (Definition 5.1).
#include "chase/assignment_fixing.h"

#include <gtest/gtest.h>

#include "chase/chase_step.h"
#include "chase/sigma_plan.h"
#include "matcher_oracle.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Q;
using testing::Sigma;
using testing::Unwrap;

TEST(AssociatedTestQuery, TwoParallelCopies) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X, Z), s(Z, W)."});
  const Tgd& tgd = sigma[0].tgd();
  std::optional<TermMap> h = FindApplicableTgdHomomorphism(q, tgd);
  ASSERT_TRUE(h.has_value());
  AssociatedTestQuery test = BuildAssociatedTestQuery(q, tgd, *h);
  // body(Q) + 2 copies of the 2-atom head.
  EXPECT_EQ(test.query.body().size(), 1u + 2u + 2u);
  ASSERT_EQ(test.existential_pairs.size(), 2u);
  for (const auto& [z, tz] : test.existential_pairs) {
    EXPECT_NE(z, tz);
    EXPECT_TRUE(z.IsVariable());
    EXPECT_TRUE(tz.IsVariable());
  }
  EXPECT_EQ(test.query.head(), q.head());
}

TEST(AssociatedTestQuery, FullTgdSingleCopy) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  const Tgd& tgd = sigma[0].tgd();
  std::optional<TermMap> h = FindApplicableTgdHomomorphism(q, tgd);
  ASSERT_TRUE(h.has_value());
  AssociatedTestQuery test = BuildAssociatedTestQuery(q, tgd, *h);
  EXPECT_EQ(test.query.body().size(), 2u);  // Eq. 3: one copy only
  EXPECT_TRUE(test.existential_pairs.empty());
}

TEST(AssignmentFixing, Example42Positive) {
  // σ1 of Example 4.2 is assignment-fixing w.r.t. Q(X) :- p(X,Y) given the
  // key σ2 and the egd σ3.
  DependencySet sigma = Sigma({
      "p(X, Y) -> r(X, Z), s(Z, W).",
      "r(X, Y), r(X, Z) -> Y = Z.",
      "r(X, Y), s(Y, T), r(X, Z), s(Z, W) -> T = W.",
  });
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  EXPECT_TRUE(Unwrap(IsAssignmentFixingForQuery(q, sigma[0].tgd(), sigma)));
}

TEST(AssignmentFixing, Example43NegativeWithoutSigma5) {
  // The intended negative of Example 4.3: σ4 is NOT assignment-fixing w.r.t.
  // Q(X) :- p(X,Y) when no egd pins down the s-values. (The paper's printed
  // Σ′ includes an egd σ5 so strong that it unifies all four existential
  // copies — see Example43LiteralSigma5MakesFixing below and EXPERIMENTS.md;
  // the literal Example 4.7 counterexample database actually violates σ5.)
  DependencySet sigma = Sigma({
      "r(X, Y), r(X, Z) -> Y = Z.",
      "p(X, Y) -> r(X, Z), s(Z, W), s(X, T).",
      "p(X, Y), r(A, X), s(X, T) -> X = T.",
  });
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  EXPECT_FALSE(Unwrap(IsAssignmentFixingForQuery(q, sigma[1].tgd(), sigma)));
}

TEST(AssignmentFixing, Example43LiteralSigma5MakesFixing) {
  // With the paper's σ5 taken literally, every pair of s-values with the
  // right first arguments is equated, so the associated-test-query chase
  // unifies W, T, W1, T1 and σ4 IS assignment-fixing by Def 4.3.
  DependencySet sigma = Sigma({
      "r(X, Y), r(X, Z) -> Y = Z.",
      "p(X, Y) -> r(X, Z), s(Z, W), s(X, T).",
      "r(X, Z), s(Z, W), s(X, T) -> W = T.",
      "p(X, Y), r(A, X), s(X, T) -> X = T.",
  });
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  EXPECT_TRUE(Unwrap(IsAssignmentFixingForQuery(q, sigma[1].tgd(), sigma)));
}

TEST(AssignmentFixing, Example51QueryDependence) {
  // The Example 5.1 phenomenon: the same tgd can be assignment-fixing w.r.t.
  // Q′ but not w.r.t. Q. Here σ6's r(A,X) premise only fires for the query
  // that carries an r-atom.
  DependencySet sigma = Sigma({
      "p(X, Y) -> s(X, T).",
      "p(X, Y), r(A, X), s(X, T) -> X = T.",
  });
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  ConjunctiveQuery q_prime = Q("Qp(X) :- p(X, Y), r(A, X).");
  EXPECT_FALSE(Unwrap(IsAssignmentFixingForQuery(q, sigma[0].tgd(), sigma)));
  EXPECT_TRUE(Unwrap(IsAssignmentFixingForQuery(q_prime, sigma[0].tgd(), sigma)));
}

TEST(AssignmentFixing, FullTgdAlwaysFixing) {
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  std::optional<TermMap> h = FindApplicableTgdHomomorphism(q, sigma[0].tgd());
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(Unwrap(
      IsAssignmentFixing(q, sigma[0].tgd(), *h, sigma, SigmaPlan::Compile(sigma))));
}

TEST(AssignmentFixing, KeyOnHeadRelationMakesFixing) {
  // σ2 of Example 4.1: t's key (attrs 1,2) covers the universal variables.
  DependencySet sigma = Sigma({
      "p(X, Y) -> t(X, Y, W).",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  });
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  EXPECT_TRUE(Unwrap(IsAssignmentFixingForQuery(q, sigma[0].tgd(), sigma)));
}

TEST(AssignmentFixing, NoKeyNotFixing) {
  // σ4's u-piece in Example 4.1: U has no key — not assignment-fixing.
  DependencySet sigma = Sigma({"p(X, Y) -> u(X, Z)."});
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  EXPECT_FALSE(Unwrap(IsAssignmentFixingForQuery(q, sigma[0].tgd(), sigma)));
}

TEST(AssignmentFixing, NotApplicableReportsFalse) {
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), r(X).");
  EXPECT_FALSE(Unwrap(IsAssignmentFixingForQuery(q, sigma[0].tgd(), sigma)));
}

TEST(AssignmentFixing, Example46Nu1IsFixing) {
  // ν1 of Example 4.6/4.8: regularized and assignment-fixing w.r.t.
  // Q(X) :- p(X,Y), s(X,Z) given ν2.
  DependencySet sigma = Sigma({
      "p(X, Y) -> s(X, Z), t(Z, Y).",
      "t(X, Y), t(Z, Y) -> X = Z.",
  });
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), s(X, Z).");
  EXPECT_TRUE(Unwrap(IsAssignmentFixingForQuery(q, sigma[0].tgd(), sigma)));
}

TEST(KeyBased, PositiveWithKeyAndSetValued) {
  DependencySet sigma = Sigma({
      "p(X, Y) -> t(X, Y, W).",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  });
  Schema schema;
  schema.Relation("p", 2).Relation("t", 3, /*set_valued=*/true);
  EXPECT_TRUE(IsKeyBased(sigma[0].tgd(), sigma, schema));
}

TEST(KeyBased, FailsWithoutSetValuedFlag) {
  DependencySet sigma = Sigma({
      "p(X, Y) -> t(X, Y, W).",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  });
  Schema schema;
  schema.Relation("p", 2).Relation("t", 3, /*set_valued=*/false);
  EXPECT_FALSE(IsKeyBased(sigma[0].tgd(), sigma, schema));
}

TEST(KeyBased, FailsWithoutKey) {
  DependencySet sigma = Sigma({"p(X, Y) -> u(X, Z)."});
  Schema schema;
  schema.Relation("p", 2).Relation("u", 2, /*set_valued=*/true);
  EXPECT_FALSE(IsKeyBased(sigma[0].tgd(), sigma, schema));
}

TEST(KeyBased, StrictlyWeakerThanAssignmentFixing) {
  // ν1 of Example 4.8: assignment-fixing w.r.t. the query, but NOT key-based
  // (the s-atom's universal position {0} is not a superkey of S).
  DependencySet sigma = Sigma({
      "p(X, Y) -> s(X, Z), t(Z, Y).",
      "t(X, Y), t(Z, Y) -> X = Z.",
  });
  Schema schema;
  schema.Relation("p", 2)
      .Relation("s", 2, /*set_valued=*/true)
      .Relation("t", 2, /*set_valued=*/true);
  EXPECT_FALSE(IsKeyBased(sigma[0].tgd(), sigma, schema));
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), s(X, Z).");
  EXPECT_TRUE(Unwrap(IsAssignmentFixingForQuery(q, sigma[0].tgd(), sigma)));
}

}  // namespace
}  // namespace sqleq
