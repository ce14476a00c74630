// Unit tests for single chase steps with tgds and egds (§2.4).
#include "chase/chase_step.h"

#include <gtest/gtest.h>

#include "matcher_oracle.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Q;
using testing::Sigma;

TEST(TgdStep, ApplicableWhenHeadMissing) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  std::optional<TermMap> h = FindApplicableTgdHomomorphism(q, sigma[0].tgd());
  ASSERT_TRUE(h.has_value());
  ConjunctiveQuery q2 = ApplyTgdStep(q, sigma[0].tgd(), *h);
  ASSERT_EQ(q2.body().size(), 2u);
  EXPECT_EQ(q2.body()[1].ToString(), "r(X)");
}

TEST(TgdStep, NotApplicableWhenHeadPresent) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), r(X).");
  DependencySet sigma = Sigma({"p(X, Y) -> r(X)."});
  EXPECT_FALSE(FindApplicableTgdHomomorphism(q, sigma[0].tgd()).has_value());
  EXPECT_FALSE(IsApplicable(q, sigma[0]));
}

TEST(TgdStep, ExistentialsFreshlyRenamed) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Z).");  // query already uses Z
  DependencySet sigma = Sigma({"p(X, Y) -> s(X, Z)."});
  std::optional<TermMap> h = FindApplicableTgdHomomorphism(q, sigma[0].tgd());
  ASSERT_TRUE(h.has_value());
  ConjunctiveQuery q2 = ApplyTgdStep(q, sigma[0].tgd(), *h);
  ASSERT_EQ(q2.body().size(), 2u);
  // The fresh existential must not capture the query's Z.
  EXPECT_NE(q2.body()[1].args()[1], Term::Var("Z"));
  EXPECT_TRUE(q2.body()[1].args()[1].IsVariable());
}

TEST(TgdStep, ExtendableHomomorphismNotApplicable) {
  // The restricted chase: h extends to the head via existing atoms.
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), s(X, W).");
  DependencySet sigma = Sigma({"p(X, Y) -> s(X, Z)."});
  EXPECT_FALSE(FindApplicableTgdHomomorphism(q, sigma[0].tgd()).has_value());
}

TEST(TgdStep, MultipleApplicableHomomorphisms) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y), p(Y, X).");
  DependencySet sigma = Sigma({"p(A, B) -> r(A)."});
  std::vector<TermMap> hs = FindApplicableTgdHomomorphisms(q, sigma[0].tgd());
  EXPECT_EQ(hs.size(), 2u);  // A→X and A→Y
}

TEST(TgdStep, InstantiateTgdHeadReportsFreshMap) {
  DependencySet sigma = Sigma({"p(X, Y) -> s(X, Z), t(Z, W)."});
  TermMap h{{Term::Var("X"), Term::Var("QX")}, {Term::Var("Y"), Term::Var("QY")}};
  TermMap fresh;
  std::vector<Atom> atoms = InstantiateTgdHead(sigma[0].tgd(), h, &fresh);
  ASSERT_EQ(atoms.size(), 2u);
  ASSERT_EQ(fresh.size(), 2u);
  // Shared existential Z instantiates to the same fresh variable in both.
  EXPECT_EQ(atoms[0].args()[1], atoms[1].args()[0]);
  EXPECT_EQ(atoms[0].args()[0], Term::Var("QX"));
}

TEST(EgdStep, AppliesAndSubstitutes) {
  ConjunctiveQuery q = Q("Q(X) :- s(X, Y), s(X, Z), r(Y).");
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  std::optional<EgdApplication> app = FindEgdApplication(q, sigma[0].egd());
  ASSERT_TRUE(app.has_value());
  EXPECT_FALSE(app->failure);
  ConjunctiveQuery q2 = ApplyEgdStep(q, *app);
  // Y and Z unified: both s-atoms become equal, r follows the survivor.
  EXPECT_EQ(q2.body()[0], q2.body()[1]);
}

TEST(EgdStep, NotApplicableWhenSatisfied) {
  ConjunctiveQuery q = Q("Q(X) :- s(X, Y), r(Y).");
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  // Only one s-atom: every h maps B and C to the same Y.
  EXPECT_FALSE(FindEgdApplication(q, sigma[0].egd()).has_value());
}

TEST(EgdStep, SubstitutesIntoHead) {
  ConjunctiveQuery q = Q("Q(Y, Z) :- s(X, Y), s(X, Z).");
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  std::optional<EgdApplication> app = FindEgdApplication(q, sigma[0].egd());
  ASSERT_TRUE(app.has_value());
  ConjunctiveQuery q2 = ApplyEgdStep(q, *app);
  EXPECT_EQ(q2.head()[0], q2.head()[1]);
}

TEST(EgdStep, ConstantWinsAsReplacement) {
  ConjunctiveQuery q = Q("Q(X) :- s(X, Y), s(X, 5).");
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  std::optional<EgdApplication> app = FindEgdApplication(q, sigma[0].egd());
  ASSERT_TRUE(app.has_value());
  EXPECT_FALSE(app->failure);
  EXPECT_TRUE(app->from.IsVariable());
  EXPECT_EQ(app->to, Term::Int(5));
  ConjunctiveQuery q2 = ApplyEgdStep(q, *app);
  for (const Atom& a : q2.body()) EXPECT_EQ(a.args()[1], Term::Int(5));
}

TEST(EgdStep, TwoDistinctConstantsIsFailure) {
  ConjunctiveQuery q = Q("Q(X) :- s(X, 4), s(X, 5).");
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  std::optional<EgdApplication> app = FindEgdApplication(q, sigma[0].egd());
  ASSERT_TRUE(app.has_value());
  EXPECT_TRUE(app->failure);
}

TEST(EgdStep, PrefersNonFailingApplication) {
  // One h fails (4 vs 5) but another succeeds (Y vs 4): the non-failing
  // application must be preferred.
  ConjunctiveQuery q = Q("Q(X) :- s(X, 4), s(X, 5), s(X, Y).");
  DependencySet sigma = Sigma({"s(A, B), s(A, C) -> B = C."});
  std::optional<EgdApplication> app = FindEgdApplication(q, sigma[0].egd());
  ASSERT_TRUE(app.has_value());
  EXPECT_FALSE(app->failure);
}

TEST(IsApplicableTest, DispatchesOnKind) {
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  DependencySet sigma = Sigma({
      "p(X, Y) -> r(X).",
      "p(A, B), p(A, C) -> B = C.",
  });
  EXPECT_TRUE(IsApplicable(q, sigma[0]));
  EXPECT_FALSE(IsApplicable(q, sigma[1]));
}

}  // namespace
}  // namespace sqleq
