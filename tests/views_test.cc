// Unit tests for view-based rewriting (ViewSet, expansion, equivalence
// tests, and the C&B-with-views enumerator).
#include "reformulation/views.h"

#include <gtest/gtest.h>

#include "db/eval.h"
#include "equivalence/isomorphism.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Q;
using testing::Sigma;
using testing::Unwrap;

ViewSet EmpViews() {
  ViewSet views;
  // v_ed(E, D): employees with their departments.
  EXPECT_TRUE(views.Add(Q("v_ed(E, D) :- emp(E, D).")).ok());
  // v_em(E, M): employees with their managers (through dept).
  EXPECT_TRUE(views.Add(Q("v_em(E, M) :- emp(E, D), dept(D, M).")).ok());
  return views;
}

Schema EmpSchema() {
  Schema s;
  s.Relation("emp", 2).Relation("dept", 2, /*set_valued=*/true);
  return s;
}

TEST(ViewSetTest, AddValidates) {
  ViewSet views;
  EXPECT_TRUE(views.Add(Q("v1(X) :- emp(X, D).")).ok());
  // Duplicate name:
  EXPECT_FALSE(views.Add(Q("v1(X, Y) :- emp(X, Y).")).ok());
  // Nested views (referencing an existing view):
  EXPECT_FALSE(views.Add(Q("v2(X) :- v1(X).")).ok());
  EXPECT_TRUE(views.Has("v1"));
  EXPECT_FALSE(views.Has("v2"));
  EXPECT_EQ(views.size(), 1u);
}

TEST(ViewSetTest, AddRejectsViewReferencedByExisting) {
  ViewSet views;
  EXPECT_TRUE(views.Add(Q("v1(X) :- future(X).")).ok());
  EXPECT_FALSE(views.Add(Q("future(X) :- emp(X, D).")).ok());
}

TEST(ViewSetTest, AsSchemaUsesHeadArities) {
  ViewSet views = EmpViews();
  Schema s = views.AsSchema(/*set_valued=*/true);
  EXPECT_EQ(s.ArityOf("v_ed"), 2u);
  EXPECT_TRUE(s.IsSetValued("v_em"));
}

TEST(ExpandRewritingTest, SplicesViewBody) {
  ViewSet views = EmpViews();
  ConjunctiveQuery r = Q("R(E) :- v_em(E, M).");
  ConjunctiveQuery expanded = Unwrap(ExpandRewriting(r, views));
  EXPECT_TRUE(AreIsomorphic(expanded, Q("R(E) :- emp(E, D), dept(D, M).")));
}

TEST(ExpandRewritingTest, BaseAtomsPassThrough) {
  ViewSet views = EmpViews();
  ConjunctiveQuery r = Q("R(E) :- v_ed(E, D), dept(D, M).");
  ConjunctiveQuery expanded = Unwrap(ExpandRewriting(r, views));
  EXPECT_TRUE(AreIsomorphic(expanded, Q("R(E) :- emp(E, D), dept(D, M).")));
}

TEST(ExpandRewritingTest, FreshensExistentialsPerOccurrence) {
  ViewSet views = EmpViews();
  // Two v_em atoms must NOT share the hidden dept variable.
  ConjunctiveQuery r = Q("R(E1, E2) :- v_em(E1, M), v_em(E2, M).");
  ConjunctiveQuery expanded = Unwrap(ExpandRewriting(r, views));
  EXPECT_EQ(expanded.body().size(), 4u);
  EXPECT_TRUE(AreIsomorphic(
      expanded, Q("R(E1, E2) :- emp(E1, D1), dept(D1, M), emp(E2, D2), dept(D2, M).")));
}

TEST(ExpandRewritingTest, RepeatedHeadVariableForcesUnification) {
  ViewSet views;
  ASSERT_TRUE(views.Add(Q("v_same(X, X) :- emp(X, X).")).ok());
  ConjunctiveQuery r = Q("R(A) :- v_same(A, B), dept(B, M).");
  ConjunctiveQuery expanded = Unwrap(ExpandRewriting(r, views));
  // A and B unify; the dept atom follows the survivor.
  EXPECT_TRUE(AreIsomorphic(expanded, Q("R(A) :- emp(A, A), dept(A, M).")));
}

TEST(ExpandRewritingTest, HeadConstantBindsArgument) {
  ViewSet views;
  ASSERT_TRUE(views.Add(Q("v_c(X, 1) :- emp(X, 1).")).ok());
  ConjunctiveQuery r = Q("R(A, B) :- v_c(A, B).");
  ConjunctiveQuery expanded = Unwrap(ExpandRewriting(r, views));
  EXPECT_TRUE(AreIsomorphic(expanded, Q("R(A, 1) :- emp(A, 1).")));
}

TEST(ExpandRewritingTest, ConstantClashIsUnsatisfiable) {
  ViewSet views;
  ASSERT_TRUE(views.Add(Q("v_c(X, 1) :- emp(X, 1).")).ok());
  ConjunctiveQuery r = Q("R(A) :- v_c(A, 2).");
  Result<ConjunctiveQuery> expanded = ExpandRewriting(r, views);
  ASSERT_FALSE(expanded.ok());
  EXPECT_EQ(expanded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExpandRewritingTest, ArityMismatchRejected) {
  ViewSet views = EmpViews();
  EXPECT_FALSE(ExpandRewriting(Q("R(E) :- v_em(E)."), views).ok());
}

TEST(IsEquivalentRewritingTest, SetSemantics) {
  ViewSet views = EmpViews();
  ConjunctiveQuery q = Q("Q(E, M) :- emp(E, D), dept(D, M).");
  EXPECT_TRUE(Unwrap(IsEquivalentRewriting(q, Q("R(E, M) :- v_em(E, M)."), views, {},
                                           Semantics::kSet, EmpSchema())));
  EXPECT_FALSE(Unwrap(IsEquivalentRewriting(q, Q("R(E, M) :- v_ed(E, M)."), views, {},
                                            Semantics::kSet, EmpSchema())));
}

TEST(IsEquivalentRewritingTest, ViewRewriteBagDuplicate) {
  // Precise version of the above: dept set valued ⇒ duplicate dept subgoal
  // is removable (Thm 4.2) ⇒ the v_em rewriting IS bag-equivalent. With
  // dept bag valued it is NOT.
  ViewSet views = EmpViews();
  ConjunctiveQuery q = Q("Q(E, M) :- emp(E, D), dept(D, M), dept(D, M).");
  ConjunctiveQuery r = Q("R(E, M) :- v_em(E, M).");
  Schema set_schema = EmpSchema();
  EXPECT_TRUE(
      Unwrap(IsEquivalentRewriting(q, r, views, {}, Semantics::kBag, set_schema)));
  Schema bag_schema;
  bag_schema.Relation("emp", 2).Relation("dept", 2);
  EXPECT_FALSE(
      Unwrap(IsEquivalentRewriting(q, r, views, {}, Semantics::kBag, bag_schema)));
}

TEST(IsEquivalentRewritingTest, UnderDependencies) {
  // Σ: every employee's dept exists in dept (fk) with key on dept. Then
  // Q(E) :- emp(E, D) can be rewritten as R(E) :- v_em(E, M)? Only under
  // set/bag-set-style reasoning: the expansion adds the dept join, which Σ
  // makes redundant.
  ViewSet views = EmpViews();
  DependencySet sigma = Sigma({
      "emp(E, D) -> dept(D, M).",
      "dept(D, M1), dept(D, M2) -> M1 = M2.",
  });
  ConjunctiveQuery q = Q("Q(E) :- emp(E, D).");
  ConjunctiveQuery r = Q("R(E) :- v_em(E, M).");
  EXPECT_TRUE(
      Unwrap(IsEquivalentRewriting(q, r, views, sigma, Semantics::kSet, EmpSchema())));
  EXPECT_TRUE(Unwrap(
      IsEquivalentRewriting(q, r, views, sigma, Semantics::kBagSet, EmpSchema())));
  // Without the key egd, BS fails (the dept join may duplicate rows).
  DependencySet weak = Sigma({"emp(E, D) -> dept(D, M)."});
  EXPECT_FALSE(Unwrap(
      IsEquivalentRewriting(q, r, views, weak, Semantics::kBagSet, EmpSchema())));
  EXPECT_TRUE(
      Unwrap(IsEquivalentRewriting(q, r, views, weak, Semantics::kSet, EmpSchema())));
}

TEST(RewriteWithViewsTest, FindsTotalRewriting) {
  ViewSet views = EmpViews();
  ConjunctiveQuery q = Q("Q(E, M) :- emp(E, D), dept(D, M).");
  RewriteResult result =
      Unwrap(RewriteWithViews(q, views, {}, Semantics::kSet, EmpSchema()));
  ASSERT_GE(result.rewritings.size(), 1u);
  bool found = false;
  for (const ConjunctiveQuery& r : result.rewritings) {
    if (AreIsomorphic(r, Q("R(E, M) :- v_em(E, M)."))) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RewriteWithViewsTest, NoRewritingWhenViewsLoseColumns) {
  ViewSet views;
  ASSERT_TRUE(views.Add(Q("v_e(E) :- emp(E, D).")).ok());
  ConjunctiveQuery q = Q("Q(E, D) :- emp(E, D).");
  RewriteResult result =
      Unwrap(RewriteWithViews(q, views, {}, Semantics::kSet, EmpSchema()));
  EXPECT_TRUE(result.rewritings.empty());
}

TEST(RewriteWithViewsTest, AllowBaseAtomsOption) {
  ViewSet views;
  ASSERT_TRUE(views.Add(Q("v_e(E) :- emp(E, D).")).ok());
  ConjunctiveQuery q = Q("Q(E) :- emp(E, D), dept(D, M).");
  // Views only: impossible (dept join unexpressible).
  RewriteResult total =
      Unwrap(RewriteWithViews(q, views, {}, Semantics::kSet, EmpSchema()));
  EXPECT_TRUE(total.rewritings.empty());
  // With base atoms allowed the original body itself is found.
  RewriteOptions options;
  options.allow_base_atoms = true;
  RewriteResult partial =
      Unwrap(RewriteWithViews(q, views, {}, Semantics::kSet, EmpSchema(), options));
  EXPECT_FALSE(partial.rewritings.empty());
}

TEST(RewriteWithViewsTest, RejectsSigmaMinimalityVerification) {
  // The inherited C&B option has no view-rewriting counterpart; setting it
  // is an error, not a silent no-op.
  RewriteOptions options;
  options.verify_sigma_minimality = true;
  Result<RewriteResult> result =
      RewriteWithViews(Q("Q(E, M) :- emp(E, D), dept(D, M)."), EmpViews(), {},
                       Semantics::kSet, EmpSchema(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RewriteWithViewsTest, BagSemanticsRejectsMultiplicityChangingView) {
  // v_join(E) projects a join: under bag semantics its multiplicities differ
  // from Q(E) :- emp(E, D) whenever dept fans out; no equivalent rewriting.
  ViewSet views;
  ASSERT_TRUE(views.Add(Q("v_join(E) :- emp(E, D), dept(D, M).")).ok());
  Schema bag_schema;
  bag_schema.Relation("emp", 2).Relation("dept", 2);
  ConjunctiveQuery q = Q("Q(E) :- emp(E, D).");
  RewriteResult result =
      Unwrap(RewriteWithViews(q, views, {}, Semantics::kBag, bag_schema));
  EXPECT_TRUE(result.rewritings.empty());
}

TEST(RewriteWithViewsTest, ExpansionOracleAgreement) {
  // Every produced rewriting, expanded, evaluates exactly like Q.
  ViewSet views = EmpViews();
  ConjunctiveQuery q = Q("Q(E, M) :- emp(E, D), dept(D, M).");
  RewriteResult result =
      Unwrap(RewriteWithViews(q, views, {}, Semantics::kBagSet, EmpSchema()));
  ASSERT_FALSE(result.rewritings.empty());
  Database db(EmpSchema());
  db.Add("emp", {1, 10}).Add("emp", {2, 10}).Add("dept", {10, 7}).Add("dept", {11, 8});
  for (const ConjunctiveQuery& r : result.rewritings) {
    ConjunctiveQuery expanded = Unwrap(ExpandRewriting(r, views));
    EXPECT_EQ(Unwrap(Evaluate(q, db, Semantics::kBagSet)),
              Unwrap(Evaluate(expanded, db, Semantics::kBagSet)));
  }
}

}  // namespace
}  // namespace sqleq
