// Unit tests for the Datalog-style parser and the printing helpers.
#include "ir/parser.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "ir/printer.h"
#include "test_util.h"

namespace sqleq {
namespace {

TEST(ParseQuery, SimpleQuery) {
  Result<ConjunctiveQuery> q = ParseQuery("Q(X) :- p(X, Y).");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->name(), "Q");
  ASSERT_EQ(q->head().size(), 1u);
  EXPECT_EQ(q->head()[0], Term::Var("X"));
  ASSERT_EQ(q->body().size(), 1u);
  EXPECT_EQ(q->body()[0].ToString(), "p(X, Y)");
}

TEST(ParseQuery, TrailingPeriodOptional) {
  EXPECT_TRUE(ParseQuery("Q(X) :- p(X, Y)").ok());
}

TEST(ParseQuery, MultipleAtomsAndAndKeyword) {
  Result<ConjunctiveQuery> q = ParseQuery("Q(X) :- p(X, Y) AND r(X), s(X, Z).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->body().size(), 3u);
}

TEST(ParseQuery, ConstantsInBodyAndHead) {
  Result<ConjunctiveQuery> q = ParseQuery("Q(X, 1, 'lit') :- p(X, 2), r(abc).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->head()[1], Term::Int(1));
  EXPECT_EQ(q->head()[2], Term::Str("lit"));
  EXPECT_EQ(q->body()[0].args()[1], Term::Int(2));
  // Lowercase bare identifier is a string constant.
  EXPECT_EQ(q->body()[1].args()[0], Term::Str("abc"));
}

TEST(ParseQuery, NegativeIntegerConstant) {
  Result<ConjunctiveQuery> q = ParseQuery("Q(X) :- p(X, -5).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->body()[0].args()[1], Term::Int(-5));
}

TEST(ParseQuery, IntegerLiteralsAtTheInt64Bounds) {
  Result<ConjunctiveQuery> max = ParseQuery("Q(X) :- p(X, 9223372036854775807).");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->body()[0].args()[1], Term::Int(INT64_MAX));
  Result<ConjunctiveQuery> min = ParseQuery("Q(X) :- p(X, -9223372036854775808).");
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_EQ(min->body()[0].args()[1], Term::Int(INT64_MIN));
  // One past either bound is an InvalidArgument naming the literal's offset.
  for (const char* text :
       {"Q(X) :- p(X, 9223372036854775808).", "Q(X) :- p(X, -9223372036854775809)."}) {
    Result<ConjunctiveQuery> q = ParseQuery(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(q.status().message(), "integer literal out of range near offset 13");
  }
  Result<std::vector<Dependency>> dep =
      ParseDependency("r(X) -> s(X, 99999999999999999999)", "d");
  ASSERT_FALSE(dep.ok());
  EXPECT_EQ(dep.status().message(), "integer literal out of range near offset 13");
}

TEST(ParseQuery, UnderscoreStartsVariable) {
  Result<ConjunctiveQuery> q = ParseQuery("Q(X) :- p(X, _y).");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->body()[0].args()[1].IsVariable());
}

TEST(ParseQuery, RejectsUnsafeQuery) {
  EXPECT_FALSE(ParseQuery("Q(Z) :- p(X, Y).").ok());
}

TEST(ParseQuery, RejectsAggregateHead) {
  EXPECT_FALSE(ParseQuery("Q(X, sum(Y)) :- p(X, Y).").ok());
}

TEST(ParseQuery, RejectsGarbage) {
  EXPECT_FALSE(ParseQuery("Q(X) :-").ok());
  EXPECT_FALSE(ParseQuery("Q(X)").ok());
  EXPECT_FALSE(ParseQuery("Q(X) :- p(X, Y) extra").ok());
  EXPECT_FALSE(ParseQuery("Q(X) :- p(X, Y,)").ok());
  EXPECT_FALSE(ParseQuery("Q(X) :- p(X 'unterminated").ok());
}

TEST(ParseAggregateQuery, SumWithGrouping) {
  Result<AggregateQuery> q = ParseAggregateQuery("A(S, sum(Y)) :- p(S, Y).");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->function(), AggregateFunction::kSum);
  ASSERT_EQ(q->grouping().size(), 1u);
  EXPECT_EQ(*q->agg_arg(), Term::Var("Y"));
}

TEST(ParseAggregateQuery, CountStar) {
  Result<AggregateQuery> q = ParseAggregateQuery("A(S, count(*)) :- p(S, Y).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->function(), AggregateFunction::kCountStar);
  EXPECT_FALSE(q->agg_arg().has_value());
}

TEST(ParseAggregateQuery, AllFunctions) {
  EXPECT_EQ(testing::AQ("A(X, count(Y)) :- p(X, Y).").function(),
            AggregateFunction::kCount);
  EXPECT_EQ(testing::AQ("A(X, max(Y)) :- p(X, Y).").function(), AggregateFunction::kMax);
  EXPECT_EQ(testing::AQ("A(X, min(Y)) :- p(X, Y).").function(), AggregateFunction::kMin);
}

TEST(ParseAggregateQuery, AggregateMustBeLast) {
  EXPECT_FALSE(ParseAggregateQuery("A(sum(Y), S) :- p(S, Y).").ok());
}

TEST(ParseAggregateQuery, RequiresAnAggregate) {
  EXPECT_FALSE(ParseAggregateQuery("A(S) :- p(S, Y).").ok());
}

TEST(ParseAggregateQuery, StarOnlyForCount) {
  EXPECT_FALSE(ParseAggregateQuery("A(sum(*)) :- p(S, Y).").ok());
}

TEST(ParseDependencyText, SimpleTgd) {
  Result<ParsedDependency> d = ParseDependencyText("p(X, Y) -> r(X).");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->is_egd());
  EXPECT_EQ(d->body.size(), 1u);
  EXPECT_EQ(d->head_atoms.size(), 1u);
}

TEST(ParseDependencyText, TgdWithExistsPrefix) {
  Result<ParsedDependency> d =
      ParseDependencyText("p(X, Y) -> EXISTS Z, W: s(X, Z), t(Z, W).");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->head_atoms.size(), 2u);
}

TEST(ParseDependencyText, ExistsWithoutColon) {
  Result<ParsedDependency> d = ParseDependencyText("p(X, Y) -> exists Z s(X, Z).");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->head_atoms.size(), 1u);
}

TEST(ParseDependencyText, Egd) {
  Result<ParsedDependency> d = ParseDependencyText("r(X, Y), r(X, Z) -> Y = Z.");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->is_egd());
  ASSERT_EQ(d->equations.size(), 1u);
  EXPECT_EQ(d->equations[0].first, Term::Var("Y"));
  EXPECT_EQ(d->equations[0].second, Term::Var("Z"));
}

TEST(ParseDependencyText, MultiEquationEgd) {
  Result<ParsedDependency> d =
      ParseDependencyText("p(X, Y, Z), p(X, Y2, Z2) -> Y = Y2, Z = Z2.");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->equations.size(), 2u);
}

TEST(ParseDependencyText, RejectsMixedConclusion) {
  EXPECT_FALSE(ParseDependencyText("p(X, Y) -> r(X), X = Y.").ok());
}

TEST(ParseDependencyText, RejectsMissingArrow) {
  EXPECT_FALSE(ParseDependencyText("p(X, Y) r(X).").ok());
}

TEST(ParseAtoms, Conjunction) {
  Result<std::vector<Atom>> atoms = ParseAtoms("p(X, Y), q(Y)");
  ASSERT_TRUE(atoms.ok());
  EXPECT_EQ(atoms->size(), 2u);
}

TEST(ParseTermFn, Forms) {
  EXPECT_EQ(*ParseTerm("X1"), Term::Var("X1"));
  EXPECT_EQ(*ParseTerm("42"), Term::Int(42));
  EXPECT_EQ(*ParseTerm("'hi'"), Term::Str("hi"));
  EXPECT_EQ(*ParseTerm("abc"), Term::Str("abc"));
  EXPECT_FALSE(ParseTerm("X Y").ok());
}

TEST(Printer, TermMapToStringSorted) {
  TermMap m{{Term::Var("B"), Term::Var("C")}, {Term::Var("A"), Term::Int(1)}};
  EXPECT_EQ(TermMapToString(m), "{A -> 1, B -> C}");
}

TEST(Printer, QueriesToString) {
  std::vector<ConjunctiveQuery> qs{testing::Q("Q(X) :- p(X, Y).")};
  EXPECT_EQ(QueriesToString(qs), "Q(X) :- p(X, Y).\n");
}

TEST(Printer, AlignedTable) {
  std::string t = AlignedTable({{"ab", "1"}, {"a", "2"}});
  EXPECT_NE(t.find("ab  1"), std::string::npos);
  EXPECT_NE(t.find("a   2"), std::string::npos);
}

TEST(ParseRoundTrip, QueryToStringReparses) {
  ConjunctiveQuery q = testing::Q("Q(X, Y) :- p(X, Z), q(Z, Y), r(X).");
  ConjunctiveQuery q2 = testing::Q(q.ToString());
  EXPECT_TRUE(q.SameUpToAtomOrder(q2));
}

TEST(ParseRoundTrip, DependencyToStringReparses) {
  DependencySet sigma = testing::Sigma({"p(X, Y) -> EXISTS Z: s(X, Z)."});
  ASSERT_EQ(sigma.size(), 1u);
  Result<std::vector<Dependency>> again = ParseDependency(sigma[0].tgd().ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)[0].tgd().head().size(), 1u);
}

}  // namespace
}  // namespace sqleq
