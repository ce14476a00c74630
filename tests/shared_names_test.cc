// The two queries of a check may share variable names. SQL translation names
// variables query-locally ("V_<alias>#<col>"), so two SQL queries using the
// same aliases share names, and Datalog queries share whatever names their
// authors wrote. Nothing renames them apart before the matcher. These tests
// pin that this is sound: verdicts under S, B and BS agree with the
// brute-force evaluator, witnesses map between the chase results in the
// direction they claim, translated names stay injective in (alias, column),
// and the cache and routing keys do not depend on the order names were
// interned in.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/semantic_cache.h"
#include "chase/chase_cache.h"
#include "db/eval.h"
#include "equivalence/engine.h"
#include "service/protocol.h"
#include "service/routing.h"
#include "sql/translate.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Q;
using testing::Unwrap;

constexpr Semantics kAllSemantics[] = {Semantics::kSet, Semantics::kBag,
                                       Semantics::kBagSet};

/// True when `map` sends `from`'s head onto `to`'s head position-wise and
/// every atom of `from`'s body onto an atom of `to`'s body.
bool MapsInto(const TermMap& map, const ConjunctiveQuery& from,
              const ConjunctiveQuery& to) {
  if (from.head().size() != to.head().size()) return false;
  for (size_t i = 0; i < from.head().size(); ++i) {
    if (ApplyTermMap(map, from.head()[i]) != to.head()[i]) return false;
  }
  for (const Atom& atom : from.body()) {
    Atom image = ApplyTermMap(map, std::vector<Atom>{atom}).front();
    if (std::find(to.body().begin(), to.body().end(), image) == to.body().end()) {
      return false;
    }
  }
  return true;
}

TermMap Inverse(const TermMap& map) {
  TermMap inverse;
  for (const auto& [from, to] : map) inverse.emplace(to, from);
  return inverse;
}

/// The witnesses of an equivalent verdict, checked against the chase results
/// they were found on: under S the forward witness maps c2's body into c1's
/// and the backward one c1's into c2's; under B and BS the forward witness
/// is an isomorphism from c1 onto c2, so it and its inverse map each body
/// into the other.
void ExpectWitnessesMapBetweenChaseResults(const EquivVerdict& v,
                                           const std::string& context) {
  ASSERT_TRUE(v.witness_forward.has_value()) << context;
  if (v.semantics == Semantics::kSet) {
    ASSERT_TRUE(v.witness_backward.has_value()) << context;
    EXPECT_TRUE(MapsInto(*v.witness_forward, v.chased_q2, v.chased_q1)) << context;
    EXPECT_TRUE(MapsInto(*v.witness_backward, v.chased_q1, v.chased_q2)) << context;
    return;
  }
  EXPECT_TRUE(MapsInto(*v.witness_forward, v.chased_q1, v.chased_q2)) << context;
  EXPECT_TRUE(MapsInto(Inverse(*v.witness_forward), v.chased_q2, v.chased_q1))
      << context;
}

/// Brute force: evaluates both queries under `semantics` on random
/// databases repaired to satisfy Σ. Returns true iff one tells them apart;
/// `usable` counts the databases that satisfied Σ.
bool OracleDistinguishes(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                         const DependencySet& sigma, const Schema& schema,
                         Semantics semantics, uint64_t seed, int* usable) {
  Rng rng(seed);
  *usable = 0;
  for (int round = 0; round < 300; ++round) {
    Database db = testing::RandomDatabase(schema, 4, 3, 2, &rng);
    if (!testing::RepairDatabase(&db, sigma, 8)) continue;
    ++*usable;
    if (Unwrap(Evaluate(q1, db, semantics)) != Unwrap(Evaluate(q2, db, semantics))) {
      return true;
    }
  }
  return false;
}

/// A pair and the engine's verdict on it under S, B and BS.
struct Case {
  ConjunctiveQuery q1;
  ConjunctiveQuery q2;
  bool set;
  bool bag;
  bool bag_set;
};

/// Decides every case under S, B and BS, checks the verdict and its
/// witnesses, and checks the oracle agrees: an equivalent pair is never
/// told apart, an inequivalent pair is.
void CheckAgainstOracle(const std::vector<Case>& cases, const DependencySet& sigma,
                        const Schema& schema) {
  EquivalenceEngine engine;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    for (Semantics semantics : kAllSemantics) {
      std::string context = c.q1.ToString() + " vs " + c.q2.ToString() + " under " +
                            SemanticsToString(semantics);
      EquivVerdict v =
          Unwrap(engine.Equivalent(c.q1, c.q2, EquivRequest(semantics, sigma, schema)));
      ASSERT_NE(v.verdict, Verdict::kUnknown) << context;
      bool expected = semantics == Semantics::kSet   ? c.set
                      : semantics == Semantics::kBag ? c.bag
                                                     : c.bag_set;
      EXPECT_EQ(v.equivalent, expected) << context;
      int usable = 0;
      bool told_apart =
          OracleDistinguishes(c.q1, c.q2, sigma, schema, semantics, 17 + i, &usable);
      EXPECT_EQ(told_apart, !v.equivalent) << context;
      if (!told_apart) {
        EXPECT_GE(usable, 20) << context;
      }
      if (v.equivalent) ExpectWitnessesMapBetweenChaseResults(v, context);
    }
  }
}

sql::Catalog OracleCatalog() {
  return Unwrap(sql::CatalogFromScript(R"(
    CREATE TABLE dept (id INT PRIMARY KEY, mgr INT);
    CREATE TABLE emp (id INT PRIMARY KEY, dept INT,
                      FOREIGN KEY (dept) REFERENCES dept (id));
    CREATE TABLE log (emp INT, act INT);
  )"));
}

ConjunctiveQuery TranslateCq(const std::string& sql, const sql::Catalog& catalog,
                             const std::string& name) {
  sql::TranslatedQuery t = Unwrap(sql::TranslateSql(sql, catalog, name));
  EXPECT_FALSE(t.is_aggregate) << sql;
  return *t.cq;
}

std::vector<std::string> VariableNames(const ConjunctiveQuery& q) {
  std::vector<std::string> names;
  for (Term v : q.BodyVariables()) names.emplace_back(v.name());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(SharedNames, SqlQueriesWithTheSameAliasesAgreeWithTheOracle) {
  const sql::Catalog catalog = OracleCatalog();
  auto sql = [&catalog](const std::string& text) {
    return TranslateCq(text, catalog, "Q");
  };
  const std::vector<Case> cases = {
      // The foreign key plus the key of dept make the join free.
      {sql("SELECT e.id FROM emp e"),
       sql("SELECT e.id FROM emp e, dept d WHERE e.dept = d.id"), true, true, true},
      // A cross product multiplies by |dept|; only S ignores that.
      {sql("SELECT e.id FROM emp e, dept d WHERE e.dept = d.id"),
       sql("SELECT e.id FROM emp e, dept d"), true, false, false},
      // The same aliases on swapped tables.
      {sql("SELECT d.mgr FROM dept d, emp e WHERE d.id = e.dept"),
       sql("SELECT e.mgr FROM dept e, emp d WHERE e.id = d.dept"), true, true, true},
      {sql("SELECT l.emp FROM log l"), sql("SELECT l.act FROM log l"), false, false,
       false},
      {sql("SELECT l.emp FROM log l, log m WHERE l.emp = m.emp"),
       sql("SELECT l.emp FROM log l"), true, false, false},
  };
  // The pairs really do share names; in the fourth the same variables play
  // different head roles.
  EXPECT_EQ(VariableNames(cases[0].q1), std::vector<std::string>({"V_e#dept", "V_e#id"}));
  EXPECT_EQ(cases[0].q1.head(), cases[0].q2.head());
  EXPECT_EQ(cases[3].q1.body(), cases[3].q2.body());
  CheckAgainstOracle(cases, catalog.sigma, catalog.schema);
}

TEST(SharedNames, DatalogPairsWithIdenticalNamesAgreeWithTheOracle) {
  Schema schema;
  schema.Relation("e", 2);
  CheckAgainstOracle(
      {
          {Q("Q(X, Y) :- e(X, Y)."), Q("Q(Y, X) :- e(Y, X)."), true, true, true},
          {Q("Q(X, Y) :- e(X, Y)."), Q("Q(X, Y) :- e(Y, X)."), false, false, false},
          {Q("Q(X) :- e(X, Y), e(Y, Z)."), Q("Q(Y) :- e(Y, Z), e(Z, X)."), true, true,
           true},
          {Q("Q(X) :- e(X, Y), e(X, Z)."), Q("Q(X) :- e(X, Z)."), true, false, false},
          {Q("Q(X) :- e(X, Y), e(Y, X)."), Q("Q(Y) :- e(Y, X), e(X, X)."), false, false,
           false},
      },
      {}, schema);

  // Under a symmetric e, swapping the columns is invisible to S and BS
  // (the full tgd is a sound step under both) but not to B, where a
  // Σ-satisfying bag may hold e(1, 2) twice and e(2, 1) once.
  CheckAgainstOracle(
      {{Q("Q(X, Y) :- e(X, Y)."), Q("Q(X, Y) :- e(Y, X)."), true, false, true}},
      testing::Sigma({"e(X, Y) -> e(Y, X)."}), schema);
}

TEST(SharedNames, TranslatedNamesAreInjectiveInAliasAndColumn) {
  // With "V_<alias>_<col>" both columns below would be V_a_b_c, turning the
  // cross product into a join.
  const sql::Catalog catalog = Unwrap(sql::CatalogFromScript(R"(
    CREATE TABLE r (c INT);
    CREATE TABLE s (b_c INT);
  )"));
  ConjunctiveQuery cross =
      TranslateCq("SELECT a_b.c, a.b_c FROM r AS a_b, s AS a", catalog, "Q1");
  EXPECT_EQ(cross.ToString(), "Q1(V_a_b#c, V_a#b_c) :- r(V_a_b#c), s(V_a#b_c).");
  // The rendered query is Datalog: it parses back to itself.
  EXPECT_EQ(Q(cross.ToString()).ToString(), cross.ToString());
  // The oracle agrees: a cross product, not a join.
  CheckAgainstOracle({{cross, Q("Q(X, Y) :- r(X), s(Y)."), true, true, true},
                      {cross, Q("Q(X, X) :- r(X), s(X)."), false, false, false}},
                     catalog.sigma, catalog.schema);
}

std::string CheckSignature(const std::string& q1, const std::string& q2) {
  service::Request request = Unwrap(service::ParseRequest(
      R"({"cmd":"check","q1":")" + q1 + R"(","q2":")" + q2 + R"(","semantics":"set"})"));
  return service::CanonicalRequestSignature(request.cmd, request.body);
}

TEST(TermOrder, KeysDoNotDependOnInternOrder) {
  // Term order is intern order. Intern the names of q1 in one order and
  // those of its renaming q2 in the opposite one, before either is parsed.
  const std::vector<std::string> names1 = {"TermOrderA1", "TermOrderB1", "TermOrderC1"};
  const std::vector<std::string> names2 = {"TermOrderA2", "TermOrderB2", "TermOrderC2"};
  Term a1 = Term::Var(names1[0]);
  Term b1 = Term::Var(names1[1]);
  Term c1 = Term::Var(names1[2]);
  Term c2 = Term::Var(names2[2]);
  Term b2 = Term::Var(names2[1]);
  Term a2 = Term::Var(names2[0]);
  ASSERT_TRUE(a1 < b1 && b1 < c1);
  ASSERT_TRUE(c2 < b2 && b2 < a2);

  auto render = [](const std::vector<std::string>& n) {
    const std::string& a = n[0];
    const std::string& b = n[1];
    const std::string& c = n[2];
    return "Q(" + a + ") :- e(" + a + ", " + b + "), e(" + a + ", " + c + "), e(" + b +
           ", " + c + "), f(" + c + ", 3).";
  };
  const std::string text1 = render(names1);
  const std::string text2 = render(names2);
  ConjunctiveQuery q1 = Q(text1);
  ConjunctiveQuery q2 = Q(text2);

  EXPECT_EQ(CanonicalQueryKey(q1), CanonicalQueryKey(q2));

  const std::string other = "Q(X) :- e(X, X).";
  EXPECT_EQ(CheckSignature(text1, other), CheckSignature(text2, other));
  EXPECT_EQ(CheckSignature(other, text1), CheckSignature(text2, other));

  Schema schema;
  schema.Relation("e", 2).Relation("f", 2).Relation("g", 1);
  cache::SemanticCache cache(testing::Sigma({"f(X, Y) -> g(X)."}), schema);
  EXPECT_EQ(cache.BucketKey(q1), cache.BucketKey(q2));
}

}  // namespace
}  // namespace sqleq
