// Shared helpers for the sqleq test suite: unwrap-or-fail, paper fixtures,
// and random query/database generators used by the property tests.
#ifndef SQLEQ_TESTS_TEST_UTIL_H_
#define SQLEQ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "constraints/dependency.h"
#include "db/database.h"
#include "equivalence/engine.h"
#include "ir/parser.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/rng.h"
#include "util/status.h"

namespace sqleq {
namespace testing {

/// Unwraps a Result<T>, failing the test with the status message otherwise.
template <typename T>
T Unwrap(Result<T> r, const char* what = "Result") {
  EXPECT_TRUE(r.ok()) << what << ": " << r.status().ToString();
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

/// Parses a query, failing the test on error.
inline ConjunctiveQuery Q(std::string_view text) {
  return Unwrap(ParseQuery(text), "ParseQuery");
}

/// Parses an aggregate query, failing the test on error.
inline AggregateQuery AQ(std::string_view text) {
  return Unwrap(ParseAggregateQuery(text), "ParseAggregateQuery");
}

/// Parses a Σ, failing the test on error.
inline DependencySet Sigma(const std::vector<std::string>& statements) {
  return Unwrap(ParseSigma(statements), "ParseSigma");
}

/// Q1 ≡Σ,X Q2 through a per-call EquivalenceEngine — the test-suite
/// replacement for the deprecated per-semantics wrappers.
inline Result<bool> EngineEquivalent(const ConjunctiveQuery& q1,
                                     const ConjunctiveQuery& q2,
                                     const DependencySet& sigma,
                                     Semantics semantics = Semantics::kSet,
                                     const Schema& schema = {},
                                     const ResourceBudget& budget = {}) {
  EquivalenceEngine engine;
  EquivRequest request{semantics, sigma, schema};
  request.context.budget = budget;
  SQLEQ_ASSIGN_OR_RETURN(EquivVerdict verdict,
                         engine.Equivalent(q1, q2, request));
  return VerdictToBool(verdict);
}

/// The schema of Example 4.1: D = {P, R, S, T, U} with S and T set valued.
inline Schema Example41Schema() {
  Schema schema;
  schema.Relation("p", 2)
      .Relation("r", 1)
      .Relation("s", 2, /*set_valued=*/true)
      .Relation("t", 3, /*set_valued=*/true)
      .Relation("u", 2);
  return schema;
}

/// Σ of Example 4.1: tgds σ1–σ4 plus key egds σ7 (key of S) and σ8 (key of
/// T). The set-enforcing constraints σ5/σ6 are modelled by the schema's
/// set_valued flags (see App. C and src/constraints/tuple_id).
inline DependencySet Example41Sigma() {
  return Sigma({
      "p(X, Y) -> s(X, Z), t(X, V, W).",
      "p(X, Y) -> t(X, Y, W).",
      "p(X, Y) -> r(X).",
      "p(X, Y) -> u(X, Z), t(X, Y, W).",
      "s(X, Y), s(X, Z) -> Y = Z.",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  });
}

/// Chain query e(X0,X1), ..., e(X{n-1},Xn) with head (X0, Xn).
inline ConjunctiveQuery ChainQuery(int n, const std::string& var_prefix = "X") {
  std::vector<Atom> body;
  for (int i = 0; i < n; ++i) {
    body.emplace_back("e",
                      std::vector<Term>{Term::Var(var_prefix + std::to_string(i)),
                                        Term::Var(var_prefix + std::to_string(i + 1))});
  }
  return ConjunctiveQuery::Make(
      "Chain", {Term::Var(var_prefix + "0"), Term::Var(var_prefix + std::to_string(n))},
      std::move(body));
}

/// A random CQ over `schema`: `n_atoms` atoms drawn uniformly, arguments
/// drawn from a pool of `n_vars` variables and small constants; the head
/// projects a random nonempty subset of the used variables.
ConjunctiveQuery RandomQuery(const Schema& schema, int n_atoms, int n_vars, Rng* rng);

/// A random instance of `schema` with ~`n_tuples` tuples per relation over
/// an integer domain of size `domain`; multiplicities up to `max_mult` for
/// relations not flagged set valued.
Database RandomDatabase(const Schema& schema, int n_tuples, int domain, int max_mult,
                        Rng* rng);

/// Repairs `db` to satisfy Σ by a bounded oblivious fix-point (inserting
/// tgd-required tuples with fresh values, merging egd-equated constants is
/// NOT attempted — egd-violating databases are discarded by returning
/// false). Returns true when db |= Σ on exit.
bool RepairDatabase(Database* db, const DependencySet& sigma, int max_rounds);

}  // namespace testing
}  // namespace sqleq

#endif  // SQLEQ_TESTS_TEST_UTIL_H_
