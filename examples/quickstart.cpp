// Quickstart: decide equivalence of two SQL-style CQ queries under
// dependencies, across all three evaluation semantics, and minimize one of
// them with the C&B family.
//
// Scenario (Example 4.1 of the paper): schema {P, R, S, T, U} with tgds
// derived from P, keys on S and T, and S, T set valued. Query Q4 selects the
// first column of P; Q1 joins in four more subgoals. Under set semantics the
// two are equivalent given Σ; under bag/bag-set semantics they are NOT —
// this asymmetry is the paper's whole point.
#include <cstdio>

#include "chase/sound_chase.h"
#include "db/eval.h"
#include "equivalence/engine.h"
#include "ir/parser.h"
#include "reformulation/bag_candb.h"

namespace {

void Check(const sqleq::Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(sqleq::Result<T> r) {
  Check(r.status());
  return std::move(r).value();
}

/// Q1 ≡Σ,X Q2 through a throwaway EquivalenceEngine (replaces the
/// deprecated per-semantics wrappers).
sqleq::Result<bool> Equivalent(const sqleq::ConjunctiveQuery& q1,
                               const sqleq::ConjunctiveQuery& q2,
                               const sqleq::DependencySet& sigma,
                               sqleq::Semantics semantics,
                               const sqleq::Schema& schema) {
  sqleq::EquivalenceEngine engine;
  SQLEQ_ASSIGN_OR_RETURN(
      sqleq::EquivVerdict verdict,
      engine.Equivalent(q1, q2, sqleq::EquivRequest{semantics, sigma, schema}));
  return sqleq::VerdictToBool(verdict);
}

}  // namespace

int main() {
  using namespace sqleq;

  // --- Schema: S and T are set valued in all instances (App. C egds). ---
  Schema schema;
  schema.Relation("p", 2)
      .Relation("r", 1)
      .Relation("s", 2, /*set_valued=*/true)
      .Relation("t", 3, /*set_valued=*/true)
      .Relation("u", 2);

  // --- Σ: four tgds + two keys (Example 4.1). ---
  DependencySet sigma = Unwrap(ParseSigma({
      "p(X, Y) -> s(X, Z), t(X, V, W).",
      "p(X, Y) -> t(X, Y, W).",
      "p(X, Y) -> r(X).",
      "p(X, Y) -> u(X, Z), t(X, Y, W).",
      "s(X, Y), s(X, Z) -> Y = Z.",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  }));

  ConjunctiveQuery q1 = Unwrap(
      ParseQuery("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U)."));
  ConjunctiveQuery q4 = Unwrap(ParseQuery("Q4(X) :- p(X, Y)."));

  std::printf("Q1: %s\n", q1.ToString().c_str());
  std::printf("Q4: %s\n", q4.ToString().c_str());
  std::printf("Sigma:\n%s\n", SigmaToString(sigma).c_str());

  // --- Equivalence under each semantics. ---
  for (Semantics sem : {Semantics::kSet, Semantics::kBagSet, Semantics::kBag}) {
    bool eq = Unwrap(Equivalent(q1, q4, sigma, sem, schema));
    std::printf("Q1 ==Sigma,%-2s Q4 ?  %s\n", SemanticsToString(sem),
                eq ? "yes" : "no");
  }

  // --- Reformulate Q1 with the C&B family. ---
  std::printf("\nSigma-minimal reformulations of Q1:\n");
  struct Row {
    const char* name;
    Semantics sem;
  };
  for (Row row : {Row{"C&B (set)", Semantics::kSet},
                  Row{"Bag-Set-C&B", Semantics::kBagSet},
                  Row{"Bag-C&B", Semantics::kBag}}) {
    CandBResult result =
        Unwrap(ChaseAndBackchase(q1, sigma, row.sem, schema));
    std::printf("  %-12s universal plan has %zu atoms; outputs:\n", row.name,
                result.universal_plan.body().size());
    for (const ConjunctiveQuery& q : result.reformulations) {
      std::printf("    %s\n", q.ToString().c_str());
    }
  }

  // --- Witness the bag inequivalence with the evaluation oracle. ---
  Database d(schema);
  d.Add("p", {1, 2});
  d.Add("r", {1});
  d.Add("s", {1, 3});
  d.Add("t", {1, 2, 4});
  d.Add("u", {1, 5});
  d.Add("u", {1, 6});
  Bag a1 = Unwrap(Evaluate(q1, d, Semantics::kBag));
  Bag a4 = Unwrap(Evaluate(q4, d, Semantics::kBag));
  std::printf("\nCounterexample database (satisfies Sigma):\n%s", d.ToString().c_str());
  std::printf("Q1(D,B) = %s\nQ4(D,B) = %s\n", a1.ToString().c_str(),
              a4.ToString().c_str());
  return 0;
}
