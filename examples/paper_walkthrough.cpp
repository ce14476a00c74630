// Walkthrough of the paper's worked examples, printed as a narrative: run
// this to see every §4–§5 phenomenon on the original fixtures — unsound
// naive chase, regularization, assignment-fixing, sound chase results,
// Theorem 4.2, and the Max-Σ-Subset algorithms.
#include <cstdio>

#include "chase/assignment_fixing.h"
#include "chase/chase_step.h"
#include "chase/max_subset.h"
#include "chase/sound_chase.h"
#include "constraints/regularize.h"
#include "db/eval.h"
#include "db/satisfaction.h"
#include "equivalence/bag_equivalence.h"
#include "equivalence/engine.h"
#include "ir/parser.h"

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

void Section(const char* title) { std::printf("\n=== %s ===\n", title); }

}  // namespace

int main() {
  using namespace sqleq;

  Schema schema;
  schema.Relation("p", 2)
      .Relation("r", 1)
      .Relation("s", 2, /*set_valued=*/true)
      .Relation("t", 3, /*set_valued=*/true)
      .Relation("u", 2);
  DependencySet sigma = Unwrap(ParseSigma({
      "p(X, Y) -> s(X, Z), t(X, V, W).",
      "p(X, Y) -> t(X, Y, W).",
      "p(X, Y) -> r(X).",
      "p(X, Y) -> u(X, Z), t(X, Y, W).",
      "s(X, Y), s(X, Z) -> Y = Z.",
      "t(X, Y, W1), t(X, Y, W2) -> W1 = W2.",
  }));
  ConjunctiveQuery q4 = Unwrap(ParseQuery("Q4(X) :- p(X, Y)."));

  Section("Example 4.1: the three chase results of Q4");
  for (Semantics sem : {Semantics::kSet, Semantics::kBagSet, Semantics::kBag}) {
    ChaseOutcome out = Unwrap(SoundChase(q4, sigma, sem, schema));
    std::printf("  (Q4)Sigma,%-2s = %s\n", SemanticsToString(sem),
                out.result.ToString().c_str());
  }

  Section("Example 4.1: the counterexample database");
  Database d(schema);
  d.Add("p", {1, 2}).Add("r", {1}).Add("s", {1, 3}).Add("t", {1, 2, 4});
  d.Add("u", {1, 5}).Add("u", {1, 6});
  ConjunctiveQuery q1 =
      Unwrap(ParseQuery("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U)."));
  std::printf("  D |= Sigma: %s\n",
              Unwrap(Satisfies(d, sigma)) ? "yes" : "no");
  std::printf("  Q4(D,B) = %s   Q1(D,B) = %s  -> Q1 and Q4 differ under B\n",
              Unwrap(Evaluate(q4, d, Semantics::kBag)).ToString().c_str(),
              Unwrap(Evaluate(q1, d, Semantics::kBag)).ToString().c_str());

  Section("Section 4.2.1: regularization of sigma1 and sigma4");
  DependencySet regular = RegularizeSigma(sigma);
  std::printf("%s", SigmaToString(regular).c_str());

  Section("Examples 4.2/4.3: assignment-fixing is dependency- and query-sensitive");
  {
    DependencySet s42 = Unwrap(ParseSigma({
        "p(X, Y) -> r(X, Z), s(Z, W).",
        "r(X, Y), r(X, Z) -> Y = Z.",
        "r(X, Y), s(Y, T), r(X, Z), s(Z, W) -> T = W.",
    }));
    ConjunctiveQuery q = Unwrap(ParseQuery("Q(X) :- p(X, Y)."));
    std::printf("  sigma1 assignment-fixing w.r.t. Q(X):-p(X,Y)?  %s\n",
                Unwrap(IsAssignmentFixingForQuery(q, s42[0].tgd(), s42)) ? "yes"
                                                                          : "no");
    DependencySet s43 = Unwrap(ParseSigma({
        "p(X, Y) -> s(X, T).",
        "p(X, Y), r(A, X), s(X, T) -> X = T.",
    }));
    ConjunctiveQuery qp = Unwrap(ParseQuery("Qp(X) :- p(X, Y), r(A, X)."));
    std::printf("  Example 5.1 flavour: same tgd, fixing for Q'? %s; for Q? %s\n",
                Unwrap(IsAssignmentFixingForQuery(qp, s43[0].tgd(), s43)) ? "yes"
                                                                          : "no",
                Unwrap(IsAssignmentFixingForQuery(q, s43[0].tgd(), s43)) ? "yes"
                                                                          : "no");
  }

  Section("Example 4.9 / Theorem 4.2: duplicate subgoals over set-valued S");
  {
    ConjunctiveQuery q3 =
        Unwrap(ParseQuery("Q3(X) :- p(X, Y), t(X, Y, W), s(X, Z)."));
    ConjunctiveQuery q5 =
        Unwrap(ParseQuery("Q5(X) :- p(X, Y), t(X, Y, W), s(X, Z), s(X, Z)."));
    std::printf("  Thm 2.1 (plain bag equivalence):      %s\n",
                BagEquivalent(q3, q5) ? "equivalent" : "NOT equivalent");
    std::printf("  Thm 4.2 (modulo set-valued S):        %s\n",
                BagEquivalentModuloSetRelations(q3, q5, schema) ? "equivalent"
                                                                : "NOT equivalent");
  }

  Section("Section 5.3: Max-Bag-Sigma-Subset and Max-Bag-Set-Sigma-Subset");
  {
    MaxSubsetResult b = Unwrap(MaxBagSigmaSubset(q4, sigma, schema));
    MaxSubsetResult bs = Unwrap(MaxBagSetSigmaSubset(q4, sigma, schema));
    std::printf("  SigmaMaxB(Q4)  keeps %zu of %zu:\n%s",
                b.max_subset.size(), sigma.size(),
                SigmaToString(b.max_subset).c_str());
    std::printf("  SigmaMaxBS(Q4) keeps %zu of %zu (sigma3 returns under BS)\n",
                bs.max_subset.size(), sigma.size());
  }

  Section("Theorems 6.1/6.2: the equivalence tests");
  {
    ConjunctiveQuery q3 =
        Unwrap(ParseQuery("Q3(X) :- p(X, Y), t(X, Y, W), s(X, Z)."));
    ConjunctiveQuery q2 =
        Unwrap(ParseQuery("Q2(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X)."));
    std::printf("  Q3 ==Sigma,B  Q4: %s\n",
                Unwrap(Equivalent(q3, q4, sigma, Semantics::kBag, schema)) ? "yes" : "no");
    std::printf("  Q2 ==Sigma,BS Q4: %s\n",
                Unwrap(Equivalent(q2, q4, sigma, Semantics::kBagSet, schema)) ? "yes" : "no");
    std::printf("  Q2 ==Sigma,B  Q4: %s  (r is bag valued)\n",
                Unwrap(Equivalent(q2, q4, sigma, Semantics::kBag, schema)) ? "yes" : "no");
  }
  return 0;
}
