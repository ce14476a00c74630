// Explainable equivalence: the same decisions as sigma_equivalence.h, but
// returning the full evidence — chase traces for both queries, the terminal
// chase results, and the isomorphism / containment-mapping witnesses — as a
// structured object with a human-readable rendering. Built for debugging
// "why are these two SQL queries (not) equivalent under my constraints?".
#ifndef SQLEQ_EQUIVALENCE_EXPLAIN_H_
#define SQLEQ_EQUIVALENCE_EXPLAIN_H_

#include <optional>
#include <string>

#include "chase/set_chase.h"
#include "constraints/dependency.h"
#include "db/eval.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/status.h"

namespace sqleq {

/// Evidence for one equivalence decision.
struct EquivalenceExplanation {
  Semantics semantics = Semantics::kSet;
  bool equivalent = false;

  /// Sound chase evidence for each input.
  ConjunctiveQuery chased_q1;
  ConjunctiveQuery chased_q2;
  std::vector<ChaseStepRecord> trace_q1;
  std::vector<ChaseStepRecord> trace_q2;
  bool q1_failed = false;
  bool q2_failed = false;

  /// Present when equivalent: the witness map between the (normalized)
  /// chase results — an isomorphism under B/BS, the Q2→Q1 containment
  /// mapping under S.
  std::optional<TermMap> witness_forward;
  /// Set semantics only: the Q1→Q2 direction.
  std::optional<TermMap> witness_backward;

  /// When NOT equivalent and the semantics is B or BS, a separating
  /// counterexample database built from the canonical database of one chase
  /// result (amplified for B per Lemma D.1's construction), together with
  /// the two differing answers.
  std::optional<std::string> counterexample;

  /// Multi-line human-readable rendering of all of the above.
  std::string ToString() const;
};

/// Decides Q1 ≡Σ,X Q2 and assembles the evidence. Same preconditions as
/// EquivalenceEngine::Equivalent (set chase must terminate within
/// `budget`).
Result<EquivalenceExplanation> ExplainEquivalence(const ConjunctiveQuery& q1,
                                                  const ConjunctiveQuery& q2,
                                                  const DependencySet& sigma,
                                                  Semantics semantics,
                                                  const Schema& schema,
                                                  const ResourceBudget& budget = {});

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_EXPLAIN_H_
