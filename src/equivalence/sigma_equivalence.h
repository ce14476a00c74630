// Equivalence of CQ queries in the presence of embedded dependencies — the
// paper's headline tests:
//   * Theorem 2.2 (set):     Q ≡Σ,S Q′  iff (Q)Σ,S ≡S (Q′)Σ,S.
//   * Theorem 6.1 (bag):     Q ≡Σ,B Q′  iff (Q)Σ,B ≡B (Q′)Σ,B modulo the
//     set-enforcing dependencies (Thm 4.2 isomorphism test).
//   * Theorem 6.2 (bag-set): Q ≡Σ,BS Q′ iff (Q)Σ,BS ≡BS (Q′)Σ,BS.
// All three are conditioned on termination of set chase on the inputs; the
// call's ResourceBudget::max_chase_steps is the practical proxy.
//
// Equivalence testing lives in equivalence/engine.h's EquivalenceEngine,
// which unifies the call shape, memoizes chases across calls, and returns
// the full evidence (chase traces + witness). The deprecated free-function
// wrappers (EquivalentUnder and friends) that used to sit here behind a
// legacy-API macro have been removed — see docs/compiled_chase.md for the
// migration mapping. SetContainedUnder was never deprecated and remains.
#ifndef SQLEQ_EQUIVALENCE_SIGMA_EQUIVALENCE_H_
#define SQLEQ_EQUIVALENCE_SIGMA_EQUIVALENCE_H_

#include "chase/set_chase.h"
#include "constraints/dependency.h"
#include "db/eval.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/status.h"

namespace sqleq {

/// Q1 ⊑Σ,S Q2: set containment under dependencies, via chase of Q1 and a
/// containment mapping from Q2 (the standard reduction), with `budget`
/// bounding the chase.
Result<bool> SetContainedUnder(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                               const DependencySet& sigma,
                               const ResourceBudget& budget = {});

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_SIGMA_EQUIVALENCE_H_
