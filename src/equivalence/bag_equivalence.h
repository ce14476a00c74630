// Bag equivalence of CQ queries in the absence of dependencies:
//   * Theorem 2.1(1) [Chaudhuri–Vardi]: Q ≡B Q′ iff Q and Q′ are isomorphic.
//   * Theorem 4.2 (this paper): when some relations are set valued in all
//     instances, Q1 ≡B Q2 modulo those set-enforcing constraints iff the
//     queries are isomorphic after dropping duplicate subgoals over the
//     set-valued relations.
#ifndef SQLEQ_EQUIVALENCE_BAG_EQUIVALENCE_H_
#define SQLEQ_EQUIVALENCE_BAG_EQUIVALENCE_H_

#include "ir/query.h"
#include "ir/schema.h"

namespace sqleq {

/// Theorem 2.1(1): Q1 ≡B Q2 iff they are isomorphic. Σ = ∅ only; under a Σ,
/// decide with EquivalenceEngine (equivalence/engine.h).
bool BagEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// Theorem 4.2: bag equivalence on all instances satisfying only the
/// set-enforcing dependencies of `schema` (its set_valued flags).
bool BagEquivalentModuloSetRelations(const ConjunctiveQuery& q1,
                                     const ConjunctiveQuery& q2, const Schema& schema);

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_BAG_EQUIVALENCE_H_
