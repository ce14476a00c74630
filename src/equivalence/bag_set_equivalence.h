// Bag-set equivalence in the absence of dependencies, Theorem 2.1(2)
// [Chaudhuri–Vardi]: Q ≡BS Q′ iff the canonical representations (duplicate
// atoms removed) are isomorphic.
#ifndef SQLEQ_EQUIVALENCE_BAG_SET_EQUIVALENCE_H_
#define SQLEQ_EQUIVALENCE_BAG_SET_EQUIVALENCE_H_

#include "ir/query.h"

namespace sqleq {

/// Theorem 2.1(2): Q1 ≡BS Q2 iff their canonical representations are
/// isomorphic. Σ = ∅ only; under a Σ, decide with EquivalenceEngine
/// (equivalence/engine.h).
bool BagSetEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_BAG_SET_EQUIVALENCE_H_
