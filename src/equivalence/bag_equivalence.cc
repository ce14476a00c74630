#include "equivalence/bag_equivalence.h"

#include "chase/sound_chase.h"
#include "equivalence/engine.h"
#include "equivalence/isomorphism.h"

namespace sqleq {

bool BagEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  // Routed through the facade (Σ = ∅, so the chase is a no-op and the test
  // degenerates to Theorem 2.1(1)'s isomorphism check).
  EquivalenceEngine engine;
  Result<EquivVerdict> verdict =
      engine.Equivalent(q1, q2, EquivRequest{Semantics::kBag, {}, Schema()});
  return verdict.ok() && verdict->equivalent;
}

bool BagEquivalentModuloSetRelations(const ConjunctiveQuery& q1,
                                     const ConjunctiveQuery& q2, const Schema& schema) {
  return AreIsomorphic(NormalizeForBag(q1, schema), NormalizeForBag(q2, schema));
}

}  // namespace sqleq
