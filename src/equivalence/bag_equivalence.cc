#include "equivalence/bag_equivalence.h"

#include "chase/sound_chase.h"
#include "equivalence/isomorphism.h"

namespace sqleq {

bool BagEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return AreIsomorphic(q1, q2);
}

bool BagEquivalentModuloSetRelations(const ConjunctiveQuery& q1,
                                     const ConjunctiveQuery& q2, const Schema& schema) {
  return AreIsomorphic(NormalizeForBag(q1, schema), NormalizeForBag(q2, schema));
}

}  // namespace sqleq
