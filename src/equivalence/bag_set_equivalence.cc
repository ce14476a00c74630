#include "equivalence/bag_set_equivalence.h"

#include "equivalence/isomorphism.h"

namespace sqleq {

bool BagSetEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return AreIsomorphic(q1.CanonicalRepresentation(), q2.CanonicalRepresentation());
}

}  // namespace sqleq
