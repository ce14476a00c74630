#include "equivalence/containment.h"

#include "chase/homomorphism.h"

namespace sqleq {

bool SetContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  // q1 and q2 may share variable names: the mapping search binds q2's
  // variables and never re-reads a bound value as a q2 variable.
  return ContainmentMappingExists(q2, q1);
}

bool SetEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return SetContained(q1, q2) && SetContained(q2, q1);
}

}  // namespace sqleq
