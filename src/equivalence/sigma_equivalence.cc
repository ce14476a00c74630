#include "equivalence/sigma_equivalence.h"

#include "chase/sound_chase.h"
#include "equivalence/containment.h"

namespace sqleq {

Result<bool> SetContainedUnder(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                               const DependencySet& sigma,
                               const ResourceBudget& budget) {
  ChaseRuntime runtime;
  runtime.budget = budget;
  SQLEQ_ASSIGN_OR_RETURN(ChaseOutcome c1, SetChase(q1, sigma, runtime));
  if (c1.failed) return true;  // Q1 is empty on every D |= Σ.
  return SetContained(c1.result, q2);
}

}  // namespace sqleq
