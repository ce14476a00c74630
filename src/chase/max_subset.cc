#include "chase/max_subset.h"

#include "chase/sound_chase.h"

namespace sqleq {

Result<MaxSubsetResult> MaxSigmaSubset(const ConjunctiveQuery& q,
                                       const DependencySet& sigma, Semantics semantics,
                                       const Schema& schema,
                                       const ResourceBudget& budget) {
  if (semantics == Semantics::kSet) {
    return Status::InvalidArgument(
        "MaxSigmaSubset targets bag/bag-set semantics; under set semantics the "
        "terminal chase result satisfies all of Σ");
  }
  // Line 1: Qn := soundChase(X, Q, Σ).
  ChaseRuntime runtime;
  runtime.budget = budget;
  SQLEQ_ASSIGN_OR_RETURN(ChaseOutcome chased,
                         SoundChase(q, sigma, semantics, schema, runtime));
  if (chased.failed) {
    return Status::FailedPrecondition(
        "sound chase failed (egd equated distinct constants); Q is unsatisfiable "
        "under Σ");
  }
  MaxSubsetResult out{chased.result, {}};
  // Lines 2–5: drop every σ still applicable to Qn. Sound chase ran to
  // termination, so an applicable σ admits no sound step — it is unsoundly
  // applicable, and D(Qn) |=/ σ (Appendix I state analysis).
  for (const Dependency& dep : sigma) {
    SQLEQ_ASSIGN_OR_RETURN(
        StepAvailability availability,
        ClassifyStep(chased.result, dep, sigma, semantics, schema, budget));
    if (availability == StepAvailability::kNotApplicable) {
      out.max_subset.push_back(dep);
    }
  }
  return out;
}

Result<MaxSubsetResult> MaxBagSigmaSubset(const ConjunctiveQuery& q,
                                          const DependencySet& sigma,
                                          const Schema& schema,
                                          const ResourceBudget& budget) {
  return MaxSigmaSubset(q, sigma, Semantics::kBag, schema, budget);
}

Result<MaxSubsetResult> MaxBagSetSigmaSubset(const ConjunctiveQuery& q,
                                             const DependencySet& sigma,
                                             const Schema& schema,
                                             const ResourceBudget& budget) {
  return MaxSigmaSubset(q, sigma, Semantics::kBagSet, schema, budget);
}

}  // namespace sqleq
