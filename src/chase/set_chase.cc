#include "chase/set_chase.h"

#include "chase/chase_internal.h"
#include "chase/sigma_plan.h"

namespace sqleq {

Result<ChaseOutcome> SetChase(const ConjunctiveQuery& q, const DependencySet& sigma,
                              const ChaseOptions& options,
                              const ChaseRuntime& runtime) {
  // Per-call adapter: compile a throwaway plan. Callers with a fixed Σ
  // should hold a ChasePlan instead and pay this once.
  SigmaPlan plan = SigmaPlan::Compile(sigma);
  return chase_internal::RunChase(q, sigma, plan, Semantics::kSet, Schema(), options,
                                  runtime);
}

Result<bool> SetChaseTerminates(const ConjunctiveQuery& q, const DependencySet& sigma,
                                const ChaseOptions& options) {
  Result<ChaseOutcome> r = SetChase(q, sigma, options);
  if (r.ok()) return true;
  if (r.status().code() == StatusCode::kResourceExhausted) return false;
  return r.status();
}

}  // namespace sqleq
