#include "chase/set_chase.h"

#include <algorithm>

#include "chase/chase_internal.h"
#include "chase/checkpoint.h"
#include "chase/sigma_plan.h"

namespace sqleq {

Result<ChaseOutcome> SetChase(const ConjunctiveQuery& q, const DependencySet& sigma,
                              const ChaseRuntime& runtime) {
  // Per-call adapter: compile a throwaway plan. Callers with a fixed Σ
  // should hold a ChasePlan instead and pay this once.
  SQLEQ_RETURN_IF_ERROR(ReserveFreshNames(q));
  SigmaPlan plan = SigmaPlan::Compile(sigma);
  return chase_internal::RunChase(q, sigma, plan, Semantics::kSet, Schema(), runtime,
                                  /*sigma_terminates=*/false);
}

std::vector<std::string> RenderTrace(const ConjunctiveQuery& result,
                                     const std::vector<ChaseStepRecord>& trace) {
  std::vector<std::string> rendered(trace.size());
  // `state` is the query after step i; walking backward, a tgd step is
  // undone by dropping the atoms it appended (they are the body's tail) and
  // an egd step by its `before` snapshot. A failing step changes nothing.
  ConjunctiveQuery state = result;
  for (size_t i = trace.size(); i-- > 0;) {
    const ChaseStepRecord& step = trace[i];
    if (step.failure()) {
      rendered[i] = "FAIL: " + step.from.ToString() + " = " + step.to.ToString();
      continue;
    }
    rendered[i] = state.ToString();
    if (step.is_tgd) {
      std::vector<Atom> body = state.body();
      body.resize(body.size() - std::min(body.size(), step.added.size()));
      state = state.WithBody(std::move(body));
    } else {
      state = *step.before;
    }
  }
  return rendered;
}

Result<bool> SetChaseTerminates(const ConjunctiveQuery& q, const DependencySet& sigma,
                                const ResourceBudget& budget) {
  ChaseRuntime runtime;
  runtime.budget = budget;
  Result<ChaseOutcome> r = SetChase(q, sigma, runtime);
  if (r.ok()) return true;
  if (r.status().code() == StatusCode::kResourceExhausted) return false;
  return r.status();
}

}  // namespace sqleq
