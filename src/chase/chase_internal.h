// The chase step loop, shared by the public entry points (ChasePlan, and
// the SetChase/SoundChase adapters over it). Not part of the public
// surface — include chase/chase_plan.h instead.
#ifndef SQLEQ_CHASE_CHASE_INTERNAL_H_
#define SQLEQ_CHASE_CHASE_INTERNAL_H_

#include "chase/set_chase.h"
#include "chase/sigma_plan.h"
#include "chase/sound_chase.h"

namespace sqleq {
namespace chase_internal {

/// The one chase loop: chases `q` with `sigma` to termination under
/// `semantics`. `plan` must be compiled from exactly `sigma` (kernels are
/// positional). The semantics picks how each step normalizes (S and BS:
/// CanonicalRepresentation; B: NormalizeForBag) and which tgd steps are
/// admitted (S: the first applicable h; B and BS: the first h that passes
/// the Thm 4.1/4.3 duplicate and set-valued checks and is assignment-fixing,
/// Def 5.1/4.3). Under B and BS the loop first runs itself under S as the
/// termination probe the theorems presuppose, unless `sigma_terminates`
/// says the set chase terminates on every input (a stratified Σ, Thm H.1
/// and its stratified extension), which makes the probe redundant. The loop
/// takes its limits from `runtime.budget` alone; the nested Def 4.3 test
/// chases get that budget and none of the runtime's hooks.
Result<ChaseOutcome> RunChase(const ConjunctiveQuery& q, const DependencySet& sigma,
                              const SigmaPlan& plan, Semantics semantics,
                              const Schema& schema, const ChaseRuntime& runtime,
                              bool sigma_terminates);

}  // namespace chase_internal
}  // namespace sqleq

#endif  // SQLEQ_CHASE_CHASE_INTERNAL_H_
