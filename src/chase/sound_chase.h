// Sound chase under bag and bag-set semantics (§4.2.3, Theorems 4.1 and
// 4.3): only chase steps that preserve Q ≡Σ,B / ≡Σ,BS are applied.
//
//   * Under B: a tgd step is sound iff it is assignment-fixing AND every
//     subgoal it adds belongs to a relation that is set valued in all
//     instances; egd steps are always sound, and duplicate subgoals may be
//     dropped only for set-valued relations.
//   * Under BS: a tgd step is sound iff it is assignment-fixing; egd steps
//     are always sound and duplicate subgoals are semantically inert.
//
// The result exists, is reached in finite time whenever set chase of Q
// terminates (Prop 5.1), and is unique up to the semantics' equivalence
// (Thm 5.1 / G.1).
//
// sound_chase.cc holds the one chase step loop of the library
// (chase/chase_internal.h), which runs set chase too: under S every
// applicable step is sound.
#ifndef SQLEQ_CHASE_SOUND_CHASE_H_
#define SQLEQ_CHASE_SOUND_CHASE_H_

#include "chase/set_chase.h"
#include "constraints/dependency.h"
#include "db/eval.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/status.h"

namespace sqleq {

/// Drops duplicate body atoms whose relation is set valued in `schema`
/// (sound under B by Thm 4.2); duplicates over bag-valued relations are
/// kept — they carry multiplicity.
ConjunctiveQuery NormalizeForBag(const ConjunctiveQuery& q, const Schema& schema);

/// Computes the sound chase result (Q)Σ,X for X ∈ {S, B, BS}: exactly
/// ChasePlan(sigma, semantics, schema).Run(q, runtime), so Σ is
/// regularized (Prop 4.1 makes this lossless) and Σ-sliced for q per call.
/// `schema` supplies the set-valued flags consulted under kBag
/// (ignored under kSet/kBagSet). Fails with ResourceExhausted when the chase
/// exceeds `runtime.budget`, and, when Σ is not stratified, when the set
/// chase does not terminate within it — the precondition of every theorem
/// this implements, which a stratified Σ guarantees (ChasePlan::
/// sigma_terminates()). `runtime` also carries the per-call anytime
/// hooks (fault sites, cancellation, checkpoint capture/resume — see
/// chase/checkpoint.h); the checkpoint phase distinguishes the set-chase
/// precondition probe from the sound-chase loop proper, so a resume skips
/// whatever already completed. The chase mints no null named like one of
/// q's variables: q's "#<n>" names are reserved first (ReserveFreshNames),
/// and one at or above Term::kFreshReserveLimit fails with InvalidArgument.
Result<ChaseOutcome> SoundChase(const ConjunctiveQuery& q, const DependencySet& sigma,
                                Semantics semantics, const Schema& schema,
                                const ChaseRuntime& runtime = {});

/// How a dependency relates to a query for the purposes of Algorithms 1–2.
enum class StepAvailability {
  kNotApplicable,    ///< no chase step with σ applies — D(Q) |= σ.
  kSoundApplicable,  ///< some applicable step is sound under the semantics.
  kUnsoundOnly,      ///< applicable, but every applicable step is unsound.
};

/// Classifies σ against `q` under `semantics` (Thms 4.1/4.3), with the same
/// admission rules as the chase loop; `budget` bounds the Def 4.3 test
/// chases. Under kSet every applicable step is sound.
Result<StepAvailability> ClassifyStep(const ConjunctiveQuery& q, const Dependency& dep,
                                      const DependencySet& sigma, Semantics semantics,
                                      const Schema& schema,
                                      const ResourceBudget& budget = {});

}  // namespace sqleq

#endif  // SQLEQ_CHASE_SOUND_CHASE_H_
