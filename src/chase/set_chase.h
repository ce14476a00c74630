// Set-semantics chase to termination (§2.4): repeatedly apply chase steps
// until the canonical database of the current query satisfies Σ (no step is
// applicable). Terminates for weakly acyclic Σ; a step budget guards
// non-terminating inputs. Every step applies egds before tgds (the
// conventional strategy; chase results are equivalent either way, Thm 5.1 /
// [10]). This header also holds the runtime and outcome types every chase
// entry point shares. SetChase chases exactly the Σ it is given (no
// regularization, no Σ-slicing) through the same step loop and compiled
// kernels as ChasePlan (chase/chase_plan.h).
#ifndef SQLEQ_CHASE_SET_CHASE_H_
#define SQLEQ_CHASE_SET_CHASE_H_

#include <optional>
#include <string>
#include <vector>

#include "constraints/dependency.h"
#include "ir/query.h"
#include "util/engine_context.h"
#include "util/resource_budget.h"
#include "util/status.h"

namespace sqleq {

struct ChaseCheckpoint;

/// The per-call record of a chase run (docs/robustness.md,
/// docs/observability.md): the call's EngineContext — the ResourceBudget
/// whose max_chase_steps and deadline bound the loop, plus the optional
/// metrics, trace, fault and cancellation hooks — and the checkpoint
/// pointers of one run. Nothing else holds a chase budget: a ChasePlan or
/// ChaseMemo is configuration only, so one long-lived plan or memo serves
/// calls with different budgets (cached outcomes are completed chases,
/// hence budget-independent). A default ChaseRuntime has the default budget
/// and is otherwise inert.
struct ChaseRuntime : EngineContext {
  ChaseRuntime() = default;
  /// The call's context, with no resume and no checkpoint capture.
  explicit ChaseRuntime(const EngineContext& context) : EngineContext(context) {}

  /// Resume from this checkpoint (chase/checkpoint.h) instead of starting
  /// cold. Ignored when the checkpoint's phase does not match the loop (a
  /// set-chase loop only accepts kSetChasePhase, and so on).
  const ChaseCheckpoint* resume = nullptr;
  /// When non-null and the run stops on an anytime condition (budget,
  /// deadline, cancellation, injected exhaustion), receives the loop state
  /// for a later resume.
  std::optional<ChaseCheckpoint>* checkpoint_out = nullptr;
};

/// One entry of a chase trace: what the step changed, not the query after
/// it. RenderTrace rebuilds the per-step queries on demand.
struct ChaseStepRecord {
  std::string dep_label;
  bool is_tgd = false;
  /// Tgd step: the atoms the step appended to the body, in order.
  std::vector<Atom> added;
  /// Egd step: `from` was replaced by `to` throughout the query. For the
  /// failing step of a failed chase, the two distinct constants it equated.
  Term from;
  Term to;
  /// Egd step that did not fail: the query before the step. An egd step
  /// rewrites and renormalizes the whole query, so the trace keeps the
  /// state it started from rather than replaying the semantics'
  /// normalization; the failing step has none.
  std::optional<ConjunctiveQuery> before;

  bool failure() const { return !is_tgd && !before.has_value(); }
};

/// Outcome of a chase run.
struct ChaseOutcome {
  ConjunctiveQuery result;
  std::vector<ChaseStepRecord> trace;
  /// True when an egd equated two distinct constants: Q returns the empty
  /// answer on every database satisfying Σ, and `result` is the query at
  /// failure time.
  bool failed = false;
};

/// The query after each step of `trace`, as ConjunctiveQuery::ToString
/// renders it ("FAIL: <from> = <to>" for a failing egd step). `result` must
/// be the query the recording chase ended on (ChaseOutcome::result, or a
/// checkpoint's state); the steps are rebuilt backward from it, so a
/// result that was renamed afterwards renders a trace that mixes both
/// namings.
std::vector<std::string> RenderTrace(const ConjunctiveQuery& result,
                                     const std::vector<ChaseStepRecord>& trace);

/// Computes (Q)Σ,S. Returns ResourceExhausted if `runtime.budget` is
/// exhausted (chase may not terminate for non-weakly-acyclic Σ); the loop
/// state at exhaustion is captured through `runtime.checkpoint_out`, and a
/// matching checkpoint in `runtime.resume` continues a prior run instead of
/// re-firing its steps. Like SoundChase, it first reserves q's "#<n>"
/// names, so no null it mints merges with one of q's variables.
Result<ChaseOutcome> SetChase(const ConjunctiveQuery& q, const DependencySet& sigma,
                              const ChaseRuntime& runtime = {});

/// True iff set chase of `q` under Σ terminates within `budget`.
/// (Undecidable in general; this is the practical proxy the library uses for
/// the paper's "whenever set-chase on the inputs terminates" side
/// conditions.)
Result<bool> SetChaseTerminates(const ConjunctiveQuery& q, const DependencySet& sigma,
                                const ResourceBudget& budget = {});

}  // namespace sqleq

#endif  // SQLEQ_CHASE_SET_CHASE_H_
