#include "reformulation/reformulate.h"

#include <utility>

#include "equivalence/engine.h"

namespace sqleq {

Result<CandBResult> RunBackchase(ChaseContext& context, const ConjunctiveQuery& q,
                                 const CandBOptions& options, const char* span_name,
                                 std::span<const ConjunctiveQuery* const> preflight,
                                 LatticeBuilder build) {
  const EngineContext& ctx = options.context;
  TraceSpan call_span(ctx.trace, span_name);
  // The context's pre-flight has the Σ half analyzed already, its memo's
  // compiled plan serves the universal-plan chase and every candidate, and
  // the memo's entries outlive the call. One budget governs the whole call,
  // passed per run.
  SQLEQ_RETURN_IF_ERROR(context.Preflight(options, preflight));
  ChaseMemo& memo = context.memo();
  const ChaseRuntime runtime(ctx);

  const CandBCheckpoint* resume = options.resume;
  const bool resume_backchase =
      resume != nullptr && resume->phase == CandBCheckpoint::kBackchasePhase &&
      resume->universal_plan.has_value() && resume->backchase.has_value();

  // ---- Chase phase: universal plan U = (Q)Σ,X. ----
  CandBResult out{q, {}, 0, 0, 0, true, std::nullopt, std::nullopt};
  if (resume_backchase) {
    out.universal_plan = *resume->universal_plan;
  } else {
    ChaseRuntime chase_runtime = runtime;
    if (resume != nullptr && resume->phase == CandBCheckpoint::kChasePhase &&
        resume->chase.has_value()) {
      chase_runtime.resume = &*resume->chase;
    }
    std::optional<ChaseCheckpoint> chase_checkpoint;
    chase_runtime.checkpoint_out = &chase_checkpoint;
    Result<ChaseOutcome> chased = memo.Chase(q, chase_runtime);
    if (!chased.ok()) {
      if (!IsAnytimeStop(chased.status())) return chased.status();
      // The plan does not exist yet: no reformulation can be confirmed.
      // Package what the chase got through as a resumable partial result.
      out.complete = false;
      out.exhaustion = InferExhaustion(chased.status(), "chase");
      CandBCheckpoint cp;
      cp.phase = CandBCheckpoint::kChasePhase;
      cp.chase = std::move(chase_checkpoint);
      out.checkpoint = std::move(cp);
      return out;
    }
    if (chased->failed) {
      return Status::FailedPrecondition(
          "chase failed: Q is unsatisfiable on every instance of Σ");
    }
    out.universal_plan = std::move(chased->result);
  }
  const ConjunctiveQuery& u = out.universal_plan;

  SQLEQ_ASSIGN_OR_RETURN(CandidateLattice lattice, build(u, memo, runtime));
  SweepOutput swept;
  if (!lattice.stopped.ok()) {
    // Cut at the sweep's start — or at the incoming resume point, which is
    // strictly further along.
    BackchaseCheckpoint start =
        resume_backchase ? *resume->backchase : BackchaseCheckpoint{};
    swept.accepted = start.accepted;
    swept.stats = start.stats;
    swept.complete = false;
    swept.exhaustion = InferExhaustion(lattice.stopped, "backchase");
    swept.checkpoint = std::move(start);
  } else {
    // ---- Backchase phase: the candidate lattice, smallest masks first.
    if (resume_backchase) lattice.sweep.resume = &*resume->backchase;
    SQLEQ_ASSIGN_OR_RETURN(swept, SweepBackchaseLattice(lattice.size, ctx, lattice.sweep,
                                                        lattice.evaluate));
  }
  out.reformulations = std::move(swept.accepted);
  out.candidates_examined = swept.stats.candidates_examined;
  out.chase_cache_hits = swept.stats.chase_cache_hits;
  out.chase_cache_misses = swept.stats.chase_cache_misses;
  if (!swept.complete) {
    out.complete = false;
    out.exhaustion = std::move(swept.exhaustion);
    CandBCheckpoint cp;
    cp.phase = CandBCheckpoint::kBackchasePhase;
    cp.universal_plan = u;
    cp.backchase = std::move(swept.checkpoint);
    out.checkpoint = std::move(cp);
  }
  return out;
}

}  // namespace sqleq
