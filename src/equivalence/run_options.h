// RunOptions — the per-call base every long-running entry point shares.
//
// EquivRequest (equivalence/engine.h), CandBOptions (reformulation/candb.h),
// and RewriteOptions (reformulation/views.h) used to each carry their own
// copies of the environment/strategy/pre-flight trio; they now inherit this
// base, so the fields compose identically everywhere:
//
//   * `context` — the per-call environment (util/engine_context.h):
//     ResourceBudget plus optional metrics, trace, fault-injection, and
//     cancellation facilities. The embedded `chase.budget` is overwritten by
//     `context.budget` for the chases a call runs, so there is exactly one
//     budget knob per call.
//   * `chase`   — chase configuration (chase/set_chase.h): the budget,
//     overwritten as above.
//   * `analyze` — Σ-lint pre-flight (src/analysis): inputs are analyzed
//     before any chase runs and kError findings are rejected as
//     FailedPrecondition instead of burning the chase budget. Set
//     analyze.enabled = false to skip, warnings_as_errors = true to refuse
//     what the engines would merely auto-correct.
//
// Migration mapping (one release of deprecation notice, now settled):
//   EquivRequest::{context,chase,analyze}   -> inherited, same names
//   CandBOptions::{context,chase,analyze}   -> inherited, same names
//   RewriteOptions::candb.<field>           -> RewriteOptions::<field>
//     (RewriteOptions now IS-A CandBOptions instead of wrapping one; drop
//     the `.candb` path segment at every use site.)
// The `resume` checkpoint pointers stay on the concrete structs — their
// types differ per entry point (ChaseCheckpoint vs CandBCheckpoint).
#ifndef SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_
#define SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_

#include "analysis/analyzer.h"
#include "chase/set_chase.h"
#include "util/engine_context.h"

namespace sqleq {

struct RunOptions {
  EngineContext context;
  ChaseOptions chase;
  AnalyzeOptions analyze = AnalyzeOptions::Preflight();
};

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_
