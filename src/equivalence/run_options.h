// RunOptions — the per-call base every long-running entry point shares.
//
// EquivRequest (equivalence/engine.h), CandBOptions (reformulation/candb.h),
// and RewriteOptions (reformulation/views.h) inherit this base, so the
// fields compose identically everywhere:
//
//   * `context` — the per-call environment (util/engine_context.h):
//     ResourceBudget plus optional metrics, trace, fault-injection, and
//     cancellation facilities. Its budget is the only budget of the call's
//     chases: they run under a ChaseRuntime built from it.
//   * `analyze` — Σ-lint pre-flight (src/analysis): inputs are analyzed
//     before any chase runs and kError findings are rejected as
//     FailedPrecondition instead of burning the chase budget. Set
//     analyze.enabled = false to skip, warnings_as_errors = true to refuse
//     what the engines would merely auto-correct. ChaseContext::Preflight
//     (equivalence/engine.h) runs it: the Σ half is analyzed once per
//     chase context and replayed, so every call gates and counts as a
//     fresh analysis would while only its queries are analyzed.
//
// RewriteOptions IS-A CandBOptions (no `.candb` path segment). The `resume`
// checkpoint pointers stay on the concrete structs — their types differ per
// entry point (ChaseCheckpoint vs CandBCheckpoint).
#ifndef SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_
#define SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_

#include "analysis/analyzer.h"
#include "util/engine_context.h"

namespace sqleq {

struct RunOptions {
  EngineContext context;
  AnalyzeOptions analyze = AnalyzeOptions::Preflight();
};

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_
