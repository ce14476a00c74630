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
//     what the engines would merely auto-correct.
//
// RewriteOptions IS-A CandBOptions (no `.candb` path segment). The `resume`
// checkpoint pointers stay on the concrete structs — their types differ per
// entry point (ChaseCheckpoint vs CandBCheckpoint).
#ifndef SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_
#define SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_

#include <vector>

#include "analysis/analyzer.h"
#include "util/engine_context.h"

namespace sqleq {

struct RunOptions {
  EngineContext context;
  AnalyzeOptions analyze = AnalyzeOptions::Preflight();
};

/// The Σ-lint pre-flight of one engine call (no-op when analyze.enabled is
/// false): analyzes `queries` against `schema` and `sigma` and rejects
/// kError findings as FailedPrecondition. An analyze budget left at its
/// default takes `options.context.budget`, and a null analyze.metrics takes
/// `options.context.metrics`, so every engine's pre-flight counts
/// `analysis.diag.<code>` in the call's registry.
inline Status RunPreflight(const RunOptions& options, const Schema& schema,
                           const DependencySet& sigma,
                           const std::vector<ConjunctiveQuery>& queries) {
  if (!options.analyze.enabled) return Status::OK();
  AnalyzeOptions analyze = options.analyze;
  if (analyze.budget == ResourceBudget{}) analyze.budget = options.context.budget;
  if (analyze.metrics == nullptr) analyze.metrics = options.context.metrics;
  return ReportToStatus(AnalyzeProgram(schema, sigma, queries, analyze));
}

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_RUN_OPTIONS_H_
