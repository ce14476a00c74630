// EngineContext: the one per-call environment record threaded through the
// engine stack (EquivalenceEngine -> ChaseAndBackchase / RewriteWithViews ->
// chase / backchase). It bundles what used to be sprawled
// across per-call option structs — the resource budget plus the four
// optional cross-cutting facilities (metrics, trace, fault injection,
// cancellation) — so adding an observability or robustness knob no longer
// means touching every options struct on the way down.
//
// Ownership: the context borrows everything. Pointers may be null ("feature
// off") and must outlive the engine call. ChaseOptions deliberately stays
// pure configuration (it is part of memo context keys); runtime facilities
// travel separately via ChaseRuntime, which the engine layers populate from
// the resolved context.
#ifndef SQLEQ_UTIL_ENGINE_CONTEXT_H_
#define SQLEQ_UTIL_ENGINE_CONTEXT_H_

#include "util/fault.h"
#include "util/resource_budget.h"
#include "util/telemetry.h"

namespace sqleq {

struct EngineContext {
  /// Resource limits for every bounded search in the call.
  ResourceBudget budget;
  /// Counter/histogram sink; null disables metrics.
  MetricsRegistry* metrics = nullptr;
  /// Span sink; null disables tracing.
  TraceSink* trace = nullptr;
  /// Deterministic fault injection; null disables it.
  FaultInjector* faults = nullptr;
  /// Cooperative cancellation; null means not cancellable.
  CancellationToken* cancel = nullptr;
};

}  // namespace sqleq

#endif  // SQLEQ_UTIL_ENGINE_CONTEXT_H_
