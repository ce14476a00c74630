// Internal helper shared by the set- and sound-chase loops: resolves the
// chase.* counters from a ChaseRuntime's registry once per run so the step
// loop itself records wait-free (docs/observability.md). Not part of the
// public API.
#ifndef SQLEQ_CHASE_CHASE_TELEMETRY_H_
#define SQLEQ_CHASE_CHASE_TELEMETRY_H_

#include <string>

#include "util/telemetry.h"

namespace sqleq {

struct ChaseCounters {
  Counter* steps = nullptr;
  Counter* tgd_steps = nullptr;
  Counter* egd_steps = nullptr;
  Counter* satisfied = nullptr;
  Counter* skipped_clean = nullptr;
  Counter* rebuilds = nullptr;
  MetricsRegistry* registry = nullptr;  // for per-label chase.fired.<label>

  /// Counts one chase run and resolves the step counters; a null registry
  /// leaves the struct inert.
  explicit ChaseCounters(MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    registry = metrics;
    metrics->counter(metric::kChaseRuns).Add();
    steps = &metrics->counter(metric::kChaseSteps);
    tgd_steps = &metrics->counter(metric::kChaseStepsTgd);
    egd_steps = &metrics->counter(metric::kChaseStepsEgd);
    satisfied = &metrics->counter(metric::kChaseChecksSatisfied);
    skipped_clean = &metrics->counter(metric::kChaseChecksSkippedClean);
    rebuilds = &metrics->counter(metric::kChaseRebuilds);
  }

  /// One applied chase step of dependency `label`. The per-label lookup
  /// locks the registry, but applied steps are rare next to the
  /// homomorphism search that found them.
  void Fired(const std::string& label, bool is_tgd) const {
    if (registry == nullptr) return;
    steps->Add();
    (is_tgd ? tgd_steps : egd_steps)->Add();
    registry->counter("chase.fired." + label).Add();
  }

  /// One dependency check that ran and found nothing applicable (already
  /// satisfied).
  void Satisfied() const {
    if (satisfied != nullptr) satisfied->Add();
  }

  /// One dependency check skipped because the dependency is clean: it was
  /// satisfied and no step since added atoms its body reads.
  void SkippedClean() const {
    if (skipped_clean != nullptr) skipped_clean->Add();
  }

  /// One full re-index of the chased conjunction (FlatConjunction::Rebuild).
  void Rebuilt() const {
    if (rebuilds != nullptr) rebuilds->Add();
  }
};

}  // namespace sqleq

#endif  // SQLEQ_CHASE_CHASE_TELEMETRY_H_
