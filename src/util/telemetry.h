// Telemetry substrate for the C&B pipeline: a MetricsRegistry of lock-free
// counters and streaming histograms, and a TraceSink span API, with
// exporters for the Prometheus text exposition format and the Chrome
// trace_event JSON format (chrome://tracing, Perfetto).
//
// Design rules (docs/observability.md):
//  - Recording is wait-free after the first lookup: Counter::Add and
//    Histogram::Record are relaxed atomics. Hot loops fetch the Counter&
//    once, outside the loop — `registry.counter(name)` takes a mutex.
//  - A null MetricsRegistry*/TraceSink* anywhere in the engine means
//    "telemetry off" and costs one branch; every instrumentation site must
//    tolerate nullptr.
//  - Metric totals for deterministic workloads are identical run over run:
//    the backchase's counters are replayed in mask order, so they do not
//    depend on what the memo held before the call (see
//    tests/telemetry_test.cc).
//  - TraceSink span names are string literals (const char*, not copied).
#ifndef SQLEQ_UTIL_TELEMETRY_H_
#define SQLEQ_UTIL_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace sqleq {

/// Canonical metric names (glossary in docs/observability.md, kept in sync
/// by tests/observability_glossary_test.cc). Instrumented code uses these
/// constants; dynamic names (chase.fired.<label>,
/// backchase.level.<k>.candidates) are composed at the call site.
namespace metric {
inline constexpr char kChaseRuns[] = "chase.runs";
inline constexpr char kChaseSteps[] = "chase.steps";
inline constexpr char kChaseStepsTgd[] = "chase.steps.tgd";
inline constexpr char kChaseStepsEgd[] = "chase.steps.egd";
inline constexpr char kChaseChecksSatisfied[] = "chase.checks.satisfied";
inline constexpr char kChaseChecksSkippedClean[] = "chase.checks.skipped_clean";
inline constexpr char kChaseRebuilds[] = "chase.rebuilds";
inline constexpr char kSliceKept[] = "slice.kept";
inline constexpr char kSlicePruned[] = "slice.pruned";
/// Per-code diagnostic counters: kAnalysisDiagPrefix + <code>, one counter
/// per diagnostic code the analyzer or script linter emits.
inline constexpr char kAnalysisDiagPrefix[] = "analysis.diag.";
inline constexpr char kMemoHits[] = "memo.hits";
inline constexpr char kMemoMisses[] = "memo.misses";
inline constexpr char kMemoInserts[] = "memo.inserts";
inline constexpr char kMemoBytes[] = "memo.bytes";
inline constexpr char kMemoEvictions[] = "memo.evictions";
// Tier-2 on-disk memo (src/chase/memo_store.h). hits/writes are counted
// into the per-call registry (folded into server totals per request);
// recovered/corrupt_records/bytes are store-lifetime facts counted into the
// registry the store was opened with.
inline constexpr char kMemoDiskHits[] = "memo.disk.hits";
inline constexpr char kMemoDiskWrites[] = "memo.disk.writes";
inline constexpr char kMemoDiskRecovered[] = "memo.disk.recovered";
inline constexpr char kMemoDiskCorrupt[] = "memo.disk.corrupt_records";
inline constexpr char kMemoDiskBytes[] = "memo.disk.bytes";
inline constexpr char kMemoDiskCompactions[] = "memo.disk.compactions";
inline constexpr char kBackchaseCandidates[] = "backchase.candidates";
inline constexpr char kBackchaseAccepted[] = "backchase.accepted";
inline constexpr char kBackchaseRejected[] = "backchase.rejected";
inline constexpr char kBackchasePrunedDominance[] =
    "backchase.pruned.dominance";
inline constexpr char kBackchasePrunedFailure[] = "backchase.pruned.failure";
inline constexpr char kBackchaseChaseFailed[] = "backchase.chase_failed";
inline constexpr char kBackchaseCacheHits[] = "backchase.cache_hits";
inline constexpr char kBackchaseCacheMisses[] = "backchase.cache_misses";
inline constexpr char kEngineEquivCalls[] = "engine.equiv.calls";
inline constexpr char kEngineEquivEquivalent[] = "engine.equiv.equivalent";
inline constexpr char kEngineEquivNotEquivalent[] =
    "engine.equiv.not_equivalent";
inline constexpr char kEngineEquivUnknown[] = "engine.equiv.unknown";
inline constexpr char kPoolQueueWaitUs[] = "pool.queue_wait_us";
inline constexpr char kPoolTaskUs[] = "pool.task_us";
inline constexpr char kServiceConnections[] = "service.connections";
inline constexpr char kServiceRequests[] = "service.requests";
inline constexpr char kServiceErrors[] = "service.errors";
inline constexpr char kServiceOverloaded[] = "service.overloaded";
inline constexpr char kServiceDrained[] = "service.drained";
inline constexpr char kServiceDrainingRejected[] = "service.draining_rejected";
inline constexpr char kServiceDegraded[] = "service.degraded";
inline constexpr char kServiceRedirects[] = "service.redirects";
inline constexpr char kServiceRequestUs[] = "service.request_us";
// Semantic query cache (src/cache/semantic_cache.h). hits.exact counts
// canonical-key matches, hits.semantic engine-confirmed bucket matches;
// confirms is engine Equivalent calls spent by the semantic tier, with the
// kUnknown (budget-tripped) subset broken out.
inline constexpr char kCacheLookups[] = "cache.lookups";
inline constexpr char kCacheHitsExact[] = "cache.hits.exact";
inline constexpr char kCacheHitsSemantic[] = "cache.hits.semantic";
inline constexpr char kCacheMisses[] = "cache.misses";
inline constexpr char kCacheConfirms[] = "cache.confirms";
inline constexpr char kCacheConfirmsUnknown[] = "cache.confirms.unknown";
inline constexpr char kCacheAdmissions[] = "cache.admissions";
// sqleq-lint per-run tallies (tools/sqleq_lint.cc).
inline constexpr char kLintFiles[] = "lint.files";
inline constexpr char kLintStatements[] = "lint.statements";
inline constexpr char kLintErrors[] = "lint.errors";
inline constexpr char kLintWarnings[] = "lint.warnings";
inline constexpr char kLintNotes[] = "lint.notes";
}  // namespace metric

/// Monotonically increasing event count. Add/value are wait-free.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Streaming histogram over uint64 samples (microseconds, byte sizes):
/// power-of-two buckets plus running count/sum/min/max. Record is lock-free
/// (relaxed adds; CAS loops only for min/max).
class Histogram {
 public:
  /// Bucket i counts samples v with bit_width(v) == i, i.e. bucket 0 is
  /// v == 0 and bucket i >= 1 covers [2^(i-1), 2^i).
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t value);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const { return count == 0 ? 0.0 : double(sum) / count; }
    /// Upper bound of the bucket holding the p-quantile (p in [0,1]).
    uint64_t ApproxQuantile(double p) const;
  };

  Snapshot snapshot() const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Point-in-time copy of a registry, safe to read/export after the run.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram::Snapshot> histograms;

  /// Prometheus text exposition format: names sanitized to
  /// sqleq_<name with [^a-zA-Z0-9_] -> '_'>, counters as `counter`,
  /// histograms as `histogram` with cumulative power-of-two `le` buckets.
  std::string ToPrometheusText() const;

  /// {"counters":{...},"histograms":{name:{count,sum,min,max}}} — parseable
  /// by util/json.h (round-trip tested).
  std::string ToJson() const;
};

/// Named counters and histograms, created on first use. Lookup takes a
/// mutex; returned references stay valid for the registry's lifetime, so
/// hot paths resolve names once and then record wait-free.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every existing instrument (references stay valid).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// One trace event: a span begin ('B') or end ('E') at `ts_us` microseconds
/// since the sink's construction, on sink-local thread id `tid` (small ints
/// in registration order; 0 is the first thread the sink ever saw).
struct TraceEvent {
  const char* name;
  char phase;
  uint64_t ts_us;
  uint32_t tid;
};

/// Collects span begin/end events. Thread-safe; events are stored in
/// arrival order (deterministic for serial runs; per-thread subsequences
/// deterministic always). Names must be string literals or otherwise
/// outlive the sink.
class TraceSink {
 public:
  TraceSink();

  void Begin(const char* name);
  void End(const char* name);

  std::vector<TraceEvent> events() const;
  size_t size() const;
  void Clear();

  /// True when every thread's event subsequence is a well-nested sequence
  /// of matching B/E pairs. On failure, *error (if non-null) names the
  /// first offending event.
  bool CheckBalanced(std::string* error = nullptr) const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}), loadable in
  /// chrome://tracing or Perfetto.
  std::string ToChromeTraceJson() const;

 private:
  uint32_t TidLocked(std::thread::id id);
  void Record(const char* name, char phase);

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, uint32_t> tids_;
  std::chrono::steady_clock::time_point origin_;
};

/// RAII span: Begin on construction, End on destruction. A null sink is a
/// no-op, so call sites need no branching.
class TraceSpan {
 public:
  TraceSpan(TraceSink* sink, const char* name) : sink_(sink), name_(name) {
    if (sink_ != nullptr) sink_->Begin(name_);
  }
  ~TraceSpan() {
    if (sink_ != nullptr) sink_->End(name_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSink* sink_;
  const char* name_;
};

/// RAII duration sampler: records elapsed microseconds into `hist` on
/// destruction. A null histogram is a no-op.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram* hist)
      : hist_(hist),
        start_(hist == nullptr ? std::chrono::steady_clock::time_point{}
                               : std::chrono::steady_clock::now()) {}
  ~ScopedTimerUs() {
    if (hist_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sqleq

#endif  // SQLEQ_UTIL_TELEMETRY_H_
