// Span recording for the traced run (README.md, "Traced run"). Each thread
// records into its own SpanLog: name, start, end, parent span and request
// id, kept in memory and written once at exit as Chrome trace_event JSON.
// A layer's self time is its span's duration minus the time its child
// spans cover.
#ifndef SQLEQ_E2EBENCH_SPANS_H_
#define SQLEQ_E2EBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// Nanoseconds on the steady clock since the process's first call.
uint64_t NowNs();

struct Span {
  const char* name;  ///< a string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the same log, -1 for a root
  uint64_t request = 0;
};

/// One thread's spans, in begin order. Spans nest strictly.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid) : tid_(tid) {}

  size_t Begin(const char* name, uint64_t request);
  void End(size_t index);
  void Rename(size_t index, const char* name) { spans_[index].name = name; }

  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), index_(log == nullptr ? 0 : log->Begin(name, request)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Names the span after the fact (a memo lookup is named by the tier
  /// that answered it).
  void Rename(const char* name) {
    if (log_ != nullptr) log_->Rename(index_, name);
  }

 private:
  SpanLog* log_;
  size_t index_;
};

/// Per span name: every span's duration and self time, in microseconds.
struct LayerSamples {
  std::vector<double> duration_us;
  std::vector<double> self_us;
};
std::map<std::string, LayerSamples> CollectLayers(
    const std::vector<const SpanLog*>& logs);

/// {"traceEvents":[...]} with one complete ("X") event per span; args carry
/// the request id and the parent span's name.
std::string ChromeTraceJson(const std::vector<const SpanLog*>& logs);

/// Quantile of `values` by linear interpolation (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

}  // namespace e2ebench

#endif  // SQLEQ_E2EBENCH_SPANS_H_
