#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/json.h"

namespace e2ebench {

uint64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - origin)
                                   .count());
}

size_t SpanLog::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, LayerSamples> CollectLayers(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerSamples> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double duration = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      LayerSamples& layer = out[spans[i].name];
      layer.duration_us.push_back(duration / 1e3);
      layer.self_us.push_back(
          std::max(0.0, duration - static_cast<double>(child_ns[i])) / 1e3);
    }
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<const SpanLog*>& logs) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\":\"";
      out += sqleq::EscapeJson(s.name);
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,",
                    log->tid(), static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out += buf;
      out += "\"args\":{\"request\":" + std::to_string(s.request) + ",\"parent\":\"";
      if (s.parent >= 0) {
        out += sqleq::EscapeJson(log->spans()[static_cast<size_t>(s.parent)].name);
      }
      out += "\"}}";
    }
  }
  out += "]}\n";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

}  // namespace e2ebench
