#include "util/resource_budget.h"

#include <cmath>
#include <limits>

namespace sqleq {

Status ResourceBudget::CheckDeadline(const char* phase) const {
  if (!DeadlineExpired()) return Status::OK();
  auto now = std::chrono::steady_clock::now();
  auto over =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - *deadline);
  std::string message = std::string("deadline exceeded during ") + phase +
                        " (ResourceBudget::deadline): ";
  if (deadline_origin.has_value()) {
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        now - *deadline_origin);
    auto window = std::chrono::duration_cast<std::chrono::milliseconds>(
        *deadline - *deadline_origin);
    message += "elapsed " + std::to_string(elapsed.count()) + "ms of a " +
               std::to_string(window.count()) + "ms budget (" +
               std::to_string(over.count()) + "ms over)";
  } else {
    message += std::to_string(over.count()) + "ms past the deadline";
  }
  return Status::ResourceExhausted(std::move(message));
}

std::string ResourceBudget::ToString() const {
  std::string out = "steps=" + std::to_string(max_chase_steps);
  out += " candidates=" + std::to_string(max_candidates);
  out += " deadline=";
  if (deadline.has_value()) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        *deadline - std::chrono::steady_clock::now());
    out += std::to_string(left.count()) + "ms";
  } else {
    out += "unset";
  }
  return out;
}

const char* VerdictToString(Verdict v) {
  switch (v) {
    case Verdict::kEquivalent:
      return "equivalent";
    case Verdict::kNotEquivalent:
      return "not-equivalent";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::string ExhaustionInfo::ToString() const {
  return limit + " during " + phase + ": " + progress;
}

ExhaustionInfo InferExhaustion(const Status& status, std::string phase) {
  ExhaustionInfo info;
  info.phase = std::move(phase);
  info.progress = status.message();
  const std::string& m = status.message();
  if (status.code() == StatusCode::kCancelled) {
    info.limit = "cancelled";
  } else if (m.find("injected") != std::string::npos) {
    info.limit = "fault";
  } else if (m.find("max_chase_steps") != std::string::npos) {
    info.limit = "max_chase_steps";
  } else if (m.find("max_candidates") != std::string::npos) {
    info.limit = "max_candidates";
  } else if (m.find("deadline") != std::string::npos) {
    info.limit = "deadline";
  } else {
    info.limit = "resource";
  }
  return info;
}

namespace {

/// `value * factor` with saturation at size_t's max (growth^k overflows
/// quickly; a saturated limit just means "effectively unbounded").
size_t ScaleSaturating(size_t value, double factor) {
  if (factor <= 1.0) return value;
  double scaled = static_cast<double>(value) * factor;
  if (scaled >= static_cast<double>(std::numeric_limits<size_t>::max())) {
    return std::numeric_limits<size_t>::max();
  }
  return static_cast<size_t>(scaled);
}

}  // namespace

ResourceBudget EscalatingBudget::Escalate(const ResourceBudget& base,
                                          size_t attempt) const {
  double factor = std::pow(growth < 1.0 ? 1.0 : growth,
                           static_cast<double>(attempt));
  ResourceBudget out = base;
  out.max_chase_steps = ScaleSaturating(base.max_chase_steps, factor);
  out.max_candidates = ScaleSaturating(base.max_candidates, factor);
  std::optional<std::chrono::milliseconds> window = deadline_per_attempt;
  if (!window.has_value() && base.deadline.has_value()) {
    // Re-anchor the base deadline's window at this attempt's start; a
    // deadline inherited verbatim would leave every retry born expired.
    auto anchor = base.deadline_origin.value_or(std::chrono::steady_clock::now());
    window = std::chrono::duration_cast<std::chrono::milliseconds>(
        *base.deadline - anchor);
  }
  if (window.has_value()) {
    auto scaled = std::chrono::milliseconds(
        static_cast<std::chrono::milliseconds::rep>(ScaleSaturating(
            static_cast<size_t>(window->count() < 0 ? 0 : window->count()),
            factor)));
    out.deadline_origin = std::chrono::steady_clock::now();
    out.deadline = *out.deadline_origin + scaled;
  }
  return out;
}

}  // namespace sqleq
