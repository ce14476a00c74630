// ResourceBudget: the shared resource-limit knob of sqleq. Every bounded
// search in the library (chase step loop, backchase candidate lattice,
// rewriting enumeration) draws from one of these instead of carrying its own
// ad-hoc cap, so callers configure limits in exactly one place and
// ResourceExhausted errors can always name the limit that tripped.
//
// This header also defines the *anytime* vocabulary layered on top of those
// limits (docs/robustness.md): the three-valued Verdict, the ExhaustionInfo
// payload attached to partial results, and the EscalatingBudget retry policy
// used by the *WithRetry entry points and the shell's SET RETRY.
#ifndef SQLEQ_UTIL_RESOURCE_BUDGET_H_
#define SQLEQ_UTIL_RESOURCE_BUDGET_H_

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>

#include "util/status.h"

namespace sqleq {

/// Resource limits shared by the chase and the reformulation searches.
/// Embedded in ChaseOptions (chase-level limits) and CandBOptions (which
/// propagates its budget to the chases it spawns).
struct ResourceBudget {
  /// Hard cap on chase steps per chase run; exceeded → ResourceExhausted.
  /// The paper's algorithms are conditioned on set-chase termination, so a
  /// generous default suffices for weakly acyclic Σ.
  size_t max_chase_steps = 5000;
  /// Cap on backchase/rewriting candidates per reformulation call (the
  /// subquery lattice is 2^|body(U)|).
  size_t max_candidates = 1u << 20;
  /// Optional wall-clock deadline. Checked at chase-step and backchase-
  /// candidate granularity; exceeded → ResourceExhausted naming the phase.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// When the deadline was anchored (set by WithDeadlineIn); lets
  /// CheckDeadline report elapsed-vs-budget timings.
  std::optional<std::chrono::steady_clock::time_point> deadline_origin;
  /// Ignored: the backchase sweep is serial. Kept only so callers that
  /// still assign it compile; nothing in the library reads it.
  size_t threads = 1;

  /// A budget with a deadline `d` from now (other limits default).
  static ResourceBudget WithDeadlineIn(std::chrono::milliseconds d) {
    ResourceBudget b;
    b.deadline_origin = std::chrono::steady_clock::now();
    b.deadline = *b.deadline_origin + d;
    return b;
  }

  bool DeadlineExpired() const {
    return deadline.has_value() && std::chrono::steady_clock::now() >= *deadline;
  }

  /// OK while the deadline (if any) has not passed; otherwise
  /// ResourceExhausted("deadline exceeded during <phase> ...") reporting
  /// elapsed time against the budgeted window when the origin is known.
  Status CheckDeadline(const char* phase) const;

  /// "steps=5000 candidates=1048576 deadline=unset".
  std::string ToString() const;

  /// Memberwise equality; EngineContext::Resolve uses `b == ResourceBudget{}`
  /// to detect "budget never customized" when merging legacy option structs.
  friend bool operator==(const ResourceBudget&, const ResourceBudget&) =
      default;
};

/// Three-valued outcome of a budgeted decision procedure: the search either
/// decided the question, or ran out of resources first (kUnknown) — in which
/// case the result carries an ExhaustionInfo and usually a resumable
/// checkpoint instead of an error.
enum class Verdict {
  kEquivalent,
  kNotEquivalent,
  kUnknown,
};

/// "equivalent" / "not-equivalent" / "unknown".
const char* VerdictToString(Verdict v);

/// Why a bounded search stopped early. Attached to every kUnknown verdict
/// and every `complete = false` reformulation result.
struct ExhaustionInfo {
  /// The limit that tripped: "max_chase_steps", "max_candidates",
  /// "deadline", "cancelled", or "fault" (injected).
  std::string limit;
  /// The phase the limit tripped in (e.g. "set chase", "backchase",
  /// "chase of Q1").
  std::string phase;
  /// Human-readable progress report (the underlying status message:
  /// steps fired, elapsed-vs-budget timings, ...).
  std::string progress;

  /// "<limit> during <phase>: <progress>".
  std::string ToString() const;
};

/// True for the status codes the anytime layers convert into partial
/// results instead of propagating: resource exhaustion and cooperative
/// cancellation. Everything else stays an error.
inline bool IsAnytimeStop(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted ||
         s.code() == StatusCode::kCancelled;
}

/// Builds the ExhaustionInfo for an anytime stop: classifies the tripped
/// limit from the status (code + message keywords) and records `phase`.
ExhaustionInfo InferExhaustion(const Status& status, std::string phase);

/// Geometric budget-escalation policy for the *WithRetry entry points
/// (EquivalenceEngine::EquivalentWithRetry, ChaseAndBackchaseWithRetry,
/// RewriteWithViewsWithRetry) and the shell's SET RETRY: attempt k runs
/// with the base limits scaled by growth^k, resuming from the previous
/// attempt's checkpoint, until the verdict is decided or max_attempts runs
/// are spent.
struct EscalatingBudget {
  /// Per-attempt multiplier applied to max_chase_steps, max_candidates, and
  /// the deadline window. Must be >= 1.
  double growth = 2.0;
  /// Total attempts (>= 1); the first runs with the unscaled base budget.
  size_t max_attempts = 3;
  /// When set, each attempt gets a fresh deadline of
  /// deadline_per_attempt * growth^k from its own start, replacing the base
  /// budget's deadline.
  std::optional<std::chrono::milliseconds> deadline_per_attempt;

  /// The budget for attempt `attempt` (0-based), derived from `base`:
  /// steps/candidates scaled with saturation; the deadline re-anchored at
  /// now with its window scaled (so retries are not born expired).
  ResourceBudget Escalate(const ResourceBudget& base, size_t attempt) const;
};

/// The escalate / resume / stop loop behind every *WithRetry entry point.
/// `attempt(budget, resume)` runs once and returns a Result whose value
/// carries an optional `checkpoint`; attempt k gets policy.Escalate(base, k)
/// and, from k = 1 on, the previous attempt's checkpoint (attempt 0 gets
/// `resume`). The loop returns the first error, the first value that is
/// `settled` or has no checkpoint, or the last attempt's value.
template <typename Checkpoint, typename Attempt, typename Settled>
auto RetryWithEscalatingBudget(const EscalatingBudget& policy,
                               const ResourceBudget& base,
                               const Checkpoint* resume, Attempt attempt,
                               Settled settled) {
  const size_t attempts = policy.max_attempts == 0 ? 1 : policy.max_attempts;
  std::optional<Checkpoint> carried;
  auto result = attempt(policy.Escalate(base, 0), resume);
  for (size_t k = 1; k < attempts; ++k) {
    if (!result.ok() || settled(*result) || !result->checkpoint.has_value()) {
      break;
    }
    carried = *result->checkpoint;
    result = attempt(policy.Escalate(base, k), &*carried);
  }
  return result;
}

}  // namespace sqleq

#endif  // SQLEQ_UTIL_RESOURCE_BUDGET_H_
