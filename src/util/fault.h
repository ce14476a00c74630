// Deterministic fault injection and cooperative cancellation for the engine
// stack (docs/robustness.md). Both facilities are threaded through the same
// named sites inside the chase and backchase loops:
//
//   chase.step            — once per set-/sound-chase step
//   backchase.candidate   — once per evaluated backchase/rewrite candidate
//   memo.insert           — before a chase outcome is inserted into a memo
//
// A FaultInjector arms sites with delays, spurious ResourceExhausted, or
// simulated allocation failure; firing is a pure function of (seed, site,
// hit index), so a given schedule replays identically run over run — that is
// what lets the fault suite assert exact partial results and resume
// behavior. A CancellationToken is a one-way flag checked at the same sites,
// turned by the anytime layers into a resumable kUnknown/partial outcome
// (StatusCode::kCancelled) instead of an error.
#ifndef SQLEQ_UTIL_FAULT_H_
#define SQLEQ_UTIL_FAULT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/status.h"

namespace sqleq {

namespace fault_sites {
inline constexpr const char* kChaseStep = "chase.step";
inline constexpr const char* kBackchaseCandidate = "backchase.candidate";
inline constexpr const char* kMemoInsert = "memo.insert";
// Service-layer sites (src/service/server.cc): a fired accept drops the
// just-accepted connection, a fired parse drops the connection mid-stream,
// a fired dispatch fails one request with an error response.
inline constexpr const char* kServiceAccept = "service.accept";
inline constexpr const char* kServiceParse = "service.parse";
inline constexpr const char* kServiceDispatch = "service.dispatch";
// Tier-2 memo I/O sites (src/chase/memo_store.cc): a fired write fails (or,
// with kind kShortWrite, truncates) one segment append, a fired read fails
// one disk lookup (the memo treats it as a miss), a fired fsync fails the
// durability barrier after an append.
inline constexpr const char* kMemoDiskWrite = "memo.disk.write";
inline constexpr const char* kMemoDiskRead = "memo.disk.read";
inline constexpr const char* kMemoDiskFsync = "memo.disk.fsync";
}  // namespace fault_sites

/// What an armed site injects when it fires.
enum class FaultKind {
  /// Sleep for FaultSpec::delay, then proceed (stresses schedules without
  /// changing results).
  kDelay,
  /// Return a spurious ResourceExhausted naming the site.
  kExhausted,
  /// Simulate allocation failure: throw-and-catch std::bad_alloc internally,
  /// surfaced as Status::Internal (the library itself is exception-free).
  kBadAlloc,
  /// Simulate a torn write: meaningful only at sites probed through
  /// HitWrite(), where a firing yields a deterministic byte count in
  /// [0, full) the caller must persist before reporting failure — exactly
  /// what a crash mid-append leaves in a segment file. Through plain Hit()
  /// a firing is a no-op (there is nothing to truncate).
  kShortWrite,
};

/// When and what a site injects. Hits are counted per site from 1; the spec
/// makes hit h *eligible* when h == start + i * period for some i >= 0
/// (period 0: only h == start), and an eligible hit fires with
/// `probability`, decided by a hash of (seed, site, h) — deterministic, no
/// shared RNG stream.
struct FaultSpec {
  FaultKind kind = FaultKind::kExhausted;
  uint64_t start = 1;
  uint64_t period = 0;
  std::chrono::microseconds delay{0};
  double probability = 1.0;
};

/// Seed-deterministic fault injector. Thread-safe: sites may be hit
/// concurrently by calls sharing one injector (hit indices are then assigned
/// in arrival order, so cross-thread schedules decide *which* hit a call
/// observes — arm one call at a time when a test needs an exact firing
/// point).
/// A default-constructed injector with no armed sites is inert.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  /// Arms (or re-arms) `site`. Counters are preserved across re-arming;
  /// call ResetCounters() for a fresh schedule.
  void Arm(const std::string& site, FaultSpec spec);
  void Disarm(const std::string& site);
  void ResetCounters();

  /// Registers one hit of `site` and injects per the armed spec (no-op for
  /// unarmed sites beyond counting). Returns OK, or the injected failure.
  Status Hit(const char* site);

  /// What HitWrite() injects for one write of `full_bytes` bytes. At most
  /// one of the fields is set: `status` non-OK for kExhausted/kBadAlloc
  /// firings, `short_bytes` for kShortWrite firings (how many leading bytes
  /// the caller should actually persist before failing the write).
  struct WriteFault {
    Status status = Status::OK();
    std::optional<size_t> short_bytes;
  };

  /// Hit() specialized for write sites: counts one hit and, when the armed
  /// spec fires, injects either an error status or — for kShortWrite — a
  /// deterministic truncation length in [0, full_bytes). The truncation
  /// length is a pure function of (seed, site, hit index), so torn-tail
  /// schedules replay identically.
  WriteFault HitWrite(const char* site, size_t full_bytes);

  /// Total hits observed at `site` (armed or not).
  uint64_t HitCount(const std::string& site) const;
  /// Hits at `site` that actually fired an injection.
  uint64_t FiredCount(const std::string& site) const;

 private:
  struct SiteState {
    FaultSpec spec;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t fired = 0;
  };

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, SiteState> sites_;
};

/// One-way cooperative cancellation flag, checked at the fault sites above.
/// Cancel() may be called from any thread (e.g. a SIGINT handler thread);
/// the running search notices at its next site check and winds down with
/// StatusCode::kCancelled, which the anytime layers convert into a
/// checkpointed partial result.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// OK until cancelled; then Status::Cancelled naming `site`.
  Status Check(const char* site) const;

 private:
  std::atomic<bool> cancelled_{false};
};

/// The combined per-site check the engine loops call: cancellation first
/// (an interrupt beats an injected fault), then the injector. Both pointers
/// may be null.
Status ProbeSite(FaultInjector* faults, CancellationToken* cancel,
                 const char* site);

}  // namespace sqleq

#endif  // SQLEQ_UTIL_FAULT_H_
