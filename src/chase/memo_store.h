// Tier-2 on-disk chase memo: an append-only segment store that lets warm
// chase verdicts survive process death (docs/service.md, "Durability &
// Recovery"). The in-memory ChaseMemo spills freshly chased outcomes (and,
// as a backstop, LRU evictions) here and consults it on a memory miss,
// re-promoting disk hits into the memory tier.
//
// On-disk layout: `dir/memo-<seq>.seg` files, each a sequence of framed
// records
//
//   [u32 payload length (LE)] [u32 CRC-32 of payload (LE)] [payload]
//
// where the payload is the PR-3 checkpoint text dialect:
//
//   sqleq-memo-record v2
//   key <EscapeField(key)>
//   <body — opaque to the store; chase outcomes use the helpers below>
//
// The store is a durable last-writer-wins map from key to body. Startup
// recovery scans every segment in sequence order and stops a segment's scan
// at the first frame whose length or checksum does not hold — a torn tail
// from a crash mid-append — counting it in memo.disk.corrupt_records and
// keeping every record before it. Recovery always appends to a *new*
// segment, so a torn tail is never written after. `max_disk_bytes` is
// enforced by rotating segments at `segment_bytes` and compacting (rewrite
// live records newest-first, drop the oldest) when the total exceeds the
// budget.
#ifndef SQLEQ_CHASE_MEMO_STORE_H_
#define SQLEQ_CHASE_MEMO_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "chase/set_chase.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/telemetry.h"

namespace sqleq {

struct MemoStoreOptions {
  /// Directory holding the segment files; created (one level) if missing.
  std::string dir;
  /// Total on-disk budget across segments, enforced by compaction after an
  /// append pushes past it. 0 = unbounded. The newest record is never
  /// dropped, so a single oversized record still persists.
  size_t max_disk_bytes = 256u << 20;
  /// Rotation threshold: the active segment is closed and a new one started
  /// once it reaches this size.
  size_t segment_bytes = 4u << 20;
  /// fsync(2) after every append. Off by default: the store targets
  /// process-crash durability (SIGKILL), which buffered writes already
  /// survive; turn on when machine-crash durability is worth the latency.
  bool fsync_each_put = false;
  /// Probed at fault_sites::kMemoDiskWrite / kMemoDiskRead / kMemoDiskFsync
  /// (including deterministic short-write injection). May be null.
  FaultInjector* faults = nullptr;
  /// Store-lifetime counter sink for memo.disk.{recovered,corrupt_records,
  /// bytes,compactions}. May be null. Per-call counters (hits, writes) go
  /// to the registry passed to Get/Put instead.
  MetricsRegistry* metrics = nullptr;
};

/// Thread-safe append-only record store. All methods may be called
/// concurrently; a single internal mutex serializes them (disk-tier traffic
/// is orders of magnitude rarer than memory-tier hits).
class MemoStore {
 public:
  /// Opens `options.dir`, creating it if absent, and recovers the key index
  /// from the existing segments (torn/corrupt tails are skipped, never an
  /// error). Fails only when the directory cannot be created or read.
  static Result<std::unique_ptr<MemoStore>> Open(MemoStoreOptions options);

  ~MemoStore();
  MemoStore(const MemoStore&) = delete;
  MemoStore& operator=(const MemoStore&) = delete;

  /// Looks up the newest record body for `key`. nullopt on miss; an error
  /// only for injected or real read failures (callers treat it as a miss).
  /// A record that fails its checksum re-check on read is dropped from the
  /// index and counted as corrupt. Hits are counted into `call_metrics`
  /// (memo.disk.hits), which may be null.
  Result<std::optional<std::string>> Get(std::string_view key,
                                         MetricsRegistry* call_metrics = nullptr);

  /// Appends a record for `key`, superseding any previous one. A Put whose
  /// payload is byte-identical to the indexed record for `key` is a no-op
  /// (this is what makes evicting an already-spilled entry free). Writes
  /// are counted into `call_metrics` (memo.disk.writes); appended bytes
  /// into the store-lifetime registry (memo.disk.bytes).
  Status Put(std::string_view key, std::string_view body,
             MetricsRegistry* call_metrics = nullptr);

  struct Stats {
    size_t entries = 0;
    size_t segments = 0;
    /// Total bytes of all segment files (frames + torn tails).
    size_t disk_bytes = 0;
    /// Live records recovered by Open().
    size_t recovered = 0;
    /// Torn/corrupt records skipped (recovery scan + read re-checks).
    size_t corrupt_records = 0;
    /// Records dropped by compaction to honor max_disk_bytes.
    size_t dropped = 0;
    size_t compactions = 0;
    uint64_t hits = 0;
    uint64_t writes = 0;
  };
  Stats stats() const;

  const MemoStoreOptions& options() const { return options_; }

 private:
  struct Location {
    uint64_t seq = 0;
    uint64_t offset = 0;  // of the payload, past the 8-byte frame header
    uint32_t length = 0;
    uint32_t crc = 0;
  };

  explicit MemoStore(MemoStoreOptions options)
      : options_(std::move(options)) {}

  std::string SegmentPath(uint64_t seq) const;
  /// Scans one segment into index_/file_bytes_. Caller holds mu_.
  void ScanSegmentLocked(uint64_t seq);
  /// Reads and checksum-verifies the payload at `loc`. Caller holds mu_.
  Result<std::string> ReadPayloadLocked(const Location& loc);
  /// Closes the active segment and arranges for the next Put to start a
  /// fresh one. Caller holds mu_.
  void RotateLocked();
  /// Rewrites live records newest-first into fresh segments, dropping the
  /// oldest until the budget holds, then deletes the old files. Caller
  /// holds mu_.
  void CompactLocked();

  const MemoStoreOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Location> index_;
  /// seq -> file size, every segment currently on disk.
  std::map<uint64_t, uint64_t> file_bytes_;
  uint64_t next_seq_ = 0;
  int active_fd_ = -1;
  uint64_t active_seq_ = 0;
  uint64_t active_bytes_ = 0;
  /// True after a failed/short append: the segment may end in a torn frame,
  /// so the next Put rotates instead of appending after it.
  bool active_poisoned_ = false;
  size_t total_bytes_ = 0;
  size_t recovered_ = 0;
  size_t corrupt_records_ = 0;
  size_t dropped_ = 0;
  size_t compactions_ = 0;
  uint64_t hits_ = 0;
  uint64_t writes_ = 0;
};

/// Chase-outcome record bodies (the store itself is body-agnostic). The
/// serialization reuses the checkpoint text helpers — SerializeQuery for the
/// chased result, the AppendTraceLines writer for the trace — so a record is
/// the same dialect a parked checkpoint uses:
///
///   failed 0|1
///   result <SerializeQuery>
///   trace <SerializeStepRecord>     (zero or more)
///   end
std::string SerializeChaseOutcomeBody(const ChaseOutcome& outcome);
Result<ChaseOutcome> ParseChaseOutcomeBody(std::string_view body);

}  // namespace sqleq

#endif  // SQLEQ_CHASE_MEMO_STORE_H_
