// Chase memoization. Sound chase results are pure functions of (query, Σ,
// semantics, schema) — Thm 5.1 / G.1 make them unique up to the
// semantics' equivalence — so a memo cache over a
// renaming- and atom-order-invariant canonical form of the query is sound:
// isomorphic queries share one chase. EquivalenceEngine keeps one memo per
// chase context; equivalence checks and reformulation (the universal-plan
// chase and every backchase candidate) all chase through it. Entries carry
// no trace: no memoized caller reads one (EXPLAIN chases uncached).
#ifndef SQLEQ_CHASE_CHASE_CACHE_H_
#define SQLEQ_CHASE_CHASE_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chase/chase_plan.h"
#include "chase/sound_chase.h"

namespace sqleq {

class MemoStore;

/// A canonical form of `q`: variables renamed to ?0, ?1, ... and body atoms
/// reordered by a greedy least-signature labelling, so any two queries that
/// differ only by variable naming and atom order (and usually any two
/// isomorphic queries) canonicalize identically. The key does NOT include
/// the query name. `out_canonical` (optional) receives the canonicalized
/// query; `out_from_canonical` (optional) the canonical→original variable
/// map.
std::string CanonicalQueryKey(const ConjunctiveQuery& q,
                              ConjunctiveQuery* out_canonical = nullptr,
                              TermMap* out_from_canonical = nullptr);

/// Ignored: a ChaseMemo holds no chase configuration. Kept only so callers
/// that still pass `ChaseOptions{}` (or `{}`) as ChaseMemo's fourth
/// constructor argument compile.
struct ChaseOptions {};

/// Thread-safe memo of sound-chase outcomes for one fixed chase context
/// (Σ, semantics, schema). Outcomes are cached in canonical variable space;
/// Chase() maps them back onto the caller's variables. Budgets and
/// deadlines apply per run (ChaseRuntime::budget), to cache-miss chases
/// only.
///
/// Retained footprint is bounded when a byte limit is set (`byte_limit`
/// constructor argument or set_byte_limit): each entry is charged its
/// canonical key plus the rendered chase result — the same estimate the
/// memo.bytes metric uses — and least-recently-used entries are evicted
/// until the total fits. The most recently touched entry is never evicted,
/// so a single oversized outcome still caches. Limit 0 means unbounded
/// (the pre-existing behavior; fine for one-shot CLI calls, required to be
/// finite for process-lifetime memos like the sqleqd server's).
class ChaseMemo {
 public:
  /// Compiles a ChasePlan for the context and memoizes its runs.
  ChaseMemo(DependencySet sigma, Semantics semantics, Schema schema, ChaseOptions,
            size_t byte_limit = 0)
      : plan_(std::move(sigma), semantics, std::move(schema)),
        byte_limit_(byte_limit) {}

  /// Re-bounds the memo; shrinking evicts LRU entries immediately (counted
  /// in stats().evictions, but not in the memo.evictions metric — there is
  /// no runtime in scope). 0 removes the bound.
  void set_byte_limit(size_t byte_limit);

  /// Attaches a tier-2 on-disk store (chase/memo_store.h): memory misses
  /// consult it (disk hits are parsed back and re-promoted into the memory
  /// tier, slice-suffixed key and all), fresh outcomes are written through,
  /// and LRU evictions spill as a backstop (normally a no-op thanks to the
  /// write-through). Disk failures of any kind degrade to a cold chase,
  /// never an error. `context_fingerprint` names the chase context (Σ,
  /// semantics, schema); records live under a fingerprint-derived
  /// key prefix, and a sentinel record pins the prefix to the full
  /// fingerprint so a hash collision between contexts detaches the tier
  /// instead of mixing outcomes. nullptr detaches.
  void AttachStore(std::shared_ptr<MemoStore> store,
                   std::string_view context_fingerprint);

  /// Memoized SoundChase of `q`, returned in canonical variable space (NOT
  /// remapped to q's variables) — sufficient for every isomorphism-invariant
  /// use (the equivalence tests of Thms 2.2/6.1/6.2). Shared pointer: the
  /// outcome may be handed to many threads. `out_key` (optional) receives
  /// the canonical key, letting callers do their own deterministic hit
  /// accounting. Statuses (step budget, deadline) are never cached.
  ///
  /// `envelope` (optional): chase under this slice of the plan
  /// (`plan().SliceFor(e)`) instead of q's own; its signature goes into the
  /// key. Sound exactly when q is a sub-conjunction of `e` up to renaming —
  /// the backchase invariant (slices are monotone in the body), so a
  /// lattice sweep shares one kernel subset. Per call, so concurrent sweeps
  /// on one memo never see each other's.
  ///
  /// `runtime` (chase/set_chase.h) threads the anytime hooks through the
  /// cache-miss chase: captured checkpoints are stamped with the canonical
  /// key as `subject` and live in canonical variable space, and a
  /// runtime.resume checkpoint is applied only when its subject matches the
  /// query being chased (mismatches start cold — never corrupt). The
  /// "memo.insert" fault site fires before a freshly chased outcome is
  /// inserted.
  Result<std::shared_ptr<const ChaseOutcome>> ChaseCanonical(
      const ConjunctiveQuery& q, std::string* out_key = nullptr,
      const ChaseRuntime& runtime = {}, const SigmaSlice* envelope = nullptr);

  /// Memoized SoundChase of `q` with the result mapped back onto q's
  /// variables and name; chase-introduced fresh variables pass through
  /// unchanged, except one named like a variable of q, which is renamed to
  /// a fresh variable. Checkpoints behave as in ChaseCanonical (canonical
  /// space, subject-stamped).
  Result<ChaseOutcome> Chase(const ConjunctiveQuery& q,
                             const ChaseRuntime& runtime = {});

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    /// Approximate retained bytes of the live entries.
    size_t bytes = 0;
    /// Entries evicted to honor the byte limit, lifetime total.
    size_t evictions = 0;
    size_t byte_limit = 0;
  };
  /// Live counters. Under concurrent misses of one key both misses are
  /// counted (the first insert wins); use CanonicalQueryKey-based accounting
  /// for deterministic numbers.
  Stats stats() const;

  Semantics semantics() const { return plan_.semantics(); }
  /// The compiled plan cache misses chase through.
  const ChasePlan& plan() const { return plan_; }

 private:
  struct Entry {
    std::shared_ptr<const ChaseOutcome> outcome;
    size_t bytes = 0;
    /// Position in lru_ (front = most recently used).
    std::list<const std::string*>::iterator lru;
  };

  /// (disk key, outcome) of an entry evicted under mu_; spilled to the
  /// disk tier after unlocking.
  using SpilledEntry =
      std::pair<std::string, std::shared_ptr<const ChaseOutcome>>;

  /// The shared lookup core behind Chase/ChaseCanonical: memory tier, then
  /// disk tier (with re-promotion), then a fresh chase (with write-through).
  Result<std::shared_ptr<const ChaseOutcome>> LookupOrChase(
      const ConjunctiveQuery& q, std::string* out_key, TermMap* from_canonical,
      const ChaseRuntime& runtime, const SigmaSlice* envelope);

  /// Inserts (or returns the concurrent winner of) `key`, charging it
  /// `bytes` (its footprint estimate, rendered before taking the lock);
  /// runs eviction. Returns the cached outcome and whether this call
  /// inserted it.
  std::pair<std::shared_ptr<const ChaseOutcome>, bool> InsertLocked(
      const std::string& key, std::shared_ptr<const ChaseOutcome> entry, size_t bytes,
      MetricsRegistry* metrics, std::vector<SpilledEntry>* spilled);

  /// Evicts LRU entries (never the front) until the limit holds, recording
  /// victims in `spilled` (may be null) when a store is attached. Caller
  /// holds mu_.
  void EvictLocked(MetricsRegistry* metrics,
                   std::vector<SpilledEntry>* spilled);

  const ChasePlan plan_;

  mutable std::mutex mu_;
  /// Tier-2 store and the context-fingerprint key prefix; both set by
  /// AttachStore under mu_ and copied out under mu_ before disk I/O.
  std::shared_ptr<MemoStore> store_;
  std::string disk_prefix_;
  std::unordered_map<std::string, Entry> cache_;
  /// The cache_ keys (stable node addresses), most recently used first.
  std::list<const std::string*> lru_;
  size_t byte_limit_ = 0;
  size_t bytes_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
};

}  // namespace sqleq

#endif  // SQLEQ_CHASE_CHASE_CACHE_H_
