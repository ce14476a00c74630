#include "chase/chase_cache.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "chase/checkpoint.h"
#include "chase/memo_store.h"
#include "util/fault.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

uint64_t Fnv64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string ContextPrefix(std::string_view context_fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv64(context_fingerprint)));
  return std::string("ctx:") + hex + "|";
}

/// Writes evicted entries to the disk tier. Thanks to the write-through at
/// insert time this is normally a dedupe no-op inside MemoStore::Put; it
/// only really writes when the insert-time spill failed (e.g. under an
/// injected write fault). Failures are swallowed: losing a spill costs a
/// future re-chase, nothing else.
void SpillEvicted(
    const std::shared_ptr<MemoStore>& store,
    const std::vector<std::pair<std::string, std::shared_ptr<const ChaseOutcome>>>&
        spilled) {
  if (store == nullptr) return;
  for (const auto& [disk_key, outcome] : spilled) {
    (void)store->Put(disk_key, SerializeChaseOutcomeBody(*outcome));
  }
}

/// memo.hits / memo.misses, mirroring the live Stats counters (and sharing
/// their caveat: concurrent misses of one key are both counted).
void CountMemoLookup(MetricsRegistry* metrics, bool hit) {
  if (metrics == nullptr) return;
  metrics->counter(hit ? metric::kMemoHits : metric::kMemoMisses).Add();
}

/// The retained footprint estimate of one entry: canonical key plus
/// rendered chase result. Computed before taking the memo lock.
size_t EntryBytes(const std::string& key, const ChaseOutcome& outcome) {
  return key.size() + outcome.result.ToString().size();
}

/// memo.inserts / memo.bytes for a winning insert of `bytes` (EntryBytes).
void CountMemoInsert(MetricsRegistry* metrics, size_t bytes) {
  if (metrics == nullptr) return;
  metrics->counter(metric::kMemoInserts).Add();
  metrics->counter(metric::kMemoBytes).Add(bytes);
}

/// Per-call runtime for the memo's inner SoundChase: a resume checkpoint is
/// honored only when stamped for this key, so a checkpoint captured for one
/// query can never be replayed into another's chase.
ChaseRuntime RuntimeForKey(const ChaseRuntime& runtime, const std::string& key) {
  ChaseRuntime inner = runtime;
  if (inner.resume != nullptr && inner.resume->subject != key) {
    inner.resume = nullptr;
  }
  return inner;
}

/// Stamps a captured checkpoint with the canonical key it belongs to.
void StampSubject(const ChaseRuntime& runtime, const std::string& key) {
  if (runtime.checkpoint_out != nullptr && runtime.checkpoint_out->has_value()) {
    (*runtime.checkpoint_out)->subject = key;
  }
}

/// Renders one atom under a partial variable renaming: constants as
/// "c<literal>", renamed variables by their canonical name, not-yet-renamed
/// variables as "u0", "u1", ... numbered by first occurrence *within this
/// atom*. Two atoms get equal signatures iff they are equal up to a
/// renaming of the not-yet-canonicalized variables.
std::string AtomSignature(const Atom& atom, const TermMap& to_canonical) {
  std::string sig = atom.predicate();
  sig += '(';
  TermMap local;
  size_t next_local = 0;
  for (size_t i = 0; i < atom.arity(); ++i) {
    Term t = atom.args()[i];
    if (i > 0) sig += ',';
    if (t.IsConstant()) {
      sig += 'c';
      sig += t.ToString();
      continue;
    }
    auto it = to_canonical.find(t);
    if (it != to_canonical.end()) {
      sig += it->second.ToString();
      continue;
    }
    auto lit = local.find(t);
    if (lit == local.end()) {
      lit = local.emplace(t, Term::Var("u" + std::to_string(next_local++))).first;
    }
    sig += lit->second.ToString();
  }
  sig += ')';
  return sig;
}

/// Renders a fully canonicalized atom (every variable already a ?k name):
/// the key segment must use the global canonical names, not AtomSignature's
/// per-atom u-locals, or distinct queries would collide.
std::string CommittedSignature(const Atom& atom) {
  std::string sig = atom.predicate();
  sig += '(';
  for (size_t i = 0; i < atom.arity(); ++i) {
    if (i > 0) sig += ',';
    Term t = atom.args()[i];
    if (t.IsConstant()) sig += 'c';
    sig += t.ToString();
  }
  sig += ')';
  return sig;
}

}  // namespace

std::string CanonicalQueryKey(const ConjunctiveQuery& q,
                              ConjunctiveQuery* out_canonical,
                              TermMap* out_from_canonical) {
  TermMap to_canonical;
  size_t next_id = 0;
  auto canonical_of = [&](Term v) -> Term {
    auto it = to_canonical.find(v);
    if (it != to_canonical.end()) return it->second;
    Term c = Term::Var("?" + std::to_string(next_id++));
    to_canonical.emplace(v, c);
    return c;
  };

  // Head first, position order: head positions anchor the labelling.
  std::string key = "H";
  std::vector<Term> head;
  head.reserve(q.head().size());
  for (Term t : q.head()) {
    Term mapped = t.IsVariable() ? canonical_of(t) : t;
    head.push_back(mapped);
    key += t.IsConstant() ? "c" + t.ToString() : mapped.ToString();
    key += ';';
  }

  // Body: repeatedly commit the atom with the least signature under the
  // current partial renaming. Invariant under input atom order; ties carry
  // equal signatures, so either choice extends the renaming identically —
  // we take the lowest index for determinism.
  std::vector<Atom> remaining = q.body();
  std::vector<Atom> body;
  body.reserve(remaining.size());
  while (!remaining.empty()) {
    size_t best = 0;
    std::string best_sig = AtomSignature(remaining[0], to_canonical);
    for (size_t i = 1; i < remaining.size(); ++i) {
      std::string sig = AtomSignature(remaining[i], to_canonical);
      if (sig < best_sig) {
        best = i;
        best_sig = std::move(sig);
      }
    }
    std::vector<Term> args;
    args.reserve(remaining[best].arity());
    for (Term t : remaining[best].args()) {
      args.push_back(t.IsVariable() ? canonical_of(t) : t);
    }
    Atom committed(remaining[best].predicate(), std::move(args));
    key += '|';
    key += CommittedSignature(committed);
    body.push_back(std::move(committed));
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best));
  }

  if (out_canonical != nullptr) {
    // Canonical heads/bodies come from a safe query, so Make cannot fail.
    *out_canonical = ConjunctiveQuery::Make("Qc", std::move(head), std::move(body));
  }
  if (out_from_canonical != nullptr) {
    out_from_canonical->clear();
    for (const auto& [orig, canon] : to_canonical) {
      out_from_canonical->emplace(canon, orig);
    }
  }
  return key;
}

void ChaseMemo::set_byte_limit(size_t byte_limit) {
  std::vector<SpilledEntry> spilled;
  std::shared_ptr<MemoStore> store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    byte_limit_ = byte_limit;
    store = store_;
    EvictLocked(nullptr, &spilled);
  }
  SpillEvicted(store, spilled);
}

void ChaseMemo::AttachStore(std::shared_ptr<MemoStore> store,
                            std::string_view context_fingerprint) {
  if (store == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    store_.reset();
    disk_prefix_.clear();
    return;
  }
  std::string prefix = ContextPrefix(context_fingerprint);
  const std::string sentinel_key = prefix + "@context";
  Result<std::optional<std::string>> existing = store->Get(sentinel_key);
  if (existing.ok() && existing->has_value() &&
      **existing != context_fingerprint) {
    // Fingerprint hash collision with a different chase context already in
    // the store: leave the disk tier detached rather than risk serving
    // another context's outcomes.
    return;
  }
  if (!existing.ok() || !existing->has_value()) {
    // Claim the prefix. A failed claim (e.g. injected write fault) is fine:
    // the next attach retries, and unclaimed prefixes only forgo the
    // collision check above.
    (void)store->Put(sentinel_key, std::string(context_fingerprint));
  }
  std::lock_guard<std::mutex> lock(mu_);
  store_ = std::move(store);
  disk_prefix_ = std::move(prefix);
}

void ChaseMemo::EvictLocked(MetricsRegistry* metrics,
                            std::vector<SpilledEntry>* spilled) {
  // Never evict the front (most recently touched) entry: a single outcome
  // larger than the limit must still cache, or hot loops would re-chase it
  // on every call.
  while (byte_limit_ > 0 && bytes_ > byte_limit_ && cache_.size() > 1) {
    auto it = cache_.find(*lru_.back());
    if (store_ != nullptr && spilled != nullptr) {
      spilled->emplace_back(disk_prefix_ + it->first, it->second.outcome);
    }
    bytes_ -= it->second.bytes;
    ++evictions_;
    if (metrics != nullptr) metrics->counter(metric::kMemoEvictions).Add();
    lru_.pop_back();
    cache_.erase(it);
  }
}

std::pair<std::shared_ptr<const ChaseOutcome>, bool> ChaseMemo::InsertLocked(
    const std::string& key, std::shared_ptr<const ChaseOutcome> entry, size_t bytes,
    MetricsRegistry* metrics, std::vector<SpilledEntry>* spilled) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Concurrent miss of the same key: the first insert won; adopt it.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return {it->second.outcome, false};
  }
  it = cache_.emplace(key, Entry{std::move(entry), bytes, {}}).first;
  lru_.push_front(&it->first);
  it->second.lru = lru_.begin();
  bytes_ += bytes;
  auto outcome = it->second.outcome;
  EvictLocked(metrics, spilled);
  return {std::move(outcome), true};
}

Result<std::shared_ptr<const ChaseOutcome>> ChaseMemo::LookupOrChase(
    const ConjunctiveQuery& q, std::string* out_key, TermMap* from_canonical,
    const ChaseRuntime& runtime, const SigmaSlice* envelope) {
  ConjunctiveQuery canonical = q;  // overwritten by CanonicalQueryKey
  const std::string subject = CanonicalQueryKey(q, &canonical, from_canonical);
  // Two body shapes that slice Σ differently must never share an entry;
  // shapes that slice identically still can (the slice is a function of the
  // shape, so this is a refinement, not a correctness need — but it keeps
  // cache keys self-describing in stats). The slice is handed back to Run()
  // below so each candidate is sliced once. A caller's envelope slice
  // short-circuits even that: one slice, one kernel subset, for a whole
  // backchase sweep.
  const SigmaSlice* slice =
      envelope != nullptr ? envelope : &plan_.SliceFor(canonical);
  std::string key = subject;
  key += "|slice:";
  key += slice->Signature();
  if (out_key != nullptr) *out_key = key;
  std::shared_ptr<const ChaseOutcome> cached;
  std::shared_ptr<MemoStore> store;
  std::string disk_key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      cached = it->second.outcome;
    } else {
      ++misses_;
      store = store_;
      if (store != nullptr) disk_key = disk_prefix_ + key;
    }
  }
  CountMemoLookup(runtime.metrics, /*hit=*/cached != nullptr);
  if (cached != nullptr) return cached;

  // Tier-2: consult the disk store before re-chasing. A hit is parsed back
  // from the checkpoint text dialect and re-promoted into the memory tier
  // under the same slice-suffixed key. The promotion charges the memory
  // tier's live bytes but deliberately not memo.inserts/memo.bytes (the
  // outcome was not freshly chased) and writes nothing back to disk — a
  // re-promotion never double-counts. Read failures, injected or real,
  // degrade to a cold chase.
  if (store != nullptr) {
    Result<std::optional<std::string>> body =
        store->Get(disk_key, runtime.metrics);
    if (body.ok() && body->has_value()) {
      Result<ChaseOutcome> parsed = ParseChaseOutcomeBody(**body);
      // The record's nulls were minted under another process's counter:
      // reserve them, so this process never mints one of them again.
      if (parsed.ok() && ReserveFreshNames(parsed->result).ok()) {
        auto promoted = std::make_shared<const ChaseOutcome>(
            ChaseOutcome{std::move(parsed->result), {}, parsed->failed});
        const size_t bytes = EntryBytes(key, *promoted);
        std::vector<SpilledEntry> spilled;
        std::shared_ptr<const ChaseOutcome> winner;
        {
          std::lock_guard<std::mutex> lock(mu_);
          winner = InsertLocked(key, std::move(promoted), bytes, runtime.metrics,
                                &spilled)
                       .first;
        }
        SpillEvicted(store, spilled);
        return winner;
      }
    }
  }

  // Chase outside the lock: other keys (and even this key, on a concurrent
  // miss) may be chased in parallel; the first insert wins.
  // Checkpoint subjects use the plain canonical key, not the slice-suffixed
  // memo key: the slice is a function of the canonical body (and slicing is
  // trace-invariant), so a checkpoint resumes correctly under any slice
  // while still never replaying into a different query.
  ChaseRuntime inner = RuntimeForKey(runtime, subject);
  Result<ChaseOutcome> outcome = plan_.Run(canonical, inner, *slice);
  if (!outcome.ok()) {
    StampSubject(inner, subject);
    return outcome.status();
  }
  SQLEQ_RETURN_IF_ERROR(
      ProbeSite(runtime.faults, runtime.cancel, fault_sites::kMemoInsert));
  // A copy, not a move: the chase grew the body in place, and a resident
  // entry should not keep the growth slack.
  auto entry = std::make_shared<const ChaseOutcome>(
      ChaseOutcome{outcome->result, {}, outcome->failed});
  const size_t bytes = EntryBytes(key, *entry);
  bool inserted = false;
  std::vector<SpilledEntry> spilled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::tie(entry, inserted) =
        InsertLocked(key, std::move(entry), bytes, runtime.metrics, &spilled);
  }
  if (inserted) {
    CountMemoInsert(runtime.metrics, bytes);
    // Write-through: a freshly chased outcome spills immediately, so a
    // later eviction is a dedupe no-op and a crash right now loses nothing
    // already paid for. Failures cost a future re-chase only.
    if (store != nullptr) {
      (void)store->Put(disk_key, SerializeChaseOutcomeBody(*entry),
                       runtime.metrics);
    }
  }
  SpillEvicted(store, spilled);
  return entry;
}

Result<std::shared_ptr<const ChaseOutcome>> ChaseMemo::ChaseCanonical(
    const ConjunctiveQuery& q, std::string* out_key, const ChaseRuntime& runtime,
    const SigmaSlice* envelope) {
  return LookupOrChase(q, out_key, /*from_canonical=*/nullptr, runtime, envelope);
}

Result<ChaseOutcome> ChaseMemo::Chase(const ConjunctiveQuery& q,
                                      const ChaseRuntime& runtime) {
  TermMap from_canonical;
  SQLEQ_ASSIGN_OR_RETURN(
      std::shared_ptr<const ChaseOutcome> entry,
      LookupOrChase(q, /*out_key=*/nullptr, &from_canonical, runtime,
                    /*envelope=*/nullptr));
  // Canonical variables map back to the caller's. Every other variable is a
  // null the chase minted; one named like a caller variable (the caller
  // wrote Z#0 and the chase minted Z#0) takes a fresh name rather than merge
  // with it. The caller set is built at the first null, so a result without
  // nulls pays nothing.
  std::unordered_set<Term, TermHash> callers;
  TermMap renamed_nulls;
  auto image = [&](Term t) -> Term {
    if (auto it = from_canonical.find(t); it != from_canonical.end()) return it->second;
    if (t.IsConstant()) return t;
    if (callers.empty()) {
      for (const auto& [canonical, caller] : from_canonical) callers.insert(caller);
    }
    if (!callers.contains(t)) return t;
    Term& renamed = renamed_nulls.try_emplace(t, t).first->second;
    while (callers.contains(renamed)) {
      std::string_view name = t.name();
      renamed = Term::FreshVar(name.substr(0, name.rfind('#')));
    }
    return renamed;
  };
  return ChaseOutcome{entry->result.Substitute(image).WithName(q.name()), {},
                      entry->failed};
}

ChaseMemo::Stats ChaseMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, cache_.size(), bytes_, evictions_, byte_limit_};
}

}  // namespace sqleq
