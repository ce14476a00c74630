// The traced run's in-process replay (README.md, "Traced run"): the traced
// phase's requests, replayed through the public functions of each layer in
// the order sqleqd calls them, one ChaseMemo per (Σ, semantics) context with
// the daemon's byte limit and, where the workload has one, a MemoStore with
// the daemon's options. Spans are recorded from here, around the calls;
// nothing inside the library is instrumented.
#include <memory>
#include <utility>

#include "chase/chase_cache.h"
#include "chase/chase_plan.h"
#include "chase/memo_store.h"
#include "equivalence/engine.h"
#include "harness.h"
#include "reformulation/candb.h"
#include "service/routing.h"
#include "util/telemetry.h"

namespace e2ebench {
namespace {

using sqleq::ChaseMemo;
using sqleq::ChaseOutcome;
using sqleq::ConjunctiveQuery;
using sqleq::Semantics;

double UsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

int SemanticsIndex(Semantics s) {
  switch (s) {
    case Semantics::kSet:
      return 0;
    case Semantics::kBag:
      return 1;
    default:
      return 2;
  }
}

/// One memo lookup as the replay measured it.
struct LookupSample {
  double key_us = 0.0;
  double slice_us = 0.0;
  double call_us = 0.0;
  double chase_us = 0.0;  ///< fresh ChasePlan::Run, misses only
  enum class Tier { kMemory, kDisk, kMiss } tier = Tier::kMiss;
};

class Replayer {
 public:
  Replayer(const ReplayInput& input, SpanLog* log) : in_(input), log_(log) {
    if (!in_.store_dir.empty()) {
      sqleq::MemoStoreOptions options;
      options.dir = in_.store_dir;
      options.fsync_each_put = false;
      sqleq::Result<std::unique_ptr<sqleq::MemoStore>> store =
          sqleq::MemoStore::Open(std::move(options));
      if (store.ok()) store_ = std::shared_ptr<sqleq::MemoStore>(std::move(*store));
    }
    const Semantics all[3] = {Semantics::kSet, Semantics::kBag, Semantics::kBagSet};
    for (Semantics s : all) {
      auto memo = std::make_shared<ChaseMemo>(in_.catalog->sigma, s, in_.catalog->schema,
                                              sqleq::ChaseOptions{},
                                              in_.corpus->memo_bytes);
      if (store_ != nullptr) {
        memo->AttachStore(store_, std::string("e2ebench-replay-") +
                                      sqleq::service::SemanticsWireName(s));
      }
      memos_[SemanticsIndex(s)] = std::move(memo);
    }
    if (in_.corpus->fleet) {
      std::vector<sqleq::service::ShardId> shards;
      for (size_t i = 0; i < in_.corpus->shards; ++i) {
        shards.push_back({"s" + std::to_string(i), "127.0.0.1", 1 + static_cast<int>(i)});
      }
      ring_ = sqleq::service::HashRing(std::move(shards));
    }
  }

  ReplayResult Run() {
    // Bring the replay memos to the daemon's post-set-up state, untraced.
    SpanLog* saved = log_;
    log_ = nullptr;
    for (uint32_t w : in_.corpus->warmup) Request(in_.corpus->items[w], 0, nullptr);
    log_ = saved;
    lookups_.clear();

    const uint64_t start = NowNs();
    ReplayResult out;
    for (const Record* rec : in_.requests) {
      if (static_cast<double>(NowNs() - start) / 1e9 > in_.budget_s) break;
      if (!rec->traced) {
        // Keeps the memos in step with the daemon's; not measured.
        log_ = nullptr;
        Request(in_.corpus->items[rec->item], 0, nullptr);
        log_ = saved;
        continue;
      }
      ++out.requests;
      Request(in_.corpus->items[rec->item], out.requests, rec);
    }
    out.layers = CollectLayers({log_});
    Derive(out);
    return out;
  }

 private:
  void Request(const Item& item, uint64_t rid, const Record* rec) {
    ScopedSpan request(log_, "request", rid);
    std::string line;
    {
      ScopedSpan span(log_, "protocol.encode", rid);
      sqleq::Result<std::string> encoded = sqleq::service::EncodeRequest(SpecFor(item));
      if (encoded.ok()) line = *std::move(encoded);
    }
    sqleq::Result<sqleq::service::Request> parsed = sqleq::Status::Internal("unset");
    {
      ScopedSpan span(log_, "protocol.parse", rid);
      parsed = sqleq::service::ParseRequest(line);
    }
    if (ring_.has_value() && parsed.ok()) {
      ScopedSpan span(log_, "routing.signature", rid);
      (void)ring_->OwnerIndex(
          sqleq::service::CanonicalRequestSignature(parsed->cmd, parsed->body));
    }
    std::optional<ConjunctiveQuery> q1 = Translate(item.q1, "Q1", rid);
    if (item.cmd == "check") {
      std::optional<ConjunctiveQuery> q2 = Translate(item.q2, "Q2", rid);
      if (q1.has_value() && q2.has_value()) Check(item, *q1, *q2, rid);
    } else if (q1.has_value()) {
      Reformulate(item, *q1, rid);
    }
    if (rec != nullptr && !rec->raw.empty()) {
      ScopedSpan span(log_, "protocol.decode", rid);
      (void)sqleq::service::DecodeResponse(rec->raw);
    }
  }

  std::optional<ConjunctiveQuery> Translate(const std::string& sql, const char* name,
                                            uint64_t rid) {
    ScopedSpan span(log_, "sql.translate", rid);
    sqleq::Result<sqleq::sql::TranslatedQuery> t =
        sqleq::sql::TranslateSql(sql, *in_.catalog, name);
    if (!t.ok() || !t->cq.has_value()) return std::nullopt;
    return *std::move(t->cq);
  }

  std::shared_ptr<const ChaseOutcome> TieredLookup(ChaseMemo& memo, const ConjunctiveQuery& q,
                                             bool deep, uint64_t rid) {
    LookupSample l;
    ConjunctiveQuery canonical = q;
    uint64_t t = NowNs();
    {
      ScopedSpan span(log_, "key.canonical", rid);
      (void)sqleq::CanonicalQueryKey(q, &canonical);
    }
    l.key_us = UsSince(t);
    t = NowNs();
    const sqleq::SigmaSlice* slice = nullptr;
    {
      ScopedSpan span(log_, "slice", rid);
      slice = &memo.plan().SliceFor(canonical);
    }
    l.slice_us = UsSince(t);

    sqleq::MetricsRegistry local;
    sqleq::ChaseRuntime runtime;
    runtime.metrics = &local;
    std::shared_ptr<const ChaseOutcome> outcome;
    t = NowNs();
    {
      ScopedSpan span(log_, "memo.lookup", rid);
      sqleq::Result<std::shared_ptr<const ChaseOutcome>> r =
          memo.ChaseCanonical(q, nullptr, runtime);
      if (r.ok()) outcome = *std::move(r);
      if (local.counter(sqleq::metric::kMemoHits).value() > 0) {
        l.tier = LookupSample::Tier::kMemory;
        span.Rename("memo.mem.hit");
      } else if (local.counter(sqleq::metric::kMemoDiskHits).value() > 0) {
        l.tier = LookupSample::Tier::kDisk;
        span.Rename("memo.disk.hit");
      } else {
        span.Rename("memo.miss");
      }
    }
    l.call_us = UsSince(t);
    if (l.tier == LookupSample::Tier::kMiss && log_ != nullptr) {
      // The memo chased inside the call above; a fresh ChasePlan::Run on
      // the same canonical query times the chase layer on its own.
      t = NowNs();
      ScopedSpan span(log_, deep ? "chase.deep.run" : "chase.run", rid);
      sqleq::Result<ChaseOutcome> fresh = memo.plan().Run(canonical, {}, *slice);
      l.chase_us = UsSince(t);
      if (fresh.ok()) {
        fresh_steps_ += static_cast<double>(fresh->trace.size());
        fresh_us_ += l.chase_us;
        if (deep) {
          const int s = SemanticsIndex(memo.semantics());
          deep_us_[s].push_back(l.chase_us);
          deep_steps_[s] = static_cast<double>(fresh->trace.size());
        }
      }
    }
    if (l.tier == LookupSample::Tier::kMemory && log_ != nullptr &&
        ++hits_seen_ % kCounterfactualEvery == 0) {
      // What this hit saved: the chase a miss would have run. Sampled, and
      // kept out of chase.run so the chase layer's numbers stay the misses'.
      ScopedSpan span(log_, "chase.counterfactual", rid);
      t = NowNs();
      (void)memo.plan().Run(canonical, {}, *slice);
      counterfactual_us_.push_back(UsSince(t));
    }
    if (log_ != nullptr) lookups_.push_back(l);
    return outcome;
  }

  void Check(const Item& item, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
             uint64_t rid) {
    ChaseMemo& memo = *memos_[SemanticsIndex(item.semantics)];
    std::shared_ptr<const ChaseOutcome> c1 = TieredLookup(memo, q1, item.deep, rid);
    std::shared_ptr<const ChaseOutcome> c2 = TieredLookup(memo, q2, item.deep, rid);
    if (c1 == nullptr || c2 == nullptr || c1->failed || c2->failed) return;
    ScopedSpan span(log_, "equiv.decide", rid);
    (void)sqleq::ChasedEquivalent(c1->result, c2->result, item.semantics,
                                  in_.catalog->schema);
  }

  void Reformulate(const Item& item, const ConjunctiveQuery& q, uint64_t rid) {
    {
      // What the verb pays before its lattice sweep: a fresh plan compile
      // and the universal-plan chase.
      ScopedSpan span(log_, "candb.chase", rid);
      sqleq::ChasePlan plan(in_.catalog->sigma, item.semantics, in_.catalog->schema);
      (void)plan.Run(q);
    }
    {
      ScopedSpan span(log_, "key.canonical", rid);
      (void)sqleq::CanonicalQueryKey(q);
    }
    ScopedSpan span(log_, "candb", rid);
    sqleq::CandBOptions options;
    options.context.budget.threads = in_.corpus->engine_threads;
    if (in_.corpus->max_candidates > 0) {
      options.context.budget.max_candidates = in_.corpus->max_candidates;
    }
    (void)sqleq::ChaseAndBackchase(q, in_.catalog->sigma, item.semantics,
                                   in_.catalog->schema, options);
  }

  /// Replay-side per-layer numbers and the memory/disk ledger inputs.
  void Derive(ReplayResult& out) {
    auto median = [&out](const char* name) {
      auto it = out.layers.find(name);
      return it == out.layers.end() ? 0.0 : Quantile(it->second.duration_us, 0.5);
    };
    std::map<std::string, double>& m = out.metrics;
    m["protocol.encode_us"] = median("protocol.encode");
    m["protocol.parse_us"] = median("protocol.parse");
    m["protocol.decode_us"] = median("protocol.decode");
    m["sql.translate_us"] = median("sql.translate");
    m["key.canonical_us"] = median("key.canonical");
    m["slice.us"] = median("slice");
    m["memo.mem.hit_us"] = median("memo.mem.hit");
    m["chase.run_us"] = median("chase.run");
    m["chase.deep.run_us"] = median("chase.deep.run");
    m["chase.us_per_step"] = fresh_steps_ > 0 ? fresh_us_ / fresh_steps_ : 0.0;
    m["equiv.decide_us"] = median("equiv.decide");
    m["candb.us"] = median("candb");
    m["candb.chase_us"] = median("candb.chase");
    m["routing.signature_us"] = median("routing.signature");

    size_t retained = 0;
    for (const auto& memo : memos_) retained += memo->stats().bytes;
    m["memo.mem.bytes"] = static_cast<double>(retained);

    // Ledger inputs (README.md, "Per-tier ledger"); the driver combines
    // them with the daemon's counters.
    std::vector<double> probe, mem_hit, not_mem, disk_hit, disk_probe, chase;
    size_t mem_hits = 0, disk_hits = 0;
    for (const LookupSample& l : lookups_) {
      const double overhead = l.key_us + l.slice_us;
      probe.push_back(overhead);
      if (l.tier == LookupSample::Tier::kMemory) {
        ++mem_hits;
        mem_hit.push_back(l.call_us);
        continue;
      }
      not_mem.push_back(std::max(0.0, l.call_us - overhead));
      if (l.tier == LookupSample::Tier::kDisk) {
        ++disk_hits;
        disk_hit.push_back(std::max(0.0, l.call_us - overhead));
      } else {
        chase.push_back(l.chase_us);
        disk_probe.push_back(std::max(0.0, l.call_us - l.chase_us - overhead));
      }
    }
    const double requests = static_cast<double>(std::max<size_t>(1, out.requests));
    const double lookups = static_cast<double>(lookups_.size());
    m["memo.disk.read_us"] = Quantile(disk_hit, 0.5);
    if (lookups > 0) {
      // Without memory misses in the replay, a miss's cost is the sampled
      // counterfactual chase of a hit.
      const double miss_us =
          not_mem.empty() ? Quantile(counterfactual_us_, 0.5) : Mean(not_mem);
      const double h = static_cast<double>(mem_hits) / lookups;
      m["memo.mem.net_us_per_req"] =
          lookups / requests *
          (h * (miss_us - Quantile(mem_hit, 0.5)) - (1 - h) * Quantile(probe, 0.5));
    }
    const double mem_misses = lookups - static_cast<double>(mem_hits);
    if (store_ != nullptr && mem_misses > 0) {
      const double h = static_cast<double>(disk_hits) / mem_misses;
      m["memo.disk.net_us_per_req"] =
          mem_misses / requests *
          (h * (Quantile(chase, 0.5) - Quantile(disk_hit, 0.5)) -
           (1 - h) * Quantile(disk_probe, 0.5));
    }
    m["replay.fresh_chase_us"] = Mean(chase);
    // Calibration against BENCH_chase_scaling m=6 (README.md).
    const char* names[3] = {"set", "bag", "bag-set"};
    for (int i = 0; i < 3; ++i) {
      if (deep_us_[i].empty()) continue;
      m[std::string("calib.deep.") + names[i] + ".run_us"] = Quantile(deep_us_[i], 0.5);
      m[std::string("calib.deep.") + names[i] + ".steps"] = deep_steps_[i];
    }
  }

  const ReplayInput& in_;
  SpanLog* log_;
  std::shared_ptr<sqleq::MemoStore> store_;
  std::shared_ptr<ChaseMemo> memos_[3];
  std::optional<sqleq::service::HashRing> ring_;
  std::vector<LookupSample> lookups_;
  static constexpr size_t kCounterfactualEvery = 16;
  size_t hits_seen_ = 0;
  std::vector<double> counterfactual_us_;
  std::vector<double> deep_us_[3];
  double deep_steps_[3] = {0, 0, 0};
  double fresh_steps_ = 0.0;
  double fresh_us_ = 0.0;
};

}  // namespace

ReplayResult Replay(const ReplayInput& input, SpanLog* log) {
  return Replayer(input, log).Run();
}

}  // namespace e2ebench
