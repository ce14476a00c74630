#include "reformulation/backchase.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "chase/checkpoint.h"
#include "equivalence/isomorphism.h"
#include "util/fault.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

/// Next mask with the same popcount (Gosper's hack); call only with m != 0.
uint64_t NextSamePopcount(uint64_t m) {
  uint64_t c = m & (~m + 1);
  uint64_t r = m + c;
  return (((r ^ m) >> 2) / c) | r;
}

/// True when some mask in `masks` is a subset of `m`.
bool AnySubsetOf(const std::vector<uint64_t>& masks, uint64_t m) {
  return std::any_of(masks.begin(), masks.end(),
                     [m](uint64_t sub) { return (m & sub) == sub; });
}

/// Flushes the sweep's aggregate backchase.* counters on every exit path.
/// Deltas against the resume-carried base keep a resumed sweep from
/// re-counting the prior run's work.
struct SweepMetricsFlusher {
  MetricsRegistry* metrics = nullptr;
  const SweepStats* stats = nullptr;
  const std::vector<uint64_t>* accepted_masks = nullptr;
  const size_t* rejected = nullptr;
  const size_t* chase_failed = nullptr;
  SweepStats base;
  size_t base_accepted = 0;

  ~SweepMetricsFlusher() {
    if (metrics == nullptr) return;
    auto add = [&](const char* name, size_t delta) {
      if (delta > 0) metrics->counter(name).Add(delta);
    };
    add(metric::kBackchaseCandidates,
        stats->candidates_examined - base.candidates_examined);
    add(metric::kBackchaseAccepted, accepted_masks->size() - base_accepted);
    add(metric::kBackchaseRejected, *rejected);
    add(metric::kBackchaseChaseFailed, *chase_failed);
    add(metric::kBackchasePrunedDominance,
        stats->dominance_pruned - base.dominance_pruned);
    add(metric::kBackchasePrunedFailure,
        stats->failure_pruned - base.failure_pruned);
    add(metric::kBackchaseCacheHits,
        stats->chase_cache_hits - base.chase_cache_hits);
    add(metric::kBackchaseCacheMisses,
        stats->chase_cache_misses - base.chase_cache_misses);
  }
};

}  // namespace

std::string BackchaseCheckpoint::Serialize() const {
  std::string out = "sqleq-backchase-checkpoint v1\n";
  out += "next " + std::to_string(cardinality) + " " +
         std::to_string(next_mask) + '\n';
  out += "consumed " + std::to_string(budget_consumed) + '\n';
  out += "stats " + std::to_string(stats.candidates_examined) + " " +
         std::to_string(stats.chase_cache_hits) + " " +
         std::to_string(stats.chase_cache_misses) + " " +
         std::to_string(stats.dominance_pruned) + " " +
         std::to_string(stats.failure_pruned) + '\n';
  for (uint64_t m : accepted_masks) out += "amask " + std::to_string(m) + '\n';
  for (uint64_t m : failed_masks) out += "fmask " + std::to_string(m) + '\n';
  for (const ConjunctiveQuery& q : accepted) {
    out += "accepted " + SerializeQuery(q) + '\n';
  }
  for (const std::string& k : seen_chase_keys) {
    out += "seenkey " + EscapeField(k) + '\n';
  }
  out += "end\n";
  return out;
}

Result<BackchaseCheckpoint> BackchaseCheckpoint::Deserialize(
    std::string_view text) {
  constexpr std::string_view kHeader = "sqleq-backchase-checkpoint v1";
  size_t nl = text.find('\n');
  if (text.substr(0, nl) != kHeader) {
    return Status::InvalidArgument("checkpoint: bad backchase header");
  }
  std::string_view rest =
      nl == std::string_view::npos ? std::string_view() : text.substr(nl + 1);
  // Reads the space-separated decimals of `value` into `outs`, exactly.
  auto numbers = [](std::string_view value, const char* what,
                    std::initializer_list<uint64_t*> outs) -> Status {
    size_t pos = 0;
    size_t parsed = 0;
    for (uint64_t* out : outs) {
      size_t sp = std::min(value.find(' ', pos), value.size());
      if (pos > value.size() || !ParseDecimal(value.substr(pos, sp - pos), out)) break;
      ++parsed;
      pos = sp + 1;
    }
    if (parsed != outs.size() || pos != value.size() + 1) {
      return Status::InvalidArgument(std::string("checkpoint: bad ") + what + " '" +
                                     std::string(value) + "'");
    }
    return Status::OK();
  };
  BackchaseCheckpoint cp;
  uint64_t cardinality = 0;
  uint64_t consumed = 0;
  uint64_t stats[5] = {};
  auto add_mask = [&](std::vector<uint64_t>* masks) {
    return [&numbers, masks](std::string_view value) {
      masks->push_back(0);
      return numbers(value, "mask", {&masks->back()});
    };
  };
  SQLEQ_RETURN_IF_ERROR(ReadKeyedLines(
      rest, "checkpoint",
      {{"next",
        [&](std::string_view value) {
          return numbers(value, "next", {&cardinality, &cp.next_mask});
        }},
       {"consumed",
        [&](std::string_view value) { return numbers(value, "consumed", {&consumed}); }},
       {"stats",
        [&](std::string_view value) {
          return numbers(value, "stats",
                         {&stats[0], &stats[1], &stats[2], &stats[3], &stats[4]});
        }},
       {"amask", add_mask(&cp.accepted_masks)},
       {"fmask", add_mask(&cp.failed_masks)},
       {"accepted",
        [&](std::string_view value) -> Status {
          SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, DeserializeQuery(value));
          cp.accepted.push_back(std::move(q));
          return Status::OK();
        }},
       {"seenkey", [&](std::string_view value) -> Status {
          SQLEQ_ASSIGN_OR_RETURN(std::string k, UnescapeField(value));
          cp.seen_chase_keys.push_back(std::move(k));
          return Status::OK();
        }}}));
  cp.cardinality = cardinality;
  cp.budget_consumed = consumed;
  cp.stats = {stats[0], stats[1], stats[2], stats[3], stats[4]};
  return cp;
}

Result<SweepOutput> SweepBackchaseLattice(
    size_t n, const EngineContext& ctx, const SweepOptions& options,
    const std::function<Result<CandidateVerdict>(uint64_t)>& evaluate) {
  SweepOutput out;
  if (n == 0) return out;
  const ResourceBudget& budget = ctx.budget;
  const uint64_t limit = uint64_t(1) << n;

  std::vector<uint64_t> accepted_masks;
  std::vector<uint64_t> failed_masks;
  std::unordered_set<std::string> seen_keys(options.preseeded_chase_keys.begin(),
                                            options.preseeded_chase_keys.end());
  size_t budget_consumed = 0;
  size_t start_k = 1;
  uint64_t start_mask = 0;  // 0 = start of wave (real masks are never 0)
  if (options.resume != nullptr) {
    const BackchaseCheckpoint& cp = *options.resume;
    auto in_pool = [limit](uint64_t m) { return m < limit; };
    if (cp.next_mask >= limit || (cp.next_mask == 0 && cp.cardinality > n) ||
        !std::all_of(cp.accepted_masks.begin(), cp.accepted_masks.end(), in_pool) ||
        !std::all_of(cp.failed_masks.begin(), cp.failed_masks.end(), in_pool)) {
      return Status::InvalidArgument(
          "backchase checkpoint does not fit a pool of " + std::to_string(n) +
          " candidates");
    }
    accepted_masks = cp.accepted_masks;
    failed_masks = cp.failed_masks;
    out.accepted = cp.accepted;
    out.stats = cp.stats;
    for (const std::string& k : cp.seen_chase_keys) seen_keys.insert(k);
    budget_consumed = cp.budget_consumed;
    start_mask = cp.next_mask;
    start_k = start_mask == 0 ? std::max<size_t>(cp.cardinality, 1)
                              : static_cast<size_t>(std::popcount(start_mask));
  }

  TraceSpan sweep_span(ctx.trace, "backchase.sweep");
  size_t rejected_total = 0;
  size_t chase_failed_total = 0;
  SweepMetricsFlusher flusher;
  flusher.metrics = ctx.metrics;
  flusher.stats = &out.stats;
  flusher.accepted_masks = &accepted_masks;
  flusher.rejected = &rejected_total;
  flusher.chase_failed = &chase_failed_total;
  flusher.base = out.stats;
  flusher.base_accepted = accepted_masks.size();

  // Per-wave tallies for the backchase.level.<k>.* counters, committed when
  // the wave ends or the sweep is cut inside it.
  size_t k = start_k;
  size_t wave_merged = 0;
  size_t wave_pruned = 0;
  size_t wave_accepted = 0;
  auto commit_level = [&] {
    if (ctx.metrics == nullptr) return;
    std::string prefix = "backchase.level." + std::to_string(k) + ".";
    if (wave_merged > 0) ctx.metrics->counter(prefix + "candidates").Add(wave_merged);
    if (wave_pruned > 0) ctx.metrics->counter(prefix + "pruned").Add(wave_pruned);
    if (wave_accepted > 0) ctx.metrics->counter(prefix + "accepted").Add(wave_accepted);
  };

  // Cuts the sweep at `cut_mask`, the first mask not yet merged: everything
  // before it is merged in ascending mask order, so resume-and-finish
  // reproduces the uninterrupted sweep exactly.
  auto cut = [&](uint64_t cut_mask, const Status& status) {
    commit_level();
    out.complete = false;
    out.exhaustion = InferExhaustion(status, "backchase");
    BackchaseCheckpoint cp;
    cp.cardinality = k;
    cp.next_mask = cut_mask;
    cp.accepted_masks = accepted_masks;
    cp.failed_masks = failed_masks;
    cp.accepted = out.accepted;
    cp.stats = out.stats;
    cp.seen_chase_keys.assign(seen_keys.begin(), seen_keys.end());
    std::sort(cp.seen_chase_keys.begin(), cp.seen_chase_keys.end());
    cp.budget_consumed = budget_consumed;
    out.checkpoint = std::move(cp);
  };

  // Masks in ascending order within cardinality waves: a mask is only ever
  // dominated (or failure-pruned) by a strictly smaller one, so every
  // pruning fact it needs is known when it comes up.
  for (; k <= n; ++k) {
    wave_merged = wave_pruned = wave_accepted = 0;
    uint64_t first = (k == start_k && start_mask != 0) ? start_mask
                                                       : (uint64_t(1) << k) - 1;
    for (uint64_t m = first; m < limit; m = NextSamePopcount(m)) {
      Status stop = budget.CheckDeadline("backchase");
      if (stop.ok() && ctx.cancel != nullptr) stop = ctx.cancel->Check("backchase");
      if (!stop.ok()) {
        if (!IsAnytimeStop(stop)) return stop;
        cut(m, stop);
        return out;
      }
      if (AnySubsetOf(accepted_masks, m)) {
        ++out.stats.dominance_pruned;
        ++wave_pruned;
        continue;
      }
      if (options.enable_failure_prune && AnySubsetOf(failed_masks, m)) {
        ++out.stats.failure_pruned;
        ++wave_pruned;
        continue;
      }
      if (budget_consumed >= budget.max_candidates) {
        cut(m, Status::ResourceExhausted("backchase candidate budget exhausted "
                                         "(ResourceBudget::max_candidates=" +
                                         std::to_string(budget.max_candidates) + ")"));
        return out;
      }
      Status probe = ProbeSite(ctx.faults, ctx.cancel, fault_sites::kBackchaseCandidate);
      Result<CandidateVerdict> r =
          probe.ok() ? evaluate(m) : Result<CandidateVerdict>(std::move(probe));
      if (!r.ok()) {
        // Anytime stops (a chase budget tripping inside the candidate,
        // cancellation, injected exhaustion) cut here; real errors propagate.
        if (!IsAnytimeStop(r.status())) return r.status();
        cut(m, r.status());
        return out;
      }
      ++budget_consumed;
      ++wave_merged;
      CandidateVerdict& verdict = *r;
      if (!verdict.chase_key.empty()) {
        if (seen_keys.insert(verdict.chase_key).second) {
          ++out.stats.chase_cache_misses;
        } else {
          ++out.stats.chase_cache_hits;
        }
      }
      switch (verdict.outcome) {
        case CandidateOutcome::kSkipped:
          break;
        case CandidateOutcome::kRejected:
          ++out.stats.candidates_examined;
          ++rejected_total;
          break;
        case CandidateOutcome::kChaseFailed:
          ++out.stats.candidates_examined;
          ++chase_failed_total;
          if (options.enable_failure_prune) failed_masks.push_back(m);
          break;
        case CandidateOutcome::kAccepted: {
          ++out.stats.candidates_examined;
          ++wave_accepted;
          accepted_masks.push_back(m);
          bool duplicate = false;
          for (const ConjunctiveQuery& prior : out.accepted) {
            if (AreIsomorphic(prior, *verdict.query)) {
              duplicate = true;
              break;
            }
          }
          if (!duplicate) out.accepted.push_back(std::move(*verdict.query));
          break;
        }
      }
    }
    commit_level();
  }
  return out;
}

}  // namespace sqleq
