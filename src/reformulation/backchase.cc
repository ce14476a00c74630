#include "reformulation/backchase.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "chase/checkpoint.h"
#include "equivalence/isomorphism.h"
#include "util/fault.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace sqleq {
namespace {

/// Next mask with the same popcount (Gosper's hack); call only with m != 0.
uint64_t NextSamePopcount(uint64_t m) {
  uint64_t c = m & (~m + 1);
  uint64_t r = m + c;
  return (((r ^ m) >> 2) / c) | r;
}

/// Flushes the sweep's aggregate backchase.* counters on every exit path.
/// Deltas against the resume-carried base keep a resumed sweep from
/// re-counting the prior run's work; the sources are all maintained by the
/// serial merge, so the flushed totals are thread-count invariant.
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

Result<size_t> ParseSize(std::string_view s, const char* what) {
  size_t value = 0;
  if (s.empty()) {
    return Status::InvalidArgument(std::string("checkpoint: empty ") + what);
  }
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string("checkpoint: bad ") + what +
                                     " '" + std::string(s) + "'");
    }
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  return value;
}

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
  BackchaseCheckpoint cp;
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  if (lines.empty() || lines[0] != "sqleq-backchase-checkpoint v1") {
    return Status::InvalidArgument("checkpoint: bad backchase header");
  }
  bool saw_end = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      return Status::InvalidArgument("checkpoint: malformed backchase line");
    }
    std::string_view key = line.substr(0, space);
    std::string_view value = line.substr(space + 1);
    if (key == "next") {
      size_t mid = value.find(' ');
      if (mid == std::string_view::npos) {
        return Status::InvalidArgument("checkpoint: malformed next line");
      }
      SQLEQ_ASSIGN_OR_RETURN(cp.cardinality,
                             ParseSize(value.substr(0, mid), "cardinality"));
      SQLEQ_ASSIGN_OR_RETURN(size_t mask,
                             ParseSize(value.substr(mid + 1), "mask"));
      cp.next_mask = mask;
    } else if (key == "consumed") {
      SQLEQ_ASSIGN_OR_RETURN(cp.budget_consumed, ParseSize(value, "consumed"));
    } else if (key == "stats") {
      std::vector<size_t> nums;
      size_t pos = 0;
      while (pos <= value.size()) {
        size_t sp = value.find(' ', pos);
        if (sp == std::string_view::npos) sp = value.size();
        SQLEQ_ASSIGN_OR_RETURN(size_t v,
                               ParseSize(value.substr(pos, sp - pos), "stat"));
        nums.push_back(v);
        pos = sp + 1;
      }
      if (nums.size() != 5) {
        return Status::InvalidArgument("checkpoint: malformed stats line");
      }
      cp.stats.candidates_examined = nums[0];
      cp.stats.chase_cache_hits = nums[1];
      cp.stats.chase_cache_misses = nums[2];
      cp.stats.dominance_pruned = nums[3];
      cp.stats.failure_pruned = nums[4];
    } else if (key == "amask") {
      SQLEQ_ASSIGN_OR_RETURN(size_t m, ParseSize(value, "mask"));
      cp.accepted_masks.push_back(m);
    } else if (key == "fmask") {
      SQLEQ_ASSIGN_OR_RETURN(size_t m, ParseSize(value, "mask"));
      cp.failed_masks.push_back(m);
    } else if (key == "accepted") {
      SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, DeserializeQuery(value));
      cp.accepted.push_back(std::move(q));
    } else if (key == "seenkey") {
      SQLEQ_ASSIGN_OR_RETURN(std::string k, UnescapeField(value));
      cp.seen_chase_keys.push_back(std::move(k));
    } else {
      return Status::InvalidArgument("checkpoint: unknown backchase key '" +
                                     std::string(key) + "'");
    }
  }
  if (!saw_end) return Status::InvalidArgument("checkpoint: truncated");
  return cp;
}

Result<SweepOutput> SweepBackchaseLattice(
    size_t n, const EngineContext& ctx, const SweepOptions& options,
    const std::function<Result<CandidateVerdict>(uint64_t)>& evaluate) {
  SweepOutput out;
  if (n == 0) return out;
  const ResourceBudget& budget = ctx.budget;

  std::vector<uint64_t> accepted_masks;
  std::vector<uint64_t> failed_masks;
  std::unordered_set<std::string> seen_keys(options.preseeded_chase_keys.begin(),
                                            options.preseeded_chase_keys.end());
  size_t budget_consumed = 0;
  size_t start_k = 1;
  uint64_t start_mask = 0;  // 0 = start of wave (real masks are never 0)
  if (options.resume != nullptr) {
    const BackchaseCheckpoint& cp = *options.resume;
    accepted_masks = cp.accepted_masks;
    failed_masks = cp.failed_masks;
    out.accepted = cp.accepted;
    out.stats = cp.stats;
    for (const std::string& k : cp.seen_chase_keys) seen_keys.insert(k);
    budget_consumed = cp.budget_consumed;
    start_mask = cp.next_mask;
    start_k = start_mask == 0
                  ? cp.cardinality
                  : static_cast<size_t>(std::popcount(start_mask));
    if (start_k == 0) start_k = 1;
    if (start_k > n) return out;  // checkpoint was taken past the last wave
  }
  const uint64_t limit = uint64_t(1) << n;

  TraceSpan sweep_span(ctx.trace, "backchase.sweep");
  // Merge-phase tallies for the registry (serial, hence thread-count
  // invariant), flushed as deltas on every exit path.
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

  // Per-wave tallies for the backchase.level.<k>.* counters, committed at
  // the same points as the SweepStats they mirror.
  size_t current_k = start_k;
  size_t wave_merged = 0;
  size_t wave_accepted = 0;
  auto commit_level = [&](size_t cands, size_t pruned, size_t accepted) {
    if (ctx.metrics == nullptr) return;
    std::string prefix = "backchase.level." + std::to_string(current_k) + ".";
    if (cands > 0) ctx.metrics->counter(prefix + "candidates").Add(cands);
    if (pruned > 0) ctx.metrics->counter(prefix + "pruned").Add(pruned);
    if (accepted > 0) {
      ctx.metrics->counter(prefix + "accepted").Add(accepted);
    }
  };

  // Cuts the sweep at `cut_mask` (first unevaluated mask): commits the
  // pruning events strictly before the cut, packages the merged prefix as a
  // partial result, and captures the resume point. Everything merged so far
  // is in ascending mask order, so resume-and-finish reproduces the
  // uninterrupted sweep exactly.
  auto cut = [&](uint64_t cut_mask, const Status& status,
                 const std::vector<std::pair<uint64_t, int>>& wave_prunes) {
    size_t pruned_before_cut = 0;
    for (const auto& [mask, kind] : wave_prunes) {
      if (mask >= cut_mask) break;  // ascending enumeration order
      ++pruned_before_cut;
      if (kind == 0) {
        ++out.stats.dominance_pruned;
      } else {
        ++out.stats.failure_pruned;
      }
    }
    commit_level(wave_merged, pruned_before_cut, wave_accepted);
    out.complete = false;
    out.exhaustion = InferExhaustion(status, "backchase");
    BackchaseCheckpoint cp;
    cp.cardinality = static_cast<size_t>(std::popcount(cut_mask));
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

  // Workers beyond the calling thread; the caller participates in every
  // wave, so `budget.threads` is the total concurrency.
  std::optional<ThreadPool> pool;
  if (budget.threads > 1) pool.emplace(budget.threads - 1, ctx.metrics);

  for (size_t k = start_k; k <= n; ++k) {
    current_k = k;
    wave_merged = 0;
    wave_accepted = 0;
    // ---- Enumerate this wave's non-pruned masks (serial, cheap). All
    // pruning facts come from strictly smaller masks, so they are complete
    // before the wave starts. Pruning-counter increments are buffered with
    // their mask and only committed for masks before a cut, keeping resumed
    // stats identical to an uninterrupted run's.
    std::vector<uint64_t> wave;
    std::vector<std::pair<uint64_t, int>> wave_prunes;  // (mask, 0=dom 1=fail)
    // On an anytime stop during enumeration: the stop mask, its status, and
    // whether the already-collected wave prefix may still be evaluated
    // (true for candidate-budget exhaustion; false for deadline/cancel,
    // where evaluating more candidates would defeat the point).
    std::optional<std::pair<uint64_t, Status>> stop;
    bool evaluate_collected = false;
    uint64_t first = (k == start_k && start_mask != 0) ? start_mask
                                                       : (uint64_t(1) << k) - 1;
    for (uint64_t m = first; m < limit; m = NextSamePopcount(m)) {
      Status guard = budget.CheckDeadline("backchase");
      if (guard.ok() && ctx.cancel != nullptr) {
        guard = ctx.cancel->Check("backchase");
      }
      if (!guard.ok()) {
        if (!IsAnytimeStop(guard)) return guard;
        stop = {m, std::move(guard)};
        evaluate_collected = false;
        break;
      }
      bool pruned = false;
      for (uint64_t am : accepted_masks) {
        if ((m & am) == am) {
          wave_prunes.emplace_back(m, 0);
          pruned = true;
          break;
        }
      }
      if (!pruned && options.enable_failure_prune) {
        for (uint64_t fm : failed_masks) {
          if ((m & fm) == fm) {
            wave_prunes.emplace_back(m, 1);
            pruned = true;
            break;
          }
        }
      }
      if (pruned) {
        if (m == limit - 1) break;  // full mask; Gosper would overflow past it
        continue;
      }
      if (budget_consumed + wave.size() >= budget.max_candidates) {
        stop = {m, Status::ResourceExhausted(
                       "backchase candidate budget exhausted "
                       "(ResourceBudget::max_candidates=" +
                       std::to_string(budget.max_candidates) + ")")};
        evaluate_collected = true;
        break;
      }
      wave.push_back(m);
      if (k == n) break;  // single full mask; Gosper would overflow past it
    }

    if (stop.has_value() && !evaluate_collected) {
      // Deadline/cancellation: do not start more evaluations. Cut at the
      // earliest unevaluated mask (the collected-but-unevaluated prefix, or
      // the stop mask itself).
      uint64_t cut_mask = wave.empty() ? stop->first : wave.front();
      cut(cut_mask, stop->second, wave_prunes);
      return out;
    }
    if (wave.empty()) {
      if (stop.has_value()) {
        cut(stop->first, stop->second, wave_prunes);
        return out;
      }
      for (const auto& [mask, kind] : wave_prunes) {
        (void)mask;
        if (kind == 0) {
          ++out.stats.dominance_pruned;
        } else {
          ++out.stats.failure_pruned;
        }
      }
      commit_level(0, wave_prunes.size(), 0);
      continue;
    }

    // ---- Evaluate the wave, possibly in parallel.
    std::vector<std::optional<Result<CandidateVerdict>>> results(wave.size());
    auto eval_one = [&](size_t i) {
      Status probe = ProbeSite(ctx.faults, ctx.cancel, fault_sites::kPoolTask);
      if (probe.ok()) {
        probe = ProbeSite(ctx.faults, ctx.cancel, fault_sites::kBackchaseCandidate);
      }
      if (!probe.ok()) {
        results[i] = Result<CandidateVerdict>(std::move(probe));
        return;
      }
      results[i] = evaluate(wave[i]);
    };
    if (pool.has_value() && wave.size() > 1) {
      pool->ParallelFor(wave.size(), eval_one);
    } else {
      for (size_t i = 0; i < wave.size(); ++i) eval_one(i);
    }

    // ---- Merge in ascending mask order: acceptance bookkeeping, cache-hit
    // replay, and isomorphism dedup are all order-dependent, so this stays
    // serial and deterministic.
    for (size_t i = 0; i < wave.size(); ++i) {
      Result<CandidateVerdict>& r = *results[i];
      if (!r.ok()) {
        // First problem in mask order wins. Anytime stops (a chase budget
        // tripping inside a candidate, cancellation, injected exhaustion)
        // become a cut at this mask; real errors propagate.
        if (!IsAnytimeStop(r.status())) return r.status();
        cut(wave[i], r.status(), wave_prunes);
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
          if (options.enable_failure_prune) failed_masks.push_back(wave[i]);
          break;
        case CandidateOutcome::kAccepted: {
          ++out.stats.candidates_examined;
          ++wave_accepted;
          accepted_masks.push_back(wave[i]);
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

    if (stop.has_value()) {
      // Candidate budget: the collected prefix was evaluated and merged;
      // the stop mask is the first unevaluated one.
      cut(stop->first, stop->second, wave_prunes);
      return out;
    }
    for (const auto& [mask, kind] : wave_prunes) {
      (void)mask;
      if (kind == 0) {
        ++out.stats.dominance_pruned;
      } else {
        ++out.stats.failure_pruned;
      }
    }
    commit_level(wave_merged, wave_prunes.size(), wave_accepted);
  }
  return out;
}

}  // namespace sqleq
