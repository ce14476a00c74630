// The backchase lattice sweep shared by chase & backchase (candb.cc) and
// rewrite-with-views (views.cc): visit the subset masks of a candidate pool
// in ascending order within cardinality waves, prune supersets of accepted
// (and, under set semantics, chase-failed) masks, evaluate the rest one at a
// time, and merge each verdict as it comes. A mask can only be pruned by a
// strictly smaller mask, so every pruning fact is known when the mask comes
// up, and an anytime stop cuts the sweep at the current mask.
#ifndef SQLEQ_REFORMULATION_BACKCHASE_H_
#define SQLEQ_REFORMULATION_BACKCHASE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ir/query.h"
#include "util/engine_context.h"
#include "util/status.h"

namespace sqleq {

/// What one candidate evaluation concluded.
enum class CandidateOutcome {
  kSkipped,      ///< not a well-formed candidate (e.g. unsafe) — not counted
  kRejected,     ///< examined; not equivalent (or not minimal)
  kChaseFailed,  ///< examined; the candidate's chase failed (unsatisfiable)
  kAccepted,     ///< examined; an equivalent reformulation
};

struct CandidateVerdict {
  CandidateOutcome outcome = CandidateOutcome::kSkipped;
  /// The accepted candidate (kAccepted only).
  std::optional<ConjunctiveQuery> query;
  /// Canonical chase key of the candidate's (memoized) chase, empty when no
  /// chase ran. Drives the sweep's deterministic cache-hit accounting.
  std::string chase_key;
};

struct SweepStats {
  /// Candidates whose equivalence was tested (kSkipped excluded).
  size_t candidates_examined = 0;
  /// Chase-memo accounting replayed in mask order: a hit is a chase key
  /// already seen in this sweep, so the counts are the same on a cold or a
  /// warm memo (unlike the memo's live counters).
  size_t chase_cache_hits = 0;
  size_t chase_cache_misses = 0;
  /// Masks skipped as supersets of an already-accepted mask (Σ-minimality
  /// lattice pruning).
  size_t dominance_pruned = 0;
  /// Masks skipped as supersets of a chase-failed mask (set-semantics
  /// failure pruning: a superset of an unsatisfiable subquery is itself
  /// unsatisfiable).
  size_t failure_pruned = 0;
};

/// The resumable state of an interrupted lattice sweep, cut at the first
/// unevaluated mask: everything strictly before `next_mask` (in wave order)
/// is fully merged into the carried fields; everything at or after it is
/// untouched and re-enumerated on resume. Because the sweep merges in
/// ascending mask order, resuming and finishing yields exactly the
/// uninterrupted sweep's output.
struct BackchaseCheckpoint {
  /// Popcount of `next_mask` — the wave to re-enter.
  size_t cardinality = 1;
  /// First mask not yet evaluated.
  uint64_t next_mask = 0;
  std::vector<uint64_t> accepted_masks;
  std::vector<uint64_t> failed_masks;
  /// Accepted candidates so far (ascending mask order, deduped).
  std::vector<ConjunctiveQuery> accepted;
  SweepStats stats;
  /// Chase keys seen so far (sorted), for deterministic hit replay.
  std::vector<std::string> seen_chase_keys;
  /// Non-pruned masks already charged against max_candidates.
  size_t budget_consumed = 0;

  std::string Serialize() const;
  static Result<BackchaseCheckpoint> Deserialize(std::string_view text);
};

/// Per-call knobs of the sweep beyond its EngineContext.
struct SweepOptions {
  /// Turns on the kChaseFailed superset prune — sound under set semantics,
  /// where chase failure is monotone in the body (a restriction of any hom
  /// into a model is a hom).
  bool enable_failure_prune = false;
  /// Seed the hit accounting with chases performed before the sweep (e.g.
  /// the universal plan's).
  std::vector<std::string> preseeded_chase_keys;
  /// Resume an interrupted sweep. The caller must re-supply the identical
  /// pool and evaluate function (the checkpoint stores mask-indexed state).
  const BackchaseCheckpoint* resume = nullptr;
};

struct SweepOutput {
  /// Accepted candidates, ascending mask order, pairwise non-isomorphic.
  std::vector<ConjunctiveQuery> accepted;
  SweepStats stats;
  /// False when the sweep stopped early on an anytime condition (candidate
  /// budget, deadline, cancellation, injected exhaustion); `accepted` then
  /// holds the prefix confirmed before the stop, `exhaustion` says why, and
  /// `checkpoint` resumes the sweep.
  bool complete = true;
  std::optional<ExhaustionInfo> exhaustion;
  std::optional<BackchaseCheckpoint> checkpoint;
};

/// Sweeps the 2^n - 1 nonempty subset masks of an n-element candidate pool.
/// Before each mask it checks the deadline and `ctx.cancel`; before each
/// evaluation, the candidate budget and the "backchase.candidate" fault
/// site. backchase.* counters go to `ctx.metrics`; `ctx.trace` gets the
/// "backchase.sweep" span.
///
/// Budget: every non-pruned mask consumes one unit of
/// `ctx.budget.max_candidates`. Exhaustion, deadline expiry, cancellation, and
/// injected exhaustion do NOT error: they end the sweep early with
/// `complete = false` and a resumable checkpoint (anytime contract, see
/// docs/robustness.md). Non-anytime evaluate errors still propagate as
/// errors. A `resume` checkpoint whose masks or cardinality do not fit the
/// pool is InvalidArgument.
Result<SweepOutput> SweepBackchaseLattice(
    size_t n, const EngineContext& ctx, const SweepOptions& options,
    const std::function<Result<CandidateVerdict>(uint64_t)>& evaluate);

}  // namespace sqleq

#endif  // SQLEQ_REFORMULATION_BACKCHASE_H_
