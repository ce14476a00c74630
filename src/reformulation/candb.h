// Chase & Backchase (Appendix A) generalized over evaluation semantics —
// the paper's §6.3 algorithms are exactly C&B with the sound chase and the
// semantics' equivalence test plugged in:
//   kSet    → C&B           (Thm A.1)
//   kBag    → Bag-C&B       (Thm 6.4)
//   kBagSet → Bag-Set-C&B   (Thm K.1)
//
// Sound chase outcomes are pure functions of (Q, Σ, semantics, schema)
// (Thms 5.1 / G.1), so C&B chases through the memo equivalence checks use
// (EquivalenceEngine::ContextFor): a repeated or Σ-equivalent query's chases
// are memory- or disk-tier hits, bounded by the engine's byte limit.
//
// The backchase phase sweeps the 2^|body(U)| subquery lattice serially in
// mask order (backchase.h): candidates are chased through the canonical-form
// memo (chase/chase_cache.h) under U's Σ-slice, so isomorphic candidates
// never re-chase, supersets of accepted or chase-failed masks are pruned,
// and cold and warm engines return the same CandBResult up to renaming of
// chase-introduced variables.
//
// Anytime contract (docs/robustness.md): budget exhaustion, deadline
// expiry, cancellation, and injected faults do not error. They return a
// partial CandBResult (complete = false) whose reformulations are the
// Σ-minimal candidates confirmed before the stop — a prefix-consistent
// subset of the unbudgeted output — plus a CandBCheckpoint from which a
// later call finishes the job exactly.
#ifndef SQLEQ_REFORMULATION_CANDB_H_
#define SQLEQ_REFORMULATION_CANDB_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "chase/checkpoint.h"
#include "chase/set_chase.h"
#include "constraints/dependency.h"
#include "db/eval.h"
#include "equivalence/run_options.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "reformulation/backchase.h"
#include "util/engine_context.h"
#include "util/resource_budget.h"
#include "util/status.h"

namespace sqleq {

class FaultInjector;
class CancellationToken;
class ChaseContext;
class EquivalenceEngine;

/// Where an interrupted C&B call stopped and everything needed to finish it.
struct CandBCheckpoint {
  static constexpr const char* kChasePhase = "chase";
  static constexpr const char* kBackchasePhase = "backchase";

  /// kChasePhase: the universal-plan chase was interrupted (`chase` set).
  /// kBackchasePhase: the chase finished (`universal_plan` set) and the
  /// lattice sweep was interrupted (`backchase` set).
  std::string phase;
  std::optional<ChaseCheckpoint> chase;
  std::optional<ConjunctiveQuery> universal_plan;
  std::optional<BackchaseCheckpoint> backchase;

  std::string Serialize() const;
  static Result<CandBCheckpoint> Deserialize(std::string_view text);
};

/// The shared RunOptions base (equivalence/run_options.h) supplies the
/// per-call environment (`context` — max_candidates caps the backchase
/// lattice, max_chase_steps every chase, deadline the whole call) and the
/// Σ-lint pre-flight (`analyze`).
struct CandBOptions : RunOptions {
  /// When true, outputs are additionally filtered through the Def 3.1
  /// Σ-minimality check (subset-minimality in the universal-plan lattice is
  /// the C&B guarantee; the extra check also covers variable-identification
  /// minimality). Costs extra chases.
  bool verify_sigma_minimality = false;
  /// Resume an interrupted call. Must be a checkpoint produced by a prior
  /// ChaseAndBackchase over the same (q, Σ, semantics, schema);
  /// the finished run's result is then byte-identical to an uninterrupted
  /// run's. A backchase checkpoint whose masks do not fit the lattice is
  /// InvalidArgument.
  const CandBCheckpoint* resume = nullptr;
};

struct CandBResult {
  /// The universal plan U = (Q)Σ,X. When the chase phase itself was
  /// interrupted (complete = false, checkpoint.phase == "chase") the plan
  /// does not exist yet and this echoes the input query.
  ConjunctiveQuery universal_plan;
  /// Σ-minimal reformulations Q′ with Q′ ≡Σ,X Q, pairwise non-isomorphic.
  /// On a partial result: the prefix confirmed before the stop.
  std::vector<ConjunctiveQuery> reformulations;
  /// Backchase candidates whose equivalence was tested.
  size_t candidates_examined = 0;
  /// Chase-memo accounting for the backchase phase, replayed
  /// deterministically in mask order: a hit is a chase key already seen in
  /// this call, whatever the engine's memo held before it, so the counts are
  /// identical on cold or warm engines.
  size_t chase_cache_hits = 0;
  size_t chase_cache_misses = 0;
  /// False when the call stopped early on an anytime condition; `exhaustion`
  /// says what tripped and `checkpoint` resumes the call.
  bool complete = true;
  std::optional<ExhaustionInfo> exhaustion;
  std::optional<CandBCheckpoint> checkpoint;
};

/// Runs chase & backchase for `q` in `context` (equivalence/engine.h): under
/// its Σ, semantics and schema, chasing through its memo. Sound and complete
/// whenever set chase terminates on the inputs (Thms A.1, 6.4, K.1) —
/// guarded by the chase step budget. Anytime stops (budget, deadline,
/// cancellation, injected faults) return partial results, not errors — see
/// the header comment. Thread-safe: concurrent calls may share one context.
Result<CandBResult> ChaseAndBackchase(ChaseContext& context, const ConjunctiveQuery& q,
                                      const CandBOptions& options = {});

/// ChaseAndBackchase in `engine`'s context for (semantics, Σ, schema)
/// (EquivalenceEngine::ContextFor).
Result<CandBResult> ChaseAndBackchase(EquivalenceEngine& engine,
                                      const ConjunctiveQuery& q,
                                      const DependencySet& sigma, Semantics semantics,
                                      const Schema& schema,
                                      const CandBOptions& options = {});

/// ChaseAndBackchase on a call-local engine, for one-shot callers.
Result<CandBResult> ChaseAndBackchase(const ConjunctiveQuery& q,
                                      const DependencySet& sigma, Semantics semantics,
                                      const Schema& schema,
                                      const CandBOptions& options = {});

/// ChaseAndBackchase under an escalating-budget retry policy: attempt 0 runs
/// with options.context.budget; each incomplete attempt is resumed (from its own
/// checkpoint) under a budget scaled by `policy` until the result is
/// complete or policy.max_attempts is spent. The final (possibly still
/// partial) result is returned; errors propagate immediately. The attempts
/// share one call-local engine.
Result<CandBResult> ChaseAndBackchaseWithRetry(
    const ConjunctiveQuery& q, const DependencySet& sigma, Semantics semantics,
    const Schema& schema, const CandBOptions& options,
    const EscalatingBudget& policy);

}  // namespace sqleq

#endif  // SQLEQ_REFORMULATION_CANDB_H_
