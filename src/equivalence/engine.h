// EquivalenceEngine — the unified front door for Σ-equivalence testing.
// One call shape covers the paper's headline theorems:
//
//   EquivalenceEngine engine;
//   SQLEQ_ASSIGN_OR_RETURN(EquivVerdict v,
//       engine.Equivalent(q1, q2, {Semantics::kBag, sigma, schema}));
//   if (v.equivalent) { ... v.witness_forward ... }
//
// The engine owns a chase memo per (Σ, semantics, schema, chase-knob)
// context, so repeated calls against the same constraint theory — the
// common shape in minimization and rewriting loops — chase each distinct
// query once. Each memo chases through a per-context compiled ChasePlan
// (chase/chase_plan.h), so the Σ kernels are compiled once per context,
// not once per call. Reformulation (reformulation/candb.h, views.h) takes
// its memo from the same table (MemoFor), so checks and reformulations of
// one context share outcomes, the byte limit and the disk tier.
#ifndef SQLEQ_EQUIVALENCE_ENGINE_H_
#define SQLEQ_EQUIVALENCE_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "chase/chase_cache.h"
#include "chase/checkpoint.h"
#include "chase/set_chase.h"
#include "constraints/dependency.h"
#include "equivalence/run_options.h"
#include "util/engine_context.h"
#include "util/resource_budget.h"
#include "db/eval.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/status.h"

namespace sqleq {

/// Everything one equivalence decision depends on. Defaults: set semantics,
/// no dependencies, empty schema, default ChaseOptions, and a default
/// EngineContext (whose ResourceBudget bounds the chases and supplies the
/// optional deadline). The per-call environment (`context`), chase strategy
/// (`chase`), and Σ-lint pre-flight (`analyze`) are the shared RunOptions
/// base (equivalence/run_options.h).
struct EquivRequest : RunOptions {
  Semantics semantics = Semantics::kSet;
  DependencySet sigma;
  Schema schema;
  /// Anytime hook (docs/robustness.md): a chase checkpoint to resume from.
  /// The checkpoint is subject-stamped with its query's canonical key, so it
  /// is applied only to the chase it belongs to (the other query starts
  /// cold). Fault injection and cancellation live in `context`.
  const ChaseCheckpoint* resume = nullptr;

  EquivRequest() = default;
  /// Positional shorthand matching the historical aggregate field order, so
  /// `EquivRequest{semantics, sigma, schema, chase}` keeps working now that
  /// the shared fields live in the base.
  EquivRequest(Semantics semantics_in, DependencySet sigma_in = {},
               Schema schema_in = {}, ChaseOptions chase_in = {})
      : semantics(semantics_in),
        sigma(std::move(sigma_in)),
        schema(std::move(schema_in)) {
    chase = std::move(chase_in);
  }
};

/// The decision plus its evidence: sound-chase results for both inputs
/// (remapped onto the callers' variables) and — when equivalent — the
/// witness mapping between the chase results (isomorphism under B/BS, the
/// Q2→Q1 containment mapping under S, with witness_backward the Q1→Q2
/// direction). Chase traces come from ExplainEquivalence
/// (equivalence/explain.h), which chases uncached.
struct EquivVerdict {
  bool equivalent;
  Semantics semantics;

  // ConjunctiveQuery has no default constructor, so EquivVerdict is built
  // by aggregate initialization (trailing members below carry defaults).
  ConjunctiveQuery chased_q1;
  ConjunctiveQuery chased_q2;
  bool q1_failed;
  bool q2_failed;

  std::optional<TermMap> witness_forward;
  std::optional<TermMap> witness_backward;

  /// Three-valued outcome. kUnknown means an anytime condition (budget,
  /// deadline, cancellation, injected fault) stopped a chase before the
  /// decision: `equivalent` is then false-but-meaningless, chased_q1/q2 echo
  /// the inputs, `exhaustion` says what tripped, and `checkpoint` (when a
  /// chase got far enough to capture one) resumes the interrupted chase via
  /// EquivRequest::resume.
  Verdict verdict = Verdict::kNotEquivalent;
  std::optional<ExhaustionInfo> exhaustion;
  std::optional<ChaseCheckpoint> checkpoint;
};

/// Collapses a three-valued verdict onto the legacy boolean contract: a
/// kUnknown verdict becomes the anytime Status it replaced (kCancelled for
/// cancellation, kResourceExhausted otherwise). For Result<bool> APIs that
/// predate the anytime contract.
inline Result<bool> VerdictToBool(const EquivVerdict& v) {
  if (v.verdict != Verdict::kUnknown) return v.equivalent;
  std::string msg = v.exhaustion.has_value() ? v.exhaustion->ToString()
                                             : "equivalence undecided";
  if (v.exhaustion.has_value() && v.exhaustion->limit == "cancelled") {
    return Status::Cancelled(std::move(msg));
  }
  return Status::ResourceExhausted(std::move(msg));
}

/// The post-chase equivalence primitive the facade, C&B, and the view
/// rewriter all share: are the (already chased) queries equivalent under
/// `semantics`? (Thm 2.2's ≡S via containment mappings, Thm 6.1's ≡B modulo
/// the schema's set-enforcing dependencies, Thm 6.2's ≡BS via canonical
/// representations.) Isomorphism-invariant in both arguments.
bool ChasedEquivalent(const ConjunctiveQuery& c1, const ConjunctiveQuery& c2,
                      Semantics semantics, const Schema& schema);

/// The post-chase decision with its witnesses, shared by
/// EquivalenceEngine::Equivalent and ExplainEquivalence. Two failed chases
/// are equivalent (both queries are empty on every instance of Σ), one is
/// not, and neither carries a witness; otherwise the semantics' test
/// decides, as in ChasedEquivalent, and records its witness mappings.
struct ChasedDecision {
  bool equivalent = false;
  std::optional<TermMap> witness_forward;
  std::optional<TermMap> witness_backward;
};
ChasedDecision DecideChased(const ChaseOutcome& c1, const ChaseOutcome& c2,
                            Semantics semantics, const Schema& schema);

class EquivalenceEngine {
 public:
  EquivalenceEngine() = default;
  EquivalenceEngine(const EquivalenceEngine&) = delete;
  EquivalenceEngine& operator=(const EquivalenceEngine&) = delete;

  /// Decides q1 ≡Σ,X q2 per the request and assembles the evidence.
  /// Anytime contract (docs/robustness.md): when a chase trips the budget,
  /// the deadline, cancellation, or an injected fault, the call returns OK
  /// with verdict = kUnknown (plus exhaustion and, usually, a resumable
  /// checkpoint) instead of an error. Non-anytime failures (bad inputs,
  /// Σ-lint rejections) remain errors. Thread-safe; concurrent calls share
  /// the memo caches.
  Result<EquivVerdict> Equivalent(const ConjunctiveQuery& q1,
                                  const ConjunctiveQuery& q2,
                                  const EquivRequest& request);

  /// Equivalent() under an escalating-budget retry policy: attempt 0 runs
  /// with request.context.budget; each kUnknown attempt is resumed from its
  /// checkpoint under a budget scaled by `policy` until the verdict is
  /// decided or policy.max_attempts is spent. The final (possibly still
  /// kUnknown) verdict is returned; errors propagate immediately.
  Result<EquivVerdict> EquivalentWithRetry(const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           const EquivRequest& request,
                                           const EscalatingBudget& policy);

  struct CacheStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    size_t contexts = 0;
    /// Compiled step kernels (tgd + egd) across the contexts' ChasePlans,
    /// and the pattern atoms they precompiled.
    size_t compiled_kernels = 0;
    size_t pattern_atoms = 0;
  };
  /// Chase-memo counters aggregated over every context this engine has
  /// served.
  CacheStats cache_stats() const;

  /// Bounds every chase memo this engine owns (existing and future) to
  /// `bytes` of retained outcomes, LRU-evicted — see ChaseMemo. Required
  /// for process-lifetime engines (the sqleqd server); 0 removes the bound.
  /// The limit is per memo context, not summed across contexts.
  void set_memo_byte_limit(size_t bytes);

  /// Attaches a tier-2 on-disk memo store (chase/memo_store.h) to every
  /// chase memo this engine owns, existing and future. Each memo's records
  /// are namespaced by its context key, so one store serves all contexts
  /// (and survives engine resets — the sqleqd server re-attaches the same
  /// store to a fresh engine). nullptr detaches.
  void set_memo_store(std::shared_ptr<MemoStore> store);

  /// The memo for one chase context, created (with the engine's byte limit
  /// and disk store) on first use; Equivalent() and reformulation chase
  /// through it. Budgets and deadlines are deliberately not part of the
  /// context key (the memo's options carry a neutral budget): callers pass
  /// theirs per run through ChaseRuntime::budget, so calls differing only
  /// in budget share cached chases.
  std::shared_ptr<ChaseMemo> MemoFor(Semantics semantics,
                                     const DependencySet& sigma,
                                     const Schema& schema,
                                     const ChaseOptions& chase);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<ChaseMemo>> memos_;
  size_t memo_byte_limit_ = 0;
  std::shared_ptr<MemoStore> memo_store_;
};

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_ENGINE_H_
