// EquivalenceEngine — the unified front door for Σ-equivalence testing.
// One call shape covers the paper's headline theorems:
//
//   EquivalenceEngine engine;
//   SQLEQ_ASSIGN_OR_RETURN(EquivVerdict v,
//       engine.Equivalent(q1, q2, {Semantics::kBag, sigma, schema}));
//   if (v.verdict == Verdict::kEquivalent) { ... }
//
// The verdict carries no evidence. ExplainEquivalence
// (equivalence/explain.h) returns the chase results, their traces and the
// witness mappings for one pair.
//
// The engine owns a ChaseContext per (semantics, Σ, schema), so repeated
// calls against the same constraint theory — the common shape in
// minimization and rewriting loops and in the sqleqd server — chase each
// distinct query once. A context is built on first use: its memo chases
// through a compiled ChasePlan (chase/chase_plan.h), and the Σ half of the
// Σ-lint pre-flight is analyzed then, so neither the Σ kernels nor the Σ
// checks are redone per call. Reformulation (reformulation/candb.h,
// views.h) takes its context from the same table (ContextFor), so checks
// and reformulations of one context share outcomes, the byte limit and the
// disk tier.
#ifndef SQLEQ_EQUIVALENCE_ENGINE_H_
#define SQLEQ_EQUIVALENCE_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <span>
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

/// The per-call options of a check in an already resolved ChaseContext
/// (EquivalenceEngine::Equivalent's context overload): the shared RunOptions
/// base (equivalence/run_options.h) — the per-call environment (`context`,
/// whose ResourceBudget bounds the chases and supplies the optional
/// deadline) and the Σ-lint pre-flight (`analyze`) — plus a resume point.
struct EquivOptions : RunOptions {
  /// Anytime hook (docs/robustness.md): a chase checkpoint to resume from.
  /// The checkpoint is subject-stamped with its query's canonical key, so it
  /// is applied only to the chase it belongs to (the other query starts
  /// cold). Fault injection and cancellation live in `context`.
  const ChaseCheckpoint* resume = nullptr;
};

/// Everything one equivalence decision depends on: the call's options plus
/// the (semantics, Σ, schema) whose context it runs in. Defaults: set
/// semantics, no dependencies, empty schema.
struct EquivRequest : EquivOptions {
  Semantics semantics = Semantics::kSet;
  DependencySet sigma;
  Schema schema;

  EquivRequest() = default;
  /// Positional shorthand: `EquivRequest{semantics, sigma, schema}`.
  EquivRequest(Semantics semantics_in, DependencySet sigma_in = {},
               Schema schema_in = {})
      : semantics(semantics_in),
        sigma(std::move(sigma_in)),
        schema(std::move(schema_in)) {}
};

/// The decision of one check. kUnknown means an anytime condition (budget,
/// deadline, cancellation, injected fault) stopped a chase before the
/// decision: `exhaustion` says what tripped, and `checkpoint` (when a chase
/// got far enough to capture one) resumes the interrupted chase via
/// EquivRequest::resume. Evidence (chase results, traces, witnesses) comes
/// from ExplainEquivalence (equivalence/explain.h), which chases uncached
/// in the callers' variable names.
struct EquivVerdict {
  Verdict verdict = Verdict::kNotEquivalent;
  Semantics semantics = Semantics::kSet;
  std::optional<ExhaustionInfo> exhaustion;
  std::optional<ChaseCheckpoint> checkpoint;
};

/// Collapses a three-valued verdict onto the legacy boolean contract: a
/// kUnknown verdict becomes the anytime Status it replaced (kCancelled for
/// cancellation, kResourceExhausted otherwise). For Result<bool> APIs that
/// predate the anytime contract.
inline Result<bool> VerdictToBool(const EquivVerdict& v) {
  if (v.verdict != Verdict::kUnknown) return v.verdict == Verdict::kEquivalent;
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

/// ChasedEquivalent on two chase outcomes, the decision of
/// EquivalenceEngine::Equivalent and ExplainEquivalence. Two failed chases
/// are equivalent (both queries are empty on every instance of Σ), one is
/// not; otherwise ChasedEquivalent decides on the results, in any variable
/// naming.
bool ChasedEquivalent(const ChaseOutcome& c1, const ChaseOutcome& c2,
                      Semantics semantics, const Schema& schema);

/// Everything fixed by one (semantics, Σ, schema): the chase memo, whose
/// compiled plan holds the context's Σ and schema, and the Σ half of the
/// Σ-lint pre-flight. EquivalenceEngine::ContextFor builds each once.
class ChaseContext {
 public:
  ChaseContext(Semantics semantics, const DependencySet& sigma, const Schema& schema,
               size_t memo_byte_limit);

  /// Thread-safe; a memo holds no budget (callers pass theirs per run
  /// through ChaseRuntime::budget), so calls differing only in budget share
  /// cached chases.
  ChaseMemo& memo() { return memo_; }

  /// The context's semantics, Σ and schema, as its plan holds them.
  Semantics semantics() const { return memo_.plan().semantics(); }
  const DependencySet& sigma() const { return memo_.plan().sigma(); }
  const Schema& schema() const { return memo_.plan().schema(); }

  /// The rendered (semantics, Σ, schema) that names the context's records
  /// in a disk tier (ChaseMemo::AttachStore). Rendered once, at creation.
  const std::string& key() const { return key_; }

  /// True iff this is the context of (semantics, sigma, schema): compares
  /// structurally against the plan's Σ and schema, without rendering.
  bool Matches(Semantics semantics, const DependencySet& sigma,
               const Schema& schema) const;

  /// The Σ-lint pre-flight of one engine call over `queries`; a no-op when
  /// options.analyze.enabled is false. The same Status, and the same
  /// analysis.diag.<code> counts, as a fresh
  /// ReportToStatus(AnalyzeProgram(schema, Σ, queries, analyze)): the Σ
  /// findings are replayed (filtered by the call's switches, escalated
  /// under warnings_as_errors, counted) and only the queries are analyzed.
  /// An analyze budget left at its default takes options.context.budget,
  /// and a null analyze.metrics takes options.context.metrics.
  Status Preflight(const RunOptions& options,
                   std::span<const ConjunctiveQuery* const> queries) const;

 private:
  std::string key_;
  ChaseMemo memo_;
  SigmaPreflight sigma_lint_;
};

class EquivalenceEngine {
 public:
  EquivalenceEngine() = default;
  EquivalenceEngine(const EquivalenceEngine&) = delete;
  EquivalenceEngine& operator=(const EquivalenceEngine&) = delete;

  /// Decides q1 ≡Σ,X q2 in `context` (whose semantics, Σ and schema it is)
  /// on the memo's shared outcomes (ChaseMemo::ChaseCanonical): nothing is
  /// copied or renamed back onto the callers' variables, and two queries
  /// whose lookups share one outcome (equal canonical keys, so isomorphic)
  /// are equivalent without a decision. Anytime contract
  /// (docs/robustness.md): when a chase trips the budget, the deadline,
  /// cancellation, or an injected fault, the call returns OK with verdict =
  /// kUnknown (plus exhaustion and, usually, a resumable checkpoint) instead
  /// of an error. Non-anytime failures (bad inputs, Σ-lint rejections)
  /// remain errors. Thread-safe; concurrent calls share the memo caches.
  /// A caller that checks many pairs against one catalog (the sqleqd
  /// session) resolves the context once and passes it here.
  Result<EquivVerdict> Equivalent(const ConjunctiveQuery& q1,
                                  const ConjunctiveQuery& q2, ChaseContext& context,
                                  const EquivOptions& options);

  /// Equivalent() in ContextFor(request.semantics, request.sigma,
  /// request.schema).
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

  /// The context of (semantics, sigma, schema), created (with the engine's
  /// byte limit and disk store) on first use; Equivalent() and
  /// reformulation pre-flight and chase through it. The lookup hashes the
  /// inputs structurally (dependency kinds, labels, predicates, term intern
  /// ids, egd sides, schema relations) and confirms a hit by structural
  /// equality, so a call renders nothing; the disk-tier key is rendered
  /// only when a context is created.
  std::shared_ptr<ChaseContext> ContextFor(Semantics semantics,
                                           const DependencySet& sigma,
                                           const Schema& schema);

 private:
  mutable std::mutex mu_;
  /// Keyed by the structural hash; equal hashes are told apart by Matches.
  std::unordered_multimap<size_t, std::shared_ptr<ChaseContext>> contexts_;
  size_t memo_byte_limit_ = 0;
  std::shared_ptr<MemoStore> memo_store_;
};

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_ENGINE_H_
