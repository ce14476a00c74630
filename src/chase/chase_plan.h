// ChasePlan: the compiled public entry surface of the chase (docs/
// compiled_chase.md).
//
// A ChasePlan fixes (Σ, semantics, schema) once — regularizing Σ
// and compiling its SigmaPlan step kernels at construction — and then runs
// the sound chase on any number of queries without per-call Σ work. This is
// the Thm 5.2 amortization made concrete: construction is the per-catalog
// cost, Run() the per-query cost. EquivalenceEngine, chase-and-backchase,
// view rewriting, and sqleqd all chase through a ChasePlan; the free
// function SoundChase is ChasePlan(...).Run(q, runtime) on a throwaway plan.
//
// Run() always chases the query's Σ-slice; RunFull() chases the whole
// regularized Σ and is the unsliced reference the conservativity tests and
// the slicing benchmarks compare against. Both go through the one chase
// loop (chase/chase_internal.h) on the plan's compiled kernels.
//
// A ChasePlan is immutable after construction and safe to share across
// threads. It holds no budget: Run() takes its limits from the call's
// ChaseRuntime and honors the rest of that contract — fault sites,
// cancellation, checkpoint capture/resume — and, because slicing never
// changes a trace, a checkpoint taken by Run() resumes under RunFull() and
// vice versa.
#ifndef SQLEQ_CHASE_CHASE_PLAN_H_
#define SQLEQ_CHASE_CHASE_PLAN_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "analysis/sigma_graph.h"
#include "chase/set_chase.h"
#include "chase/sigma_plan.h"
#include "chase/sound_chase.h"
#include "constraints/dependency.h"
#include "db/eval.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/status.h"

namespace sqleq {

class ChasePlan {
 public:
  /// Compiles a plan: regularizes `sigma` (Prop 4.1) and builds the
  /// SigmaPlan kernels for the regularized set against `schema`.
  ChasePlan(DependencySet sigma, Semantics semantics, Schema schema = {});

  /// Computes (Q)Σ,X for the plan's semantics by chasing SliceFor(q): the
  /// contract of SoundChase (chase/sound_chase.h), minus the per-call
  /// regularization and kernel compilation.
  Result<ChaseOutcome> Run(const ConjunctiveQuery& q,
                           const ChaseRuntime& runtime = {}) const;

  /// Run() with the Σ-slice already in hand: `slice` must be this plan's
  /// SliceFor(q) (callers like ChaseMemo need the slice for their cache key
  /// anyway, and passing it back avoids a second shape-cache lookup per
  /// chased candidate). Identical outcome to Run(q, runtime).
  Result<ChaseOutcome> Run(const ConjunctiveQuery& q, const ChaseRuntime& runtime,
                           const SigmaSlice& slice) const;

  /// Run() over the whole regularized Σ, without slicing. Identical
  /// outcome and trace to Run() (slicing only drops dependencies that can
  /// never fire); the reference for conservativity tests and benchmarks.
  Result<ChaseOutcome> RunFull(const ConjunctiveQuery& q,
                               const ChaseRuntime& runtime = {}) const;

  /// The sound Σ-slice for `q` over the plan's *regularized* Σ: the
  /// dependencies the static may-match analysis (analysis/sigma_graph.h)
  /// cannot rule out from firing while chasing q's canonical database.
  /// Run() chases exactly this subset; ChaseMemo folds Signature() into its
  /// keys. Cached per body shape (atoms up to variable renaming), so repeat
  /// calls are a lookup; the returned reference is stable for the plan's
  /// lifetime (entries are never evicted). Pruned diagnostics are not
  /// rendered here — use SigmaGraph::SliceFor directly for EXPLAIN
  /// SLICE-style output.
  const SigmaSlice& SliceFor(const ConjunctiveQuery& q) const;

  /// Whether the set chase terminates on every input under the regularized
  /// Σ: it is stratified, which is TerminationCertificate::terminates() of
  /// SigmaGraph::DeriveCertificate(). Run() and RunFull() skip the B/BS
  /// set-chase probe when it holds; stratification is closed under subsets,
  /// so the bit covers every Σ-slice. Computed on first use from the
  /// stratification test alone — a plan built per call (one-shot C&B or
  /// view rewriting) must not pay for a whole certificate.
  bool sigma_terminates() const;

  const DependencySet& sigma() const { return sigma_; }
  const DependencySet& regularized() const { return regular_; }
  Semantics semantics() const { return semantics_; }
  const Schema& schema() const { return schema_; }
  const SigmaPlan& kernels() const { return plan_; }

  struct Stats {
    SigmaPlan::Stats kernels;
  };
  Stats stats() const;

 private:
  /// One materialized Σ-slice: the kept dependencies plus their compiled
  /// kernels (positional Subset of the full plan, so key-based flags are
  /// bit-identical to the full compile). Shared so a slice outlives the
  /// mutex scope while Run() chases through it.
  struct SlicedSigma {
    DependencySet deps;
    SigmaPlan kernels;
  };
  std::shared_ptr<const SlicedSigma> SlicedFor(const SigmaSlice& slice) const;
  /// The loop's `sigma_terminates` argument: only a B/BS run reads (and so
  /// computes) the bit.
  bool SkipsProbe() const {
    return semantics_ != Semantics::kSet && sigma_terminates();
  }

  DependencySet sigma_;
  DependencySet regular_;
  Semantics semantics_;
  Schema schema_;
  SigmaPlan plan_;
  SigmaGraph graph_;  ///< over regular_; cheap to build, immutable

  // sigma_terminates(), computed once.
  mutable std::once_flag terminates_once_;
  mutable bool terminates_ = false;

  // Lazy, per-plan caches. Keyed by body shape (slices) and slice
  // signature (materialized subsets); both key spaces are tiny in practice
  // — a handful of query shapes per catalog — and bounded by the memo's
  // own LRU upstream, so no eviction here.
  mutable std::mutex mu_;
  mutable std::unordered_map<std::string, SigmaSlice> slices_;
  mutable std::unordered_map<std::string, std::shared_ptr<const SlicedSigma>>
      subsets_;
};

}  // namespace sqleq

#endif  // SQLEQ_CHASE_CHASE_PLAN_H_
