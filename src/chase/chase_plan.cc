#include "chase/chase_plan.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "chase/chase_internal.h"
#include "constraints/regularize.h"
#include "constraints/weak_acyclicity.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

/// Cache key for SliceFor: the query's body atoms up to variable renaming
/// and atom order — exactly the inputs the may-match analysis consults
/// (variables are wildcards, constants are literal). When no dependency
/// body reads a constant, query constants cannot affect coverage either, so
/// they are wildcarded too (`constants_matter = false`) and
/// parameter-varying query templates share one cached slice.
std::string BodyShapeKey(const ConjunctiveQuery& q, bool constants_matter) {
  std::vector<std::string> atoms;
  atoms.reserve(q.body().size());
  for (const Atom& a : q.body()) {
    std::string s = a.predicate();
    s += '(';
    for (size_t i = 0; i < a.arity(); ++i) {
      if (i > 0) s += ',';
      const Term& t = a.args()[i];
      if (t.IsVariable() || !constants_matter) {
        s += '_';
      } else {
        s += t.ToString();
      }
    }
    s += ')';
    atoms.push_back(std::move(s));
  }
  std::sort(atoms.begin(), atoms.end());
  std::string key;
  for (const std::string& s : atoms) {
    key += s;
    key += ';';
  }
  return key;
}

}  // namespace

ChasePlan::ChasePlan(DependencySet sigma, Semantics semantics, Schema schema)
    : sigma_(std::move(sigma)),
      regular_(RegularizeSigma(sigma_)),
      semantics_(semantics),
      schema_(std::move(schema)),
      plan_(SigmaPlan::Compile(regular_, schema_)),
      graph_(SigmaGraph::Build(regular_, schema_)) {}

const SigmaSlice& ChasePlan::SliceFor(const ConjunctiveQuery& q) const {
  std::string key = BodyShapeKey(q, graph_.body_reads_constants());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slices_.find(key);
    if (it != slices_.end()) return it->second;
  }
  // Hot path — the memo slices every backchase candidate for its cache key
  // — so skip the diagnostics-only pruned-atom rendering.
  SigmaSlice slice = graph_.SliceFor(q.body(), /*render_pruned=*/false);
  std::lock_guard<std::mutex> lock(mu_);
  // References into the node-based map stay valid across later inserts, and
  // entries are never evicted, so handing them out is safe.
  return slices_.emplace(std::move(key), std::move(slice)).first->second;
}

bool ChasePlan::sigma_terminates() const {
  std::call_once(terminates_once_,
                 [this] { terminates_ = CheckStratification(regular_).stratified; });
  return terminates_;
}

std::shared_ptr<const ChasePlan::SlicedSigma> ChasePlan::SlicedFor(
    const SigmaSlice& slice) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subsets_.find(slice.Signature());
    if (it != subsets_.end()) return it->second;
  }
  auto sub = std::make_shared<SlicedSigma>();
  sub->deps.reserve(slice.kept.size());
  for (size_t i : slice.kept) sub->deps.push_back(regular_[i]);
  sub->kernels = plan_.Subset(slice.kept);
  std::lock_guard<std::mutex> lock(mu_);
  return subsets_.emplace(slice.Signature(), std::move(sub)).first->second;
}

Result<ChaseOutcome> ChasePlan::Run(const ConjunctiveQuery& q,
                                    const ChaseRuntime& runtime) const {
  return Run(q, runtime, SliceFor(q));
}

Result<ChaseOutcome> ChasePlan::Run(const ConjunctiveQuery& q,
                                    const ChaseRuntime& runtime,
                                    const SigmaSlice& slice) const {
  if (runtime.metrics != nullptr) {
    runtime.metrics->counter(metric::kSliceKept).Add(slice.kept.size());
    runtime.metrics->counter(metric::kSlicePruned).Add(slice.pruned.size());
  }
  if (slice.IsFull()) return RunFull(q, runtime);
  std::shared_ptr<const SlicedSigma> sub = SlicedFor(slice);
  return chase_internal::RunChase(q, sub->deps, sub->kernels, semantics_, schema_,
                                  runtime, SkipsProbe());
}

Result<ChaseOutcome> ChasePlan::RunFull(const ConjunctiveQuery& q,
                                        const ChaseRuntime& runtime) const {
  return chase_internal::RunChase(q, regular_, plan_, semantics_, schema_, runtime,
                                  SkipsProbe());
}

ChasePlan::Stats ChasePlan::stats() const { return Stats{plan_.stats()}; }

}  // namespace sqleq
