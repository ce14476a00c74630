#include "equivalence/engine.h"

#include "chase/homomorphism.h"
#include "chase/sound_chase.h"
#include "equivalence/bag_equivalence.h"
#include "equivalence/containment.h"
#include "equivalence/isomorphism.h"

namespace sqleq {
namespace {

/// Context fingerprint for memo sharing: everything a chase outcome depends
/// on. Deadline and the budget caps are excluded on purpose:
/// a budget-exhausted chase is a Status (never memoized), so every cached
/// outcome is a completed chase whose result is budget-independent — which
/// lets a narrowed-budget request (the degraded admission lane, a client
/// that lowered max_chase_steps) still hit entries warmed at full budget.
std::string ContextKey(Semantics semantics, const DependencySet& sigma,
                       const Schema& schema, const ChaseOptions& chase) {
  std::string key = SemanticsToString(semantics);
  key += '\n';
  key += SigmaToString(sigma);
  key += '\n';
  key += schema.ToString();
  key += '\n';
  key += chase.key_based_fast_path ? 'K' : 'k';
  return key;
}

}  // namespace

bool ChasedEquivalent(const ConjunctiveQuery& c1, const ConjunctiveQuery& c2,
                      Semantics semantics, const Schema& schema) {
  switch (semantics) {
    case Semantics::kSet:
      return SetEquivalent(c1, c2);
    case Semantics::kBag:
      return BagEquivalentModuloSetRelations(c1, c2, schema);
    case Semantics::kBagSet:
      return AreIsomorphic(c1.CanonicalRepresentation(), c2.CanonicalRepresentation());
  }
  return false;
}

ChasedDecision DecideChased(const ChaseOutcome& c1, const ChaseOutcome& c2,
                            Semantics semantics, const Schema& schema) {
  ChasedDecision out;
  if (c1.failed || c2.failed) {
    // A failed chase means the query is empty on every instance of Σ; two
    // queries are then equivalent iff both fail.
    out.equivalent = c1.failed == c2.failed;
    return out;
  }
  switch (semantics) {
    case Semantics::kSet: {
      ConjunctiveQuery renamed2 = c2.result.RenameApart();
      out.witness_forward = FindContainmentMapping(renamed2, c1.result);
      ConjunctiveQuery renamed1 = c1.result.RenameApart();
      out.witness_backward = FindContainmentMapping(renamed1, c2.result);
      out.equivalent =
          out.witness_forward.has_value() && out.witness_backward.has_value();
      break;
    }
    case Semantics::kBag: {
      ConjunctiveQuery n1 = NormalizeForBag(c1.result, schema);
      ConjunctiveQuery n2 = NormalizeForBag(c2.result, schema);
      out.witness_forward = FindIsomorphism(n1, n2);
      out.equivalent = out.witness_forward.has_value();
      break;
    }
    case Semantics::kBagSet: {
      out.witness_forward = FindIsomorphism(c1.result.CanonicalRepresentation(),
                                            c2.result.CanonicalRepresentation());
      out.equivalent = out.witness_forward.has_value();
      break;
    }
  }
  return out;
}

std::shared_ptr<ChaseMemo> EquivalenceEngine::MemoFor(Semantics semantics,
                                                      const DependencySet& sigma,
                                                      const Schema& schema,
                                                      const ChaseOptions& chase) {
  std::string key = ContextKey(semantics, sigma, schema, chase);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = memos_.find(key);
  if (it != memos_.end()) return it->second;
  ChaseOptions memo_options = chase;
  // The budget is per call (ChaseRuntime::budget), never per memo: the memo
  // keyed by ContextKey outlives any one request's limits, so the baked
  // options carry neutral defaults only.
  memo_options.budget = ResourceBudget{};
  auto memo = std::make_shared<ChaseMemo>(sigma, semantics, schema, memo_options,
                                          memo_byte_limit_);
  if (memo_store_ != nullptr) memo->AttachStore(memo_store_, key);
  memos_.emplace(std::move(key), memo);
  return memo;
}

void EquivalenceEngine::set_memo_byte_limit(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  memo_byte_limit_ = bytes;
  for (auto& [key, memo] : memos_) memo->set_byte_limit(bytes);
}

void EquivalenceEngine::set_memo_store(std::shared_ptr<MemoStore> store) {
  std::lock_guard<std::mutex> lock(mu_);
  memo_store_ = std::move(store);
  for (auto& [key, memo] : memos_) memo->AttachStore(memo_store_, key);
}

Result<EquivVerdict> EquivalenceEngine::Equivalent(const ConjunctiveQuery& q1,
                                                   const ConjunctiveQuery& q2,
                                                   const EquivRequest& request) {
  const EngineContext& ctx = request.context;
  TraceSpan engine_span(ctx.trace, "engine.equivalent");
  if (ctx.metrics != nullptr) {
    ctx.metrics->counter(metric::kEngineEquivCalls).Add();
  }
  // Stamp the resolved verdict counter on every exit path.
  auto counted = [&](EquivVerdict v) -> EquivVerdict {
    if (ctx.metrics != nullptr) {
      const char* name = v.verdict == Verdict::kEquivalent
                             ? metric::kEngineEquivEquivalent
                         : v.verdict == Verdict::kNotEquivalent
                             ? metric::kEngineEquivNotEquivalent
                             : metric::kEngineEquivUnknown;
      ctx.metrics->counter(name).Add();
    }
    return v;
  };
  if (request.analyze.enabled) {
    AnalyzeOptions analyze = request.analyze;
    if (analyze.budget == ResourceBudget{}) analyze.budget = ctx.budget;
    if (analyze.metrics == nullptr) analyze.metrics = ctx.metrics;
    SQLEQ_RETURN_IF_ERROR(ReportToStatus(
        AnalyzeProgram(request.schema, request.sigma, {q1, q2}, analyze)));
  }
  // One budget governs the call, threaded per-run (ChaseRuntime::budget)
  // rather than baked into the memo's plan — so calls with different budgets
  // share one memo and its compiled kernels (see ContextKey above).
  std::shared_ptr<ChaseMemo> memo =
      MemoFor(request.semantics, request.sigma, request.schema, request.chase);
  ChaseRuntime runtime;
  runtime.budget = &ctx.budget;
  runtime.faults = ctx.faults;
  runtime.cancel = ctx.cancel;
  runtime.metrics = ctx.metrics;
  runtime.trace = ctx.trace;
  runtime.resume = request.resume;  // subject-stamped: applied to its own query only
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;

  // Anytime conversion: a chase stopped by budget/deadline/cancellation/
  // fault yields a kUnknown verdict echoing the inputs, not an error.
  auto unknown = [&](const Status& status, std::string phase) -> EquivVerdict {
    EquivVerdict out{/*equivalent=*/false, request.semantics,
                     q1,                   q2,
                     /*q1_failed=*/false,  /*q2_failed=*/false,
                     std::nullopt,         std::nullopt,
                     Verdict::kUnknown,    std::nullopt,
                     std::nullopt};
    out.exhaustion = InferExhaustion(status, std::move(phase));
    out.checkpoint = std::move(checkpoint);
    return out;
  };

  Status guard = ctx.budget.CheckDeadline("equivalence chase of Q1");
  if (!guard.ok()) return counted(unknown(guard, "chase of Q1"));
  Result<ChaseOutcome> c1_result = memo->Chase(q1, runtime);
  if (!c1_result.ok()) {
    if (!IsAnytimeStop(c1_result.status())) return c1_result.status();
    return counted(unknown(c1_result.status(), "chase of Q1"));
  }
  ChaseOutcome c1 = std::move(*c1_result);
  guard = ctx.budget.CheckDeadline("equivalence chase of Q2");
  if (!guard.ok()) return counted(unknown(guard, "chase of Q2"));
  Result<ChaseOutcome> c2_result = memo->Chase(q2, runtime);
  if (!c2_result.ok()) {
    if (!IsAnytimeStop(c2_result.status())) return c2_result.status();
    return counted(unknown(c2_result.status(), "chase of Q2"));
  }
  ChaseOutcome c2 = std::move(*c2_result);

  ChasedDecision d = DecideChased(c1, c2, request.semantics, request.schema);
  const Verdict verdict = d.equivalent ? Verdict::kEquivalent : Verdict::kNotEquivalent;
  return counted(EquivVerdict{d.equivalent, request.semantics, std::move(c1.result),
                              std::move(c2.result), c1.failed, c2.failed,
                              std::move(d.witness_forward),
                              std::move(d.witness_backward), verdict,
                              std::nullopt, std::nullopt});
}

Result<EquivVerdict> EquivalenceEngine::EquivalentWithRetry(
    const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const EquivRequest& request, const EscalatingBudget& policy) {
  EquivRequest attempt_request = request;
  return RetryWithEscalatingBudget(
      policy, request.context.budget, request.resume,
      [&](const ResourceBudget& budget, const ChaseCheckpoint* resume) {
        attempt_request.context.budget = budget;
        attempt_request.resume = resume;
        return Equivalent(q1, q2, attempt_request);
      },
      [](const EquivVerdict& v) { return v.verdict != Verdict::kUnknown; });
}

EquivalenceEngine::CacheStats EquivalenceEngine::cache_stats() const {
  CacheStats out;
  std::lock_guard<std::mutex> lock(mu_);
  out.contexts = memos_.size();
  for (const auto& [key, memo] : memos_) {
    ChaseMemo::Stats s = memo->stats();
    out.hits += s.hits;
    out.misses += s.misses;
    out.entries += s.entries;
    SigmaPlan::Stats kernels = memo->plan().stats().kernels;
    out.compiled_kernels += kernels.tgd_kernels + kernels.egd_kernels;
    out.pattern_atoms += kernels.pattern_atoms;
  }
  return out;
}

}  // namespace sqleq
