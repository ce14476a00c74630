#include "equivalence/engine.h"

#include "chase/homomorphism.h"
#include "chase/sound_chase.h"
#include "equivalence/bag_equivalence.h"
#include "equivalence/containment.h"
#include "equivalence/isomorphism.h"

namespace sqleq {
namespace {

/// The rendered context, naming its records in a disk tier: everything a
/// chase outcome depends on. Deadline and the budget caps are excluded on
/// purpose:
/// a budget-exhausted chase is a Status (never memoized), so every cached
/// outcome is a completed chase whose result is budget-independent — which
/// lets a narrowed-budget request (the degraded admission lane, a client
/// that lowered max_chase_steps) still hit entries warmed at full budget.
std::string ContextKey(Semantics semantics, const DependencySet& sigma,
                       const Schema& schema) {
  std::string key = SemanticsToString(semantics);
  key += '\n';
  key += SigmaToString(sigma);
  key += '\n';
  key += schema.ToString();
  // The 'K' once recorded the key-based fast-path flag, now always on; it
  // stays so every context's disk-tier prefix (a hash of this key) is stable.
  key += "\nK";
  return key;
}

/// Structural hash of a context, consistent with ChaseContext::Matches.
size_t ContextHash(Semantics semantics, const DependencySet& sigma,
                   const Schema& schema) {
  size_t h = static_cast<size_t>(semantics);
  for (const Dependency& d : sigma) h = h * 1000003u + d.Hash();
  return h * 1000003u + schema.Hash();
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
      // No rename-apart: the matcher keeps pattern variables (slots) apart
      // from target terms, so c1 and c2 may share names.
      out.witness_forward = FindContainmentMapping(c2.result, c1.result);
      out.witness_backward = FindContainmentMapping(c1.result, c2.result);
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

ChaseContext::ChaseContext(Semantics semantics, const DependencySet& sigma,
                           const Schema& schema, size_t memo_byte_limit)
    : key_(ContextKey(semantics, sigma, schema)),
      memo_(sigma, semantics, schema, {}, memo_byte_limit),
      sigma_lint_(memo_.plan().schema(), memo_.plan().sigma()) {}

bool ChaseContext::Matches(Semantics semantics, const DependencySet& sigma,
                           const Schema& schema) const {
  const ChasePlan& plan = memo_.plan();
  return plan.semantics() == semantics && plan.sigma() == sigma &&
         plan.schema() == schema;
}

Status ChaseContext::Preflight(const RunOptions& options,
                               std::span<const ConjunctiveQuery* const> queries) const {
  if (!options.analyze.enabled) return Status::OK();
  AnalyzeOptions analyze = options.analyze;
  if (analyze.budget == ResourceBudget{}) analyze.budget = options.context.budget;
  if (analyze.metrics == nullptr) analyze.metrics = options.context.metrics;
  return ReportToStatus(sigma_lint_.Analyze(queries, analyze));
}

std::shared_ptr<ChaseContext> EquivalenceEngine::ContextFor(Semantics semantics,
                                                            const DependencySet& sigma,
                                                            const Schema& schema) {
  const size_t hash = ContextHash(semantics, sigma, schema);
  std::lock_guard<std::mutex> lock(mu_);
  auto [first, last] = contexts_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second->Matches(semantics, sigma, schema)) return it->second;
  }
  auto context = std::make_shared<ChaseContext>(semantics, sigma, schema, memo_byte_limit_);
  if (memo_store_ != nullptr) context->memo().AttachStore(memo_store_, context->key());
  contexts_.emplace(hash, context);
  return context;
}

void EquivalenceEngine::set_memo_byte_limit(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  memo_byte_limit_ = bytes;
  for (auto& [hash, context] : contexts_) context->memo().set_byte_limit(bytes);
}

void EquivalenceEngine::set_memo_store(std::shared_ptr<MemoStore> store) {
  std::lock_guard<std::mutex> lock(mu_);
  memo_store_ = std::move(store);
  for (auto& [hash, context] : contexts_) {
    context->memo().AttachStore(memo_store_, context->key());
  }
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
  std::shared_ptr<ChaseContext> context =
      ContextFor(request.semantics, request.sigma, request.schema);
  const ConjunctiveQuery* queries[] = {&q1, &q2};
  SQLEQ_RETURN_IF_ERROR(context->Preflight(request, queries));
  // One budget governs the call, threaded per run through the runtime
  // rather than held by the memo's plan — so calls with different budgets
  // share one memo and its compiled kernels (see ContextKey above).
  ChaseMemo& memo = context->memo();
  ChaseRuntime runtime(ctx);
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
  Result<ChaseOutcome> c1_result = memo.Chase(q1, runtime);
  if (!c1_result.ok()) {
    if (!IsAnytimeStop(c1_result.status())) return c1_result.status();
    return counted(unknown(c1_result.status(), "chase of Q1"));
  }
  ChaseOutcome c1 = std::move(*c1_result);
  guard = ctx.budget.CheckDeadline("equivalence chase of Q2");
  if (!guard.ok()) return counted(unknown(guard, "chase of Q2"));
  Result<ChaseOutcome> c2_result = memo.Chase(q2, runtime);
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
  out.contexts = contexts_.size();
  for (const auto& [hash, context] : contexts_) {
    ChaseMemo& memo = context->memo();
    ChaseMemo::Stats s = memo.stats();
    out.hits += s.hits;
    out.misses += s.misses;
    out.entries += s.entries;
    SigmaPlan::Stats kernels = memo.plan().stats().kernels;
    out.compiled_kernels += kernels.tgd_kernels + kernels.egd_kernels;
    out.pattern_atoms += kernels.pattern_atoms;
  }
  return out;
}

}  // namespace sqleq
