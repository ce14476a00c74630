#include "equivalence/engine.h"

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

bool ChasedEquivalent(const ChaseOutcome& c1, const ChaseOutcome& c2,
                      Semantics semantics, const Schema& schema) {
  // A failed chase means the query is empty on every instance of Σ; two
  // queries are then equivalent iff both fail.
  if (c1.failed || c2.failed) return c1.failed == c2.failed;
  return ChasedEquivalent(c1.result, c2.result, semantics, schema);
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

AnalysisReport ChaseContext::Lint(std::span<const ConjunctiveQuery* const> queries,
                                  const AnalyzeOptions& options) const {
  return sigma_lint_.Analyze(queries, options);
}

Status ChaseContext::Preflight(const RunOptions& options,
                               std::span<const ConjunctiveQuery* const> queries) const {
  if (!options.analyze.enabled) return Status::OK();
  AnalyzeOptions analyze = options.analyze;
  if (analyze.budget == ResourceBudget{}) analyze.budget = options.context.budget;
  if (analyze.metrics == nullptr) analyze.metrics = options.context.metrics;
  return ReportToStatus(Lint(queries, analyze));
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
  return Equivalent(q1, q2, *ContextFor(request.semantics, request.sigma, request.schema),
                    request);
}

Result<EquivVerdict> EquivalenceEngine::Equivalent(const ConjunctiveQuery& q1,
                                                   const ConjunctiveQuery& q2,
                                                   ChaseContext& context,
                                                   const EquivOptions& options) {
  const EngineContext& ctx = options.context;
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
  const ConjunctiveQuery* queries[] = {&q1, &q2};
  SQLEQ_RETURN_IF_ERROR(context.Preflight(options, queries));
  // One budget governs the call, threaded per run through the runtime
  // rather than held by the memo's plan — so calls with different budgets
  // share one memo and its compiled kernels (see ContextKey above).
  ChaseMemo& memo = context.memo();
  ChaseRuntime runtime(ctx);
  runtime.resume = options.resume;  // subject-stamped: applied to its own query only
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;

  EquivVerdict verdict;
  verdict.semantics = context.semantics();
  // Anytime conversion: a chase stopped by budget/deadline/cancellation/
  // fault yields a kUnknown verdict, not an error.
  auto unknown = [&](const Status& status, const char* phase) -> EquivVerdict {
    verdict.verdict = Verdict::kUnknown;
    verdict.exhaustion = InferExhaustion(status, phase);
    verdict.checkpoint = std::move(checkpoint);
    return counted(std::move(verdict));
  };

  // The memo's shared outcomes, uncopied and in canonical variable space:
  // the decision is isomorphism-invariant, so nothing maps them back onto
  // the callers' names.
  constexpr const char* kPhases[] = {"chase of Q1", "chase of Q2"};
  constexpr const char* kDeadlineSites[] = {"equivalence chase of Q1",
                                            "equivalence chase of Q2"};
  std::shared_ptr<const ChaseOutcome> chased[2];
  for (int i = 0; i < 2; ++i) {
    Status guard = ctx.budget.CheckDeadline(kDeadlineSites[i]);
    if (!guard.ok()) return unknown(guard, kPhases[i]);
    Result<std::shared_ptr<const ChaseOutcome>> outcome =
        memo.ChaseCanonical(*queries[i], /*out_key=*/nullptr, runtime);
    if (!outcome.ok()) {
      if (!IsAnytimeStop(outcome.status())) return outcome.status();
      return unknown(outcome.status(), kPhases[i]);
    }
    chased[i] = *std::move(outcome);
  }
  // One shared outcome means equal canonical keys: the queries are
  // isomorphic, so equivalent under S, B and BS, failed chases included.
  verdict.verdict = chased[0] == chased[1] ||
                            ChasedEquivalent(*chased[0], *chased[1],
                                             context.semantics(), context.schema())
                        ? Verdict::kEquivalent
                        : Verdict::kNotEquivalent;
  return counted(std::move(verdict));
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
