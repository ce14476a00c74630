#include "reformulation/candb.h"

#include <string>
#include <utility>

#include "chase/chase_cache.h"
#include "chase/chase_plan.h"
#include "chase/sound_chase.h"
#include "equivalence/engine.h"
#include "reformulation/minimize.h"
#include "util/fault.h"

namespace sqleq {

std::string CandBCheckpoint::Serialize() const {
  std::string out = "sqleq-candb-checkpoint v1\n";
  out += "phase " + phase + '\n';
  if (chase.has_value()) {
    out += "chase-begin\n";
    out += chase->Serialize();
    out += "chase-end\n";
  }
  if (universal_plan.has_value()) {
    out += "plan " + SerializeQuery(*universal_plan) + '\n';
  }
  if (backchase.has_value()) {
    out += "backchase-begin\n";
    out += backchase->Serialize();
    out += "backchase-end\n";
  }
  out += "end\n";
  return out;
}

Result<CandBCheckpoint> CandBCheckpoint::Deserialize(std::string_view text) {
  CandBCheckpoint cp;
  size_t pos = 0;
  auto next_line = [&]() -> std::optional<std::string_view> {
    if (pos >= text.size()) return std::nullopt;
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  auto collect_until = [&](std::string_view sentinel) -> Result<std::string> {
    std::string block;
    while (true) {
      std::optional<std::string_view> line = next_line();
      if (!line.has_value()) {
        return Status::InvalidArgument("checkpoint: missing " +
                                       std::string(sentinel));
      }
      if (*line == sentinel) return block;
      block += std::string(*line);
      block += '\n';
    }
  };
  std::optional<std::string_view> header = next_line();
  if (!header.has_value() || *header != "sqleq-candb-checkpoint v1") {
    return Status::InvalidArgument("checkpoint: bad candb header");
  }
  bool saw_end = false;
  while (true) {
    std::optional<std::string_view> line = next_line();
    if (!line.has_value()) break;
    if (line->empty()) continue;
    if (*line == "end") {
      saw_end = true;
      break;
    }
    if (line->rfind("phase ", 0) == 0) {
      cp.phase = std::string(line->substr(6));
    } else if (*line == "chase-begin") {
      SQLEQ_ASSIGN_OR_RETURN(std::string block, collect_until("chase-end"));
      SQLEQ_ASSIGN_OR_RETURN(ChaseCheckpoint inner,
                             ChaseCheckpoint::Deserialize(block));
      cp.chase = std::move(inner);
    } else if (line->rfind("plan ", 0) == 0) {
      SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery plan,
                             DeserializeQuery(line->substr(5)));
      cp.universal_plan = std::move(plan);
    } else if (*line == "backchase-begin") {
      SQLEQ_ASSIGN_OR_RETURN(std::string block, collect_until("backchase-end"));
      SQLEQ_ASSIGN_OR_RETURN(BackchaseCheckpoint inner,
                             BackchaseCheckpoint::Deserialize(block));
      cp.backchase = std::move(inner);
    } else {
      return Status::InvalidArgument("checkpoint: unknown candb line");
    }
  }
  if (!saw_end) return Status::InvalidArgument("checkpoint: truncated");
  if (cp.phase != kChasePhase && cp.phase != kBackchasePhase) {
    return Status::InvalidArgument("checkpoint: unknown candb phase '" +
                                   cp.phase + "'");
  }
  return cp;
}

Result<CandBResult> ChaseAndBackchase(const ConjunctiveQuery& q,
                                      const DependencySet& sigma, Semantics semantics,
                                      const Schema& schema, const CandBOptions& options) {
  const EngineContext& ctx = options.context;
  TraceSpan candb_span(ctx.trace, "candb");
  if (options.analyze.enabled) {
    AnalyzeOptions analyze = options.analyze;
    if (analyze.budget == ResourceBudget{}) analyze.budget = ctx.budget;
    SQLEQ_RETURN_IF_ERROR(
        ReportToStatus(AnalyzeProgram(schema, sigma, {q}, analyze)));
  }
  // One budget governs the whole call: fold it into the chase options every
  // chase below runs with.
  ChaseOptions chase_options = options.chase;
  chase_options.budget = ctx.budget;

  // One compiled plan serves the whole call: the universal-plan chase and
  // every backchase candidate (through the memo) share its Σ kernels.
  auto chase_plan = std::make_shared<const ChasePlan>(sigma, semantics, schema,
                                                      chase_options);

  const CandBCheckpoint* resume = options.resume;
  const bool resume_backchase =
      resume != nullptr && resume->phase == CandBCheckpoint::kBackchasePhase &&
      resume->universal_plan.has_value() && resume->backchase.has_value();

  // ---- Chase phase: universal plan U = (Q)Σ,X. ----
  std::optional<ConjunctiveQuery> plan;
  if (resume_backchase) {
    plan = *resume->universal_plan;
  } else {
    ChaseRuntime chase_runtime;
    chase_runtime.faults = ctx.faults;
    chase_runtime.cancel = ctx.cancel;
    chase_runtime.metrics = ctx.metrics;
    chase_runtime.trace = ctx.trace;
    if (resume != nullptr && resume->phase == CandBCheckpoint::kChasePhase &&
        resume->chase.has_value()) {
      chase_runtime.resume = &*resume->chase;
    }
    std::optional<ChaseCheckpoint> chase_checkpoint;
    chase_runtime.checkpoint_out = &chase_checkpoint;
    Result<ChaseOutcome> chased = chase_plan->Run(q, chase_runtime);
    if (!chased.ok()) {
      if (!IsAnytimeStop(chased.status())) return chased.status();
      // The plan does not exist yet: no reformulation can be confirmed.
      // Package what the chase got through as a resumable partial result.
      CandBResult out{q, {}, 0, 0, 0, true, std::nullopt, std::nullopt};
      out.complete = false;
      out.exhaustion = InferExhaustion(chased.status(), "chase");
      CandBCheckpoint cp;
      cp.phase = CandBCheckpoint::kChasePhase;
      cp.chase = std::move(chase_checkpoint);
      out.checkpoint = std::move(cp);
      return out;
    }
    if (chased->failed) {
      return Status::FailedPrecondition(
          "chase failed: Q is unsatisfiable on every instance of Σ");
    }
    plan = std::move(chased->result);
  }
  CandBResult out{*plan, {}, 0, 0, 0, true, std::nullopt, std::nullopt};
  const ConjunctiveQuery& u = out.universal_plan;

  size_t n = u.body().size();
  if (n >= 63) {
    return Status::ResourceExhausted("universal plan too large for backchase (" +
                                     std::to_string(n) + " atoms)");
  }

  // ---- Backchase phase: subqueries of U, smallest first, chased through a
  // shared memo so isomorphic candidates cost one chase. Every candidate is
  // a sub-conjunction of U, so U's Σ-slice is sound for all of them — pin
  // it once instead of slicing 2^n candidate shapes.
  ChaseMemo memo(chase_plan);
  memo.PinEnvelope(u);
  ChaseRuntime memo_runtime;
  memo_runtime.faults = ctx.faults;
  memo_runtime.cancel = ctx.cancel;
  memo_runtime.metrics = ctx.metrics;
  memo_runtime.trace = ctx.trace;
  auto evaluate = [&](uint64_t mask) -> Result<CandidateVerdict> {
    SQLEQ_RETURN_IF_ERROR(
        ProbeSite(ctx.faults, ctx.cancel, fault_sites::kBackchaseCandidate));
    std::vector<Atom> body;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) body.push_back(u.body()[i]);
    }
    Result<ConjunctiveQuery> candidate =
        ConjunctiveQuery::Create(q.name(), u.head(), std::move(body));
    if (!candidate.ok()) return CandidateVerdict{};  // unsafe subquery — skip

    CandidateVerdict verdict;
    SQLEQ_ASSIGN_OR_RETURN(
        std::shared_ptr<const ChaseOutcome> cand_chased,
        memo.ChaseCanonical(*candidate, &verdict.chase_key, memo_runtime));
    if (cand_chased->failed) {
      verdict.outcome = CandidateOutcome::kChaseFailed;
      return verdict;
    }

    // The cached chase is in canonical variable space; ChasedEquivalent is
    // isomorphism-invariant, so no remapping is needed.
    bool equivalent = ChasedEquivalent(cand_chased->result, u, semantics, schema);
    if (equivalent && options.verify_sigma_minimality) {
      SQLEQ_ASSIGN_OR_RETURN(
          bool minimal,
          IsSigmaMinimal(*candidate, sigma, semantics, schema, chase_options));
      equivalent = minimal;
    }
    if (equivalent) {
      verdict.outcome = CandidateOutcome::kAccepted;
      verdict.query = std::move(*candidate);
    } else {
      verdict.outcome = CandidateOutcome::kRejected;
    }
    return verdict;
  };

  // Failure pruning is sound only under set semantics: there, chase failure
  // witnesses unsatisfiability, which is monotone in the body (restricting a
  // homomorphism into a model is a homomorphism). Under B/BS the sound chase
  // fixes assignments per query, so no such monotonicity holds.
  SweepOptions sweep_options;
  sweep_options.enable_failure_prune = semantics == Semantics::kSet;
  sweep_options.faults = ctx.faults;
  sweep_options.cancel = ctx.cancel;
  sweep_options.metrics = ctx.metrics;
  sweep_options.trace = ctx.trace;
  if (resume_backchase) sweep_options.resume = &*resume->backchase;
  SQLEQ_ASSIGN_OR_RETURN(
      SweepOutput swept,
      SweepBackchaseLattice(n, ctx.budget, sweep_options, evaluate));
  out.reformulations = std::move(swept.accepted);
  out.candidates_examined = swept.stats.candidates_examined;
  out.chase_cache_hits = swept.stats.chase_cache_hits;
  out.chase_cache_misses = swept.stats.chase_cache_misses;
  if (!swept.complete) {
    out.complete = false;
    out.exhaustion = std::move(swept.exhaustion);
    CandBCheckpoint cp;
    cp.phase = CandBCheckpoint::kBackchasePhase;
    cp.universal_plan = u;
    cp.backchase = std::move(swept.checkpoint);
    out.checkpoint = std::move(cp);
  }
  return out;
}

Result<CandBResult> ChaseAndBackchaseWithRetry(
    const ConjunctiveQuery& q, const DependencySet& sigma, Semantics semantics,
    const Schema& schema, const CandBOptions& options,
    const EscalatingBudget& policy) {
  CandBOptions attempt_options = options;
  return RetryWithEscalatingBudget(
      policy, options.context.budget, options.resume,
      [&](const ResourceBudget& budget, const CandBCheckpoint* resume) {
        attempt_options.context.budget = budget;
        attempt_options.resume = resume;
        return ChaseAndBackchase(q, sigma, semantics, schema, attempt_options);
      },
      [](const CandBResult& r) { return r.complete; });
}

}  // namespace sqleq
