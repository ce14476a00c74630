#include "reformulation/candb.h"

#include <string>
#include <utility>

#include "equivalence/engine.h"
#include "reformulation/reformulate.h"
#include "reformulation/minimize.h"

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

Result<CandBResult> ChaseAndBackchase(ChaseContext& context, const ConjunctiveQuery& q,
                                      const CandBOptions& options) {
  const Semantics semantics = context.semantics();
  const Schema& schema = context.schema();
  auto build = [&](const ConjunctiveQuery& u, ChaseMemo& memo,
                   const ChaseRuntime& runtime) -> Result<CandidateLattice> {
    const size_t n = u.body().size();
    if (n >= 63) {
      return Status::ResourceExhausted("universal plan too large for backchase (" +
                                       std::to_string(n) + " atoms)");
    }
    // Subqueries of U, chased through the memo so isomorphic candidates cost
    // one chase. Every candidate is a sub-conjunction of U, so U's Σ-slice
    // is sound for all of them: slice once instead of 2^n candidate shapes.
    const SigmaSlice* envelope = &memo.plan().SliceFor(u);
    CandidateLattice lattice;
    lattice.size = n;
    // Failure pruning is sound only under set semantics: there, chase
    // failure witnesses unsatisfiability, which is monotone in the body
    // (restricting a homomorphism into a model is a homomorphism). Under
    // B/BS the sound chase fixes assignments per query, so no such
    // monotonicity holds.
    lattice.sweep.enable_failure_prune = semantics == Semantics::kSet;
    lattice.evaluate = [&, n, envelope](uint64_t mask) -> Result<CandidateVerdict> {
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
          memo.ChaseCanonical(*candidate, &verdict.chase_key, runtime, envelope));
      if (cand_chased->failed) {
        verdict.outcome = CandidateOutcome::kChaseFailed;
        return verdict;
      }

      // The cached chase is in canonical variable space; ChasedEquivalent is
      // isomorphism-invariant, so no remapping is needed.
      bool equivalent =
          ChasedEquivalent(cand_chased->result, u, semantics, schema);
      if (equivalent && options.verify_sigma_minimality) {
        // The Def 3.1 filter chases outside the memo, under the call's budget.
        SQLEQ_ASSIGN_OR_RETURN(
            bool minimal, IsSigmaMinimal(*candidate, context.sigma(), semantics, schema,
                                         options.context.budget));
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
    return lattice;
  };
  const ConjunctiveQuery* preflight[] = {&q};
  return RunBackchase(context, q, options, "candb", preflight, build);
}

Result<CandBResult> ChaseAndBackchase(EquivalenceEngine& engine,
                                      const ConjunctiveQuery& q,
                                      const DependencySet& sigma, Semantics semantics,
                                      const Schema& schema, const CandBOptions& options) {
  return ChaseAndBackchase(*engine.ContextFor(semantics, sigma, schema), q, options);
}

Result<CandBResult> ChaseAndBackchase(const ConjunctiveQuery& q,
                                      const DependencySet& sigma, Semantics semantics,
                                      const Schema& schema, const CandBOptions& options) {
  EquivalenceEngine engine;
  return ChaseAndBackchase(engine, q, sigma, semantics, schema, options);
}

Result<CandBResult> ChaseAndBackchaseWithRetry(
    const ConjunctiveQuery& q, const DependencySet& sigma, Semantics semantics,
    const Schema& schema, const CandBOptions& options,
    const EscalatingBudget& policy) {
  // Attempts share one engine, so a resumed attempt finds the chases its
  // predecessors finished already in the memo.
  EquivalenceEngine engine;
  CandBOptions attempt_options = options;
  return RetryWithEscalatingBudget(
      policy, options.context.budget, options.resume,
      [&](const ResourceBudget& budget, const CandBCheckpoint* resume) {
        attempt_options.context.budget = budget;
        attempt_options.resume = resume;
        return ChaseAndBackchase(engine, q, sigma, semantics, schema,
                                 attempt_options);
      },
      [](const CandBResult& r) { return r.complete; });
}

}  // namespace sqleq
