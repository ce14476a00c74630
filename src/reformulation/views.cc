#include "reformulation/views.h"

#include <memory>
#include <unordered_set>

#include "chase/chase_cache.h"
#include "chase/chase_plan.h"
#include "chase/homomorphism.h"
#include "chase/sound_chase.h"
#include "equivalence/engine.h"
#include "equivalence/isomorphism.h"
#include "reformulation/backchase.h"
#include "util/fault.h"

namespace sqleq {
namespace {

/// Union-find over terms, constants as preferred representatives; a clash of
/// two distinct constants marks the rewriting unsatisfiable.
class Unifier {
 public:
  Term Find(Term t) {
    auto it = parent_.find(t);
    if (it == parent_.end() || it->second == t) return t;
    Term root = Find(it->second);
    parent_[t] = root;
    return root;
  }

  Status Union(Term a, Term b) {
    Term ra = Find(a);
    Term rb = Find(b);
    if (ra == rb) return Status::OK();
    if (ra.IsConstant() && rb.IsConstant()) {
      return Status::FailedPrecondition(
          "rewriting is unsatisfiable: view head forces " + ra.ToString() + " = " +
          rb.ToString());
    }
    if (ra.IsConstant()) std::swap(ra, rb);
    parent_[ra] = rb;
    return Status::OK();
  }

 private:
  TermMap parent_;
};

}  // namespace

Status ViewSet::Add(const ConjunctiveQuery& definition) {
  const std::string& name = definition.name();
  if (views_.count(name) > 0) {
    return Status::InvalidArgument("duplicate view '" + name + "'");
  }
  for (const Atom& a : definition.body()) {
    if (views_.count(a.predicate()) > 0 || a.predicate() == name) {
      return Status::Unsupported("view '" + name + "' references view '" +
                                 a.predicate() + "'; nested views are not supported");
    }
  }
  for (const auto& [existing_name, existing] : views_) {
    for (const Atom& a : existing.body()) {
      if (a.predicate() == name) {
        return Status::Unsupported("view '" + name + "' is referenced by view '" +
                                   existing_name + "'; nested views are not supported");
      }
    }
  }
  views_.emplace(name, definition);
  order_.push_back(name);
  return Status::OK();
}

Result<ConjunctiveQuery> ViewSet::Get(const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) return Status::NotFound("unknown view '" + name + "'");
  return it->second;
}

Schema ViewSet::AsSchema(bool set_valued) const {
  Schema out;
  for (const auto& [name, def] : views_) {
    Status s = out.AddRelation(name, def.head().size(), {}, set_valued);
    (void)s;  // names are unique and arities positive by construction
  }
  return out;
}

Result<ConjunctiveQuery> ExpandRewriting(const ConjunctiveQuery& rewriting,
                                         const ViewSet& views) {
  // Phase 1: constraints induced by repeated variables / constants in view
  // heads become unifications over the rewriting's terms.
  Unifier unifier;
  for (const Atom& atom : rewriting.body()) {
    if (!views.Has(atom.predicate())) continue;
    SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery def, views.Get(atom.predicate()));
    if (def.head().size() != atom.arity()) {
      return Status::InvalidArgument("view atom " + atom.ToString() +
                                     " disagrees with view head arity " +
                                     std::to_string(def.head().size()));
    }
    TermMap seen;  // view head variable -> rewriting term
    for (size_t i = 0; i < atom.arity(); ++i) {
      Term h = def.head()[i];
      Term arg = atom.args()[i];
      if (h.IsConstant()) {
        SQLEQ_RETURN_IF_ERROR(unifier.Union(arg, h));
        continue;
      }
      auto it = seen.find(h);
      if (it != seen.end()) {
        SQLEQ_RETURN_IF_ERROR(unifier.Union(it->second, arg));
      } else {
        seen.emplace(h, arg);
      }
    }
  }

  // Phase 2: apply the unifier to the whole rewriting.
  std::vector<Term> head;
  for (Term t : rewriting.head()) head.push_back(unifier.Find(t));
  std::vector<Atom> atoms;
  for (const Atom& a : rewriting.body()) {
    std::vector<Term> args;
    for (Term t : a.args()) args.push_back(unifier.Find(t));
    atoms.emplace_back(a.predicate(), std::move(args));
  }

  // Phase 3: splice in freshened view bodies.
  std::vector<Atom> body;
  for (const Atom& atom : atoms) {
    if (!views.Has(atom.predicate())) {
      body.push_back(atom);
      continue;
    }
    SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery def, views.Get(atom.predicate()));
    ConjunctiveQuery fresh = def.RenameApart();
    TermMap map;
    for (size_t i = 0; i < atom.arity(); ++i) {
      Term h = fresh.head()[i];
      if (h.IsVariable()) map.emplace(h, atom.args()[i]);
    }
    for (const Atom& view_atom : ApplyTermMap(map, fresh.body())) {
      body.push_back(view_atom);
    }
  }
  return ConjunctiveQuery::Create(rewriting.name() + "_exp", std::move(head),
                                  std::move(body));
}

Result<bool> IsEquivalentRewriting(const ConjunctiveQuery& q,
                                   const ConjunctiveQuery& rewriting,
                                   const ViewSet& views, const DependencySet& sigma,
                                   Semantics semantics, const Schema& schema,
                                   const ChaseOptions& options) {
  Result<ConjunctiveQuery> expansion = ExpandRewriting(rewriting, views);
  if (!expansion.ok()) {
    if (expansion.status().code() == StatusCode::kFailedPrecondition) {
      return false;  // unsatisfiable rewriting is never equivalent to a CQ
    }
    return expansion.status();
  }
  EquivalenceEngine engine;
  EquivRequest request{semantics, sigma, schema, options};
  request.context.budget = options.budget;
  SQLEQ_ASSIGN_OR_RETURN(EquivVerdict verdict,
                         engine.Equivalent(*expansion, q, request));
  return VerdictToBool(verdict);
}

Result<RewriteResult> RewriteWithViews(const ConjunctiveQuery& q, const ViewSet& views,
                                       const DependencySet& sigma, Semantics semantics,
                                       const Schema& schema,
                                       const RewriteOptions& options) {
  if (options.verify_sigma_minimality) {
    // Inherited from CandBOptions, but view rewriting has no Def 3.1
    // filter: refuse the option rather than silently ignore it.
    return Status::InvalidArgument(
        "verify_sigma_minimality is not supported by RewriteWithViews");
  }
  const EngineContext& ctx = options.context;
  TraceSpan rewrite_span(ctx.trace, "rewrite.views");
  if (options.analyze.enabled) {
    // Pre-flight Q and every view definition: a bad view body would
    // otherwise surface deep inside candidate expansion chases.
    std::vector<ConjunctiveQuery> queries{q};
    for (const std::string& name : views.names()) {
      SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery def, views.Get(name));
      queries.push_back(std::move(def));
    }
    AnalyzeOptions analyze = options.analyze;
    if (analyze.budget == ResourceBudget{}) analyze.budget = ctx.budget;
    SQLEQ_RETURN_IF_ERROR(
        ReportToStatus(AnalyzeProgram(schema, sigma, queries, analyze)));
  }
  // One budget governs the whole call (see CandBOptions::context).
  ChaseOptions chase_options = options.chase;
  chase_options.budget = ctx.budget;

  // One compiled plan serves the whole rewrite: the chase of Q, the chase of
  // U, and every candidate expansion (through the memo) share its Σ kernels.
  auto chase_plan = std::make_shared<const ChasePlan>(sigma, semantics, schema,
                                                      chase_options);

  const CandBCheckpoint* resume = options.resume;
  const bool resume_backchase =
      resume != nullptr && resume->phase == CandBCheckpoint::kBackchasePhase &&
      resume->universal_plan.has_value() && resume->backchase.has_value();

  // Chase phase.
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
      RewriteResult out{{}, q, 0, 0, 0, true, std::nullopt, std::nullopt};
      out.complete = false;
      out.exhaustion = InferExhaustion(chased.status(), "chase");
      CandBCheckpoint cp;
      cp.phase = CandBCheckpoint::kChasePhase;
      cp.chase = std::move(chase_checkpoint);
      out.checkpoint = std::move(cp);
      return out;
    }
    if (chased->failed) {
      return Status::FailedPrecondition("chase failed: Q is unsatisfiable under Σ");
    }
    plan = std::move(chased->result);
  }
  RewriteResult out{{}, *plan, 0, 0, 0, true, std::nullopt, std::nullopt};
  const ConjunctiveQuery& u = out.universal_plan;

  // Candidate atoms: view atoms induced by homomorphisms view-body → U,
  // plus (optionally) the base atoms of U.
  std::vector<Atom> pool;
  std::unordered_set<Atom, AtomHash> seen;
  for (const std::string& name : views.names()) {
    SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery def, views.Get(name));
    ConjunctiveQuery fresh = def.RenameApart();
    ForEachHomomorphism(fresh.body(), u.body(), TermMap(), [&](const TermMap& h) {
      std::vector<Term> args;
      args.reserve(fresh.head().size());
      for (Term t : fresh.head()) args.push_back(ApplyTermMap(h, t));
      Atom candidate(name, std::move(args));
      if (seen.insert(candidate).second) pool.push_back(std::move(candidate));
      return true;
    });
  }
  if (options.allow_base_atoms) {
    for (const Atom& a : u.body()) {
      if (seen.insert(a).second) pool.push_back(a);
    }
  }
  if (pool.size() >= 24) {
    return Status::ResourceExhausted("rewriting candidate pool too large (" +
                                     std::to_string(pool.size()) + " atoms)");
  }

  // Backchase over subsets of the pool, smallest first, through the shared
  // sweep: candidate expansions are chased via a memo (isomorphic expansions
  // abound among view-atom combinations), and U itself is chased exactly
  // once, up front, instead of once per candidate.
  ChaseMemo memo(chase_plan);
  ChaseRuntime memo_runtime;
  memo_runtime.faults = ctx.faults;
  memo_runtime.cancel = ctx.cancel;
  memo_runtime.metrics = ctx.metrics;
  memo_runtime.trace = ctx.trace;
  std::string u_key;
  Result<std::shared_ptr<const ChaseOutcome>> u_chase_result =
      memo.ChaseCanonical(u, &u_key, memo_runtime);
  if (!u_chase_result.ok()) {
    if (!IsAnytimeStop(u_chase_result.status())) return u_chase_result.status();
    // U's own (usually near-fixpoint) chase tripped before the sweep began:
    // checkpoint at the sweep's start — or at the incoming resume point,
    // which is strictly further along.
    RewriteResult partial{{}, u, 0, 0, 0, true, std::nullopt, std::nullopt};
    partial.complete = false;
    partial.exhaustion = InferExhaustion(u_chase_result.status(), "backchase");
    CandBCheckpoint cp;
    cp.phase = CandBCheckpoint::kBackchasePhase;
    cp.universal_plan = u;
    cp.backchase =
        resume_backchase ? *resume->backchase : BackchaseCheckpoint{};
    if (resume_backchase) {
      partial.rewritings = resume->backchase->accepted;
      partial.candidates_examined = resume->backchase->stats.candidates_examined;
      partial.chase_cache_hits = resume->backchase->stats.chase_cache_hits;
      partial.chase_cache_misses = resume->backchase->stats.chase_cache_misses;
    }
    partial.checkpoint = std::move(cp);
    return partial;
  }
  std::shared_ptr<const ChaseOutcome> u_chased = std::move(*u_chase_result);
  auto evaluate = [&](uint64_t mask) -> Result<CandidateVerdict> {
    SQLEQ_RETURN_IF_ERROR(
        ProbeSite(ctx.faults, ctx.cancel, fault_sites::kBackchaseCandidate));
    std::vector<Atom> body;
    for (size_t i = 0; i < pool.size(); ++i) {
      if ((mask >> i) & 1) body.push_back(pool[i]);
    }
    Result<ConjunctiveQuery> candidate =
        ConjunctiveQuery::Create(q.name() + "_v", u.head(), std::move(body));
    if (!candidate.ok()) return CandidateVerdict{};  // unsafe — skip

    CandidateVerdict verdict;
    Result<ConjunctiveQuery> expansion = ExpandRewriting(*candidate, views);
    if (!expansion.ok()) {
      if (expansion.status().code() == StatusCode::kFailedPrecondition) {
        // Unsatisfiable rewriting (view heads force a constant clash) —
        // never equivalent to a CQ.
        verdict.outcome = CandidateOutcome::kRejected;
        return verdict;
      }
      return expansion.status();
    }
    SQLEQ_ASSIGN_OR_RETURN(
        std::shared_ptr<const ChaseOutcome> exp_chased,
        memo.ChaseCanonical(*expansion, &verdict.chase_key, memo_runtime));
    if (exp_chased->failed) {
      verdict.outcome = u_chased->failed ? CandidateOutcome::kAccepted
                                         : CandidateOutcome::kChaseFailed;
      if (verdict.outcome == CandidateOutcome::kAccepted) {
        verdict.query = std::move(*candidate);
      }
      return verdict;
    }

    // Both chases live in canonical variable space; ChasedEquivalent is
    // isomorphism-invariant.
    bool equivalent =
        !u_chased->failed &&
        ChasedEquivalent(exp_chased->result, u_chased->result, semantics, schema);
    if (equivalent) {
      verdict.outcome = CandidateOutcome::kAccepted;
      verdict.query = std::move(*candidate);
    } else {
      verdict.outcome = CandidateOutcome::kRejected;
    }
    return verdict;
  };

  // Failure pruning (supersets of a mask whose expansion's chase failed):
  // sound under set semantics only — a superset mask induces a stronger
  // unifier, so its expansion receives a homomorphism from the failed one,
  // and unsatisfiability transfers along homomorphisms.
  SweepOptions sweep_options;
  sweep_options.enable_failure_prune =
      semantics == Semantics::kSet && !u_chased->failed;
  sweep_options.preseeded_chase_keys = {u_key};
  sweep_options.faults = ctx.faults;
  sweep_options.cancel = ctx.cancel;
  sweep_options.metrics = ctx.metrics;
  sweep_options.trace = ctx.trace;
  if (resume_backchase) sweep_options.resume = &*resume->backchase;
  SQLEQ_ASSIGN_OR_RETURN(
      SweepOutput swept,
      SweepBackchaseLattice(pool.size(), ctx.budget, sweep_options, evaluate));
  out.rewritings = std::move(swept.accepted);
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

Result<RewriteResult> RewriteWithViewsWithRetry(
    const ConjunctiveQuery& q, const ViewSet& views, const DependencySet& sigma,
    Semantics semantics, const Schema& schema, const RewriteOptions& options,
    const EscalatingBudget& policy) {
  RewriteOptions attempt_options = options;
  return RetryWithEscalatingBudget(
      policy, options.context.budget, options.resume,
      [&](const ResourceBudget& budget, const CandBCheckpoint* resume) {
        attempt_options.context.budget = budget;
        attempt_options.resume = resume;
        return RewriteWithViews(q, views, sigma, semantics, schema,
                                attempt_options);
      },
      [](const RewriteResult& r) { return r.complete; });
}

}  // namespace sqleq
