#include "reformulation/views.h"

#include <memory>
#include <unordered_set>

#include "chase/homomorphism.h"
#include "equivalence/engine.h"
#include "reformulation/reformulate.h"

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

Result<RewriteResult> RewriteWithViews(EquivalenceEngine& engine,
                                       const ConjunctiveQuery& q, const ViewSet& views,
                                       const DependencySet& sigma, Semantics semantics,
                                       const Schema& schema,
                                       const RewriteOptions& options) {
  if (options.verify_sigma_minimality) {
    // Inherited from CandBOptions, but view rewriting has no Def 3.1
    // filter: refuse the option rather than silently ignore it.
    return Status::InvalidArgument(
        "verify_sigma_minimality is not supported by RewriteWithViews");
  }
  // Pre-flight Q and every view definition: a bad view body would otherwise
  // surface deep inside candidate expansion chases.
  std::vector<ConjunctiveQuery> preflight{q};
  if (options.analyze.enabled) {
    for (const std::string& name : views.names()) {
      SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery def, views.Get(name));
      preflight.push_back(std::move(def));
    }
  }

  // Candidate atoms: view atoms induced by homomorphisms view-body → U,
  // plus (optionally) the base atoms of U.
  std::vector<Atom> pool;
  std::shared_ptr<const ChaseOutcome> u_chased;
  auto build = [&](const ConjunctiveQuery& u, ChaseMemo& memo,
                   const ChaseRuntime& runtime) -> Result<CandidateLattice> {
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

    // Candidate expansions are chased through the memo (isomorphic
    // expansions abound among view-atom combinations), and U itself is
    // chased exactly once, up front, instead of once per candidate.
    CandidateLattice lattice;
    lattice.size = pool.size();
    std::string u_key;
    Result<std::shared_ptr<const ChaseOutcome>> u_result =
        memo.ChaseCanonical(u, &u_key, runtime);
    if (!u_result.ok()) {
      if (!IsAnytimeStop(u_result.status())) return u_result.status();
      // U's own (usually near-fixpoint) chase tripped before the sweep.
      lattice.stopped = u_result.status();
      return lattice;
    }
    u_chased = std::move(*u_result);
    // Failure pruning (supersets of a mask whose expansion's chase failed):
    // sound under set semantics only — a superset mask induces a stronger
    // unifier, so its expansion receives a homomorphism from the failed
    // one, and unsatisfiability transfers along homomorphisms.
    lattice.sweep.enable_failure_prune =
        semantics == Semantics::kSet && !u_chased->failed;
    lattice.sweep.preseeded_chase_keys = {u_key};
    lattice.evaluate = [&](uint64_t mask) -> Result<CandidateVerdict> {
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
          memo.ChaseCanonical(*expansion, &verdict.chase_key, runtime));
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
      bool equivalent = !u_chased->failed &&
                        ChasedEquivalent(exp_chased->result, u_chased->result,
                                         semantics, schema);
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
  SQLEQ_ASSIGN_OR_RETURN(CandBResult run,
                         RunBackchase(engine, q, sigma, semantics, schema, options,
                                      "rewrite.views", preflight, build));
  return RewriteResult{std::move(run.reformulations), std::move(run.universal_plan),
                       run.candidates_examined,        run.chase_cache_hits,
                       run.chase_cache_misses,         run.complete,
                       std::move(run.exhaustion),      std::move(run.checkpoint)};
}

Result<RewriteResult> RewriteWithViews(const ConjunctiveQuery& q, const ViewSet& views,
                                       const DependencySet& sigma, Semantics semantics,
                                       const Schema& schema,
                                       const RewriteOptions& options) {
  EquivalenceEngine engine;
  return RewriteWithViews(engine, q, views, sigma, semantics, schema, options);
}

Result<RewriteResult> RewriteWithViewsWithRetry(
    const ConjunctiveQuery& q, const ViewSet& views, const DependencySet& sigma,
    Semantics semantics, const Schema& schema, const RewriteOptions& options,
    const EscalatingBudget& policy) {
  EquivalenceEngine engine;  // shared by the attempts, as in C&B
  RewriteOptions attempt_options = options;
  return RetryWithEscalatingBudget(
      policy, options.context.budget, options.resume,
      [&](const ResourceBudget& budget, const CandBCheckpoint* resume) {
        attempt_options.context.budget = budget;
        attempt_options.resume = resume;
        return RewriteWithViews(engine, q, views, sigma, semantics, schema,
                                attempt_options);
      },
      [](const RewriteResult& r) { return r.complete; });
}

}  // namespace sqleq
