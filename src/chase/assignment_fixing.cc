#include "chase/assignment_fixing.h"

#include <set>
#include <unordered_set>

#include "chase/chase_internal.h"
#include "chase/chase_step.h"
#include "chase/flat_db.h"
#include "chase/sigma_plan.h"
#include "constraints/keys.h"

namespace sqleq {

AssociatedTestQuery BuildAssociatedTestQuery(const ConjunctiveQuery& q, const Tgd& tgd,
                                             const TermMap& h) {
  AssociatedTestQuery out{q, {}};
  std::vector<Term> existentials = tgd.ExistentialVariables();

  // First copy: ψ(h(X̄), Z̄) with Z̄ fresh.
  TermMap first = h;
  for (Term z : existentials) {
    first.emplace(z, Term::FreshVar(std::string(z.name())));
  }
  // Second copy: ψ(h(X̄), θ(Z̄)) with θ(Z̄) fresh and disjoint.
  TermMap second = h;
  for (Term z : existentials) {
    second.emplace(z, Term::FreshVar(std::string(z.name()) + "t"));
  }

  std::vector<Atom> body = q.body();
  for (const Atom& a : ApplyTermMap(first, tgd.head())) body.push_back(a);
  if (!existentials.empty()) {
    for (const Atom& a : ApplyTermMap(second, tgd.head())) body.push_back(a);
  }
  for (Term z : existentials) {
    out.existential_pairs.emplace_back(first.at(z), second.at(z));
  }
  out.query = q.WithBody(std::move(body)).WithName(q.name() + "_test");
  return out;
}

Result<bool> IsAssignmentFixing(const ConjunctiveQuery& q, const Tgd& tgd,
                                const TermMap& h, const DependencySet& sigma,
                                const SigmaPlan& plan, const ResourceBudget& budget) {
  if (tgd.IsFull()) return true;  // Prop 4.3.
  AssociatedTestQuery test = BuildAssociatedTestQuery(q, tgd, h);
  ChaseRuntime runtime;
  runtime.budget = budget;
  SQLEQ_ASSIGN_OR_RETURN(ChaseOutcome chased,
                         chase_internal::RunChase(test.query, sigma, plan,
                                                  Semantics::kSet, Schema(), runtime,
                                                  /*sigma_terminates=*/false));
  if (chased.failed) {
    // Chase failure: Q^{σ,h,θ} is unsatisfiable under Σ; no database can
    // witness a multiplicity blow-up, so the step fixes assignments
    // vacuously. (Does not arise in the paper's examples.)
    return true;
  }
  std::unordered_set<Term, TermHash> vars;
  for (Term v : chased.result.BodyVariables()) vars.insert(v);
  for (const auto& [z, theta_z] : test.existential_pairs) {
    if (vars.count(z) > 0 && vars.count(theta_z) > 0) return false;
  }
  return true;
}

Result<bool> IsAssignmentFixingForQuery(const ConjunctiveQuery& q, const Tgd& tgd,
                                        const DependencySet& sigma,
                                        const ResourceBudget& budget) {
  SigmaPlan plan = SigmaPlan::Compile(sigma);
  SigmaPlan trigger = SigmaPlan::Compile({Dependency::FromTgd(tgd)});
  FlatConjunction flat(q.body());
  Result<bool> fixing = false;
  trigger.ForEachApplicableTgdHomomorphism(0, flat, [&](const TermMap& h) {
    fixing = IsAssignmentFixing(q, tgd, h, sigma, plan, budget);
    return fixing.ok() && !*fixing;
  });
  return fixing;
}

bool IsKeyBased(const Tgd& tgd, const DependencySet& sigma, const Schema& schema,
                bool require_set_valued) {
  std::vector<Fd> fds = ExtractFds(sigma);
  std::unordered_set<Term, TermHash> existential;
  for (Term z : tgd.ExistentialVariables()) existential.insert(z);
  for (const Atom& head_atom : tgd.head()) {
    if (require_set_valued && !schema.IsSetValued(head_atom.predicate())) return false;
    std::set<size_t> universal_positions;
    for (size_t i = 0; i < head_atom.arity(); ++i) {
      Term t = head_atom.args()[i];
      if (t.IsConstant() || existential.count(t) == 0) universal_positions.insert(i);
    }
    if (!IsSuperkey(head_atom.predicate(), head_atom.arity(), universal_positions,
                    fds)) {
      return false;
    }
  }
  return true;
}

}  // namespace sqleq
