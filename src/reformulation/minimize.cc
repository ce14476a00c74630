#include "reformulation/minimize.h"

#include <functional>

#include "equivalence/containment.h"
#include "equivalence/engine.h"

namespace sqleq {

ConjunctiveQuery MinimizeSet(const ConjunctiveQuery& q) {
  ConjunctiveQuery current = q.CanonicalRepresentation();
  bool shrunk = true;
  while (shrunk && current.body().size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < current.body().size(); ++i) {
      std::vector<Atom> smaller;
      for (size_t j = 0; j < current.body().size(); ++j) {
        if (j != i) smaller.push_back(current.body()[j]);
      }
      Result<ConjunctiveQuery> candidate =
          ConjunctiveQuery::Create(current.name(), current.head(), std::move(smaller));
      if (!candidate.ok()) continue;  // dropping atom i breaks safety
      if (SetEquivalent(*candidate, current)) {
        current = std::move(*candidate);
        shrunk = true;
        break;
      }
    }
  }
  return current;
}

Result<bool> IsSigmaMinimal(const ConjunctiveQuery& q, const DependencySet& sigma,
                            Semantics semantics, const Schema& schema,
                            const ResourceBudget& budget, size_t max_candidates) {
  std::vector<Term> vars = q.BodyVariables();
  size_t tried = 0;

  // Enumerate substitutions: each variable maps to itself or to another
  // variable of Q. Depth-first with early exit once a witness is found.
  std::vector<TermMap> substitutions;
  TermMap current;
  std::function<Status(size_t)> enumerate = [&](size_t i) -> Status {
    if (tried >= max_candidates) {
      return Status::ResourceExhausted("Σ-minimality search space exceeds budget");
    }
    if (i == vars.size()) {
      ++tried;
      substitutions.push_back(current);
      return Status::OK();
    }
    // Identity for vars[i].
    SQLEQ_RETURN_IF_ERROR(enumerate(i + 1));
    for (Term w : vars) {
      if (w == vars[i]) continue;
      current[vars[i]] = w;
      SQLEQ_RETURN_IF_ERROR(enumerate(i + 1));
      current.erase(vars[i]);
    }
    return Status::OK();
  };
  SQLEQ_RETURN_IF_ERROR(enumerate(0));

  // One engine for the whole search: every candidate shares Q's chase
  // context, so the memo collapses isomorphic candidates to one chase. The
  // Σ-lint pre-flight is skipped — candidates are derived from an already
  // vetted Q and Σ.
  EquivalenceEngine engine;
  EquivRequest request{semantics, sigma, schema};
  request.context.budget = budget;
  request.analyze.enabled = false;
  auto equivalent_to_q = [&](const ConjunctiveQuery& candidate) -> Result<bool> {
    SQLEQ_ASSIGN_OR_RETURN(EquivVerdict verdict,
                           engine.Equivalent(candidate, q, request));
    return VerdictToBool(verdict);
  };

  for (const TermMap& sub : substitutions) {
    ConjunctiveQuery s1 = q.Substitute(sub);
    SQLEQ_ASSIGN_OR_RETURN(bool s1_equivalent, equivalent_to_q(s1));
    if (!s1_equivalent) continue;
    // S2: drop nonempty subsets of atoms from S1. Subset enumeration is
    // bounded by the same budget.
    size_t n = s1.body().size();
    if (n >= 63) return Status::ResourceExhausted("query too large for subset search");
    for (uint64_t mask = 1; mask + 1 < (uint64_t(1) << n); ++mask) {
      if (++tried > max_candidates) {
        return Status::ResourceExhausted("Σ-minimality search space exceeds budget");
      }
      std::vector<Atom> kept;
      for (size_t j = 0; j < n; ++j) {
        if (!((mask >> j) & 1)) kept.push_back(s1.body()[j]);
      }
      if (kept.empty()) continue;
      Result<ConjunctiveQuery> s2 =
          ConjunctiveQuery::Create(s1.name(), s1.head(), std::move(kept));
      if (!s2.ok()) continue;  // unsafe drop
      SQLEQ_ASSIGN_OR_RETURN(bool s2_equivalent, equivalent_to_q(*s2));
      if (s2_equivalent) return false;  // witness: Q is not Σ-minimal
    }
  }
  return true;
}

}  // namespace sqleq
