// CQ minimization and Σ-minimality (Definition 3.1).
#ifndef SQLEQ_REFORMULATION_MINIMIZE_H_
#define SQLEQ_REFORMULATION_MINIMIZE_H_

#include "util/resource_budget.h"
#include "constraints/dependency.h"
#include "db/eval.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/status.h"

namespace sqleq {

/// Classical dependency-free CQ minimization under set semantics [2]:
/// repeatedly drop a body atom while the smaller query stays set-equivalent.
/// The result is the core of Q, unique up to isomorphism.
ConjunctiveQuery MinimizeSet(const ConjunctiveQuery& q);

/// Σ-minimality check (Def 3.1): Q is Σ-minimal under semantics X if there
/// is no pair (S1, S2) — S1 from replacing zero or more variables of Q by
/// other variables of Q, S2 from dropping at least one atom of S1 — with
/// both S1 ≡Σ,X Q and S2 ≡Σ,X Q.
///
/// The substitution/drop space is exponential; `max_candidates` bounds the
/// search and the function errs with ResourceExhausted when the bound does
/// not cover the space (never hit at the paper's example sizes). `budget`
/// bounds each equivalence check's chases.
Result<bool> IsSigmaMinimal(const ConjunctiveQuery& q, const DependencySet& sigma,
                            Semantics semantics, const Schema& schema,
                            const ResourceBudget& budget = {},
                            size_t max_candidates = 200000);

}  // namespace sqleq

#endif  // SQLEQ_REFORMULATION_MINIMIZE_H_
