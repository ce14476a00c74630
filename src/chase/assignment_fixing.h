// Assignment-fixing tgds (Definitions 4.2, 4.3) and key-based tgds
// (Definition 5.1, Deutsch's UWDs). Assignment-fixing is the exact gate for
// sound tgd chase steps under bag and bag-set semantics (Thms 4.1, 4.3);
// key-basedness is the strictly weaker, query-independent sufficient
// condition (Ex. 4.8 and 5.1 witness the gap).
#ifndef SQLEQ_CHASE_ASSIGNMENT_FIXING_H_
#define SQLEQ_CHASE_ASSIGNMENT_FIXING_H_

#include <vector>

#include "chase/set_chase.h"
#include "constraints/dependency.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/status.h"

namespace sqleq {

class SigmaPlan;

/// The associated test query Q^{σ,h,θ} (Def 4.2) plus the bookkeeping needed
/// to decide assignment-fixing: the two parallel instantiations of the
/// existential variables.
struct AssociatedTestQuery {
  ConjunctiveQuery query;
  /// Pairs (Zi-instance, θ(Zi)-instance), one per existential variable of σ.
  std::vector<std::pair<Term, Term>> existential_pairs;
};

/// Builds Q^{σ,h,θ}: body(Q) ∧ ψ(h(X̄), Z̄) ∧ ψ(h(X̄), θ(Z̄)), with Z̄ and
/// θ(Z̄) both freshly named (unique up to isomorphism w.r.t. θ). For a full
/// tgd the two copies coincide and `existential_pairs` is empty.
AssociatedTestQuery BuildAssociatedTestQuery(const ConjunctiveQuery& q, const Tgd& tgd,
                                             const TermMap& h);

/// Decides whether σ is assignment-fixing w.r.t. Q and h (Def 4.3): chase
/// Q^{σ,h,θ} under Σ with set semantics; σ is assignment-fixing iff the
/// terminal result retains at most one variable of each existential pair.
/// Full tgds are assignment-fixing by Prop 4.3. Requires (set-)chase
/// termination within `budget`; ResourceExhausted otherwise. `plan` must be
/// the SigmaPlan compiled from exactly `sigma`; the test-query chase runs on
/// its kernels.
Result<bool> IsAssignmentFixing(const ConjunctiveQuery& q, const Tgd& tgd,
                                const TermMap& h, const DependencySet& sigma,
                                const SigmaPlan& plan,
                                const ResourceBudget& budget = {});

/// σ is assignment-fixing w.r.t. Q if it is assignment-fixing w.r.t. Q and
/// *some* homomorphism under which the chase is applicable (Def 4.3).
/// Returns false when the chase with σ is not applicable to Q at all.
/// Compiles kernels for σ and Σ per call.
Result<bool> IsAssignmentFixingForQuery(const ConjunctiveQuery& q, const Tgd& tgd,
                                        const DependencySet& sigma,
                                        const ResourceBudget& budget = {});

/// Key-based tgd test (Def 5.1): every head atom's universally quantified
/// positions form a superkey of its relation (under the fds recognized in
/// Σ), and the relation is set valued on all instances (schema flag).
/// `require_set_valued` = false drops the flag check — the right reading
/// under bag-set semantics, where every relation behaves as a set.
bool IsKeyBased(const Tgd& tgd, const DependencySet& sigma, const Schema& schema,
                bool require_set_valued = true);

}  // namespace sqleq

#endif  // SQLEQ_CHASE_ASSIGNMENT_FIXING_H_
