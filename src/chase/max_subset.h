// Algorithms 1 and 2 (§5.3, Appendix I): Max-Bag-Σ-Subset and
// Max-Bag-Set-Σ-Subset compute the unique maximal Σ' ⊆ Σ satisfied by the
// canonical database of the sound-chase result (Theorems 5.3 and I.1).
#ifndef SQLEQ_CHASE_MAX_SUBSET_H_
#define SQLEQ_CHASE_MAX_SUBSET_H_

#include "chase/set_chase.h"
#include "constraints/dependency.h"
#include "db/eval.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/status.h"

namespace sqleq {

/// Output of the Max-Σ-Subset algorithms.
struct MaxSubsetResult {
  /// The sound-chase result Qn = (Q)Σ,X.
  ConjunctiveQuery chase_result;
  /// The maximal subset of Σ satisfied by D(Qn).
  DependencySet max_subset;
};

/// Algorithm 1 (bag) / Algorithm 2 (bag-set), unified: computes (Q)Σ,X by
/// sound chase, then removes every σ ∈ Σ that is (necessarily unsoundly)
/// still applicable to the result. Requires `semantics` ∈ {kBag, kBagSet};
/// under kSet the answer is Σ itself whenever set chase terminates.
Result<MaxSubsetResult> MaxSigmaSubset(const ConjunctiveQuery& q,
                                       const DependencySet& sigma, Semantics semantics,
                                       const Schema& schema,
                                       const ResourceBudget& budget = {});

/// ΣmaxB(Q, Σ) per Theorem 5.3.
Result<MaxSubsetResult> MaxBagSigmaSubset(const ConjunctiveQuery& q,
                                          const DependencySet& sigma, const Schema& schema,
                                          const ResourceBudget& budget = {});

/// ΣmaxBS(Q, Σ) per Theorem I.1.
Result<MaxSubsetResult> MaxBagSetSigmaSubset(const ConjunctiveQuery& q,
                                             const DependencySet& sigma,
                                             const Schema& schema,
                                             const ResourceBudget& budget = {});

}  // namespace sqleq

#endif  // SQLEQ_CHASE_MAX_SUBSET_H_
