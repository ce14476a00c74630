// Equivalence of aggregate CQ queries (§2.5, §6.2):
//   * Theorem 2.3 [Cohen–Nutt–Sagiv/Serebrenik; Nutt–Sagiv–Shurin]:
//     sum/count-query equivalence reduces to bag-set equivalence of cores;
//     max/min-query equivalence reduces to set equivalence of cores.
//   * Theorem 6.3 lifts both reductions under embedded dependencies via the
//     corresponding chased cores.
#ifndef SQLEQ_EQUIVALENCE_AGGREGATE_EQUIVALENCE_H_
#define SQLEQ_EQUIVALENCE_AGGREGATE_EQUIVALENCE_H_

#include "chase/set_chase.h"
#include "constraints/dependency.h"
#include "ir/query.h"
#include "util/status.h"

namespace sqleq {

/// Theorem 2.3: dependency-free equivalence of compatible aggregate queries.
/// Incompatible queries (different function, grouping arity, or argument
/// shape) are reported non-equivalent.
bool AggregateEquivalent(const AggregateQuery& q1, const AggregateQuery& q2);

/// Theorem 6.3: equivalence under Σ, via chased cores. Conditioned on set
/// chase terminating on the cores within `budget`.
Result<bool> AggregateEquivalentUnder(const AggregateQuery& q1, const AggregateQuery& q2,
                                      const DependencySet& sigma,
                                      const ResourceBudget& budget = {});

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_AGGREGATE_EQUIVALENCE_H_
