#include "equivalence/aggregate_equivalence.h"

#include "equivalence/bag_set_equivalence.h"
#include "equivalence/containment.h"
#include "equivalence/engine.h"

namespace sqleq {
namespace {

bool UsesSetReduction(AggregateFunction f) {
  return f == AggregateFunction::kMax || f == AggregateFunction::kMin;
}

}  // namespace

bool AggregateEquivalent(const AggregateQuery& q1, const AggregateQuery& q2) {
  if (!q1.CompatibleWith(q2)) return false;
  ConjunctiveQuery c1 = q1.Core();
  ConjunctiveQuery c2 = q2.Core();
  if (UsesSetReduction(q1.function())) return SetEquivalent(c1, c2);
  return BagSetEquivalent(c1, c2);
}

Result<bool> AggregateEquivalentUnder(const AggregateQuery& q1, const AggregateQuery& q2,
                                      const DependencySet& sigma,
                                      const ResourceBudget& budget) {
  if (!q1.CompatibleWith(q2)) return false;
  ConjunctiveQuery c1 = q1.Core();
  ConjunctiveQuery c2 = q2.Core();
  Semantics semantics =
      UsesSetReduction(q1.function()) ? Semantics::kSet : Semantics::kBagSet;
  EquivalenceEngine engine;
  EquivRequest request{semantics, sigma, Schema()};
  request.context.budget = budget;
  SQLEQ_ASSIGN_OR_RETURN(EquivVerdict verdict,
                         engine.Equivalent(c1, c2, request));
  return VerdictToBool(verdict);
}

}  // namespace sqleq
