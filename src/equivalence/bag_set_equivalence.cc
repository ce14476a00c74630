#include "equivalence/bag_set_equivalence.h"

#include "equivalence/engine.h"

namespace sqleq {

bool BagSetEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  // Routed through the facade (Σ = ∅, so the chase is a no-op and the test
  // degenerates to Theorem 2.1(2)'s canonical-representation isomorphism).
  EquivalenceEngine engine;
  Result<EquivVerdict> verdict =
      engine.Equivalent(q1, q2, EquivRequest{Semantics::kBagSet, {}, Schema()});
  return verdict.ok() && verdict->equivalent;
}

}  // namespace sqleq
