// CQ isomorphism: a bijective variable renaming mapping one query onto the
// other — head position-wise, body bijectively as bags of atoms. This is
// exactly bag equivalence in the absence of dependencies (Theorem 2.1(1)).
#ifndef SQLEQ_EQUIVALENCE_ISOMORPHISM_H_
#define SQLEQ_EQUIVALENCE_ISOMORPHISM_H_

#include <optional>

#include "ir/query.h"

namespace sqleq {

/// Finds an isomorphism from `a` to `b`: an injective variable→variable map
/// (constants fixed) sending head to head position-wise and inducing a
/// bijection between the bodies as bags of atoms. Returns nullopt if none.
/// `a` and `b` may share variable names (the map and its image set are kept
/// apart).
std::optional<TermMap> FindIsomorphism(const ConjunctiveQuery& a,
                                       const ConjunctiveQuery& b);

bool AreIsomorphic(const ConjunctiveQuery& a, const ConjunctiveQuery& b);

}  // namespace sqleq

#endif  // SQLEQ_EQUIVALENCE_ISOMORPHISM_H_
