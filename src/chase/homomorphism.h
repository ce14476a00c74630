// Homomorphisms between conjunctions of atoms and containment mappings
// between CQ queries (§2.1) — the engine under chase steps, applicability
// tests, and the Chandra–Merlin containment test.
//
// Every entry point compiles the `from` conjunction to a CompiledPattern,
// indexes `to` as a FlatConjunction, and hash-joins (chase/pattern.h). The
// original backtracking search survives only in the test suite, as the
// differential oracle the compiled matcher is checked against.
#ifndef SQLEQ_CHASE_HOMOMORPHISM_H_
#define SQLEQ_CHASE_HOMOMORPHISM_H_

#include <optional>
#include <span>

#include "ir/query.h"
#include "util/function_ref.h"

namespace sqleq {

/// Enumerates homomorphisms h from the conjunction `from` to the conjunction
/// `to`: h maps each variable of `from` to a term of `to` (or to a term
/// pre-bound in `fixed`), fixes constants, and sends every atom of `from` to
/// some atom of `to`. `fn` is invoked once per homomorphism (duplicates may
/// arise only from distinct atom targets yielding equal maps — they are
/// de-duplicated); return false from `fn` to stop.
void ForEachHomomorphism(std::span<const Atom> from, std::span<const Atom> to,
                         const TermMap& fixed, FunctionRef<bool(const TermMap&)> fn);

/// First homomorphism found, or nullopt. Deterministic for fixed inputs.
std::optional<TermMap> FindHomomorphism(std::span<const Atom> from,
                                        std::span<const Atom> to,
                                        const TermMap& fixed = {});

bool HomomorphismExists(std::span<const Atom> from, std::span<const Atom> to,
                        const TermMap& fixed = {});

/// A containment mapping from Q1 to Q2 (§2.1): a homomorphism from Q1's body
/// to Q2's body with h(head of Q1) = head of Q2, position-wise. The two
/// queries may share variable names: h binds `from`'s variables only and
/// never reads a term of `to` as one of them, so no rename-apart is needed.
std::optional<TermMap> FindContainmentMapping(const ConjunctiveQuery& from,
                                              const ConjunctiveQuery& to);

bool ContainmentMappingExists(const ConjunctiveQuery& from, const ConjunctiveQuery& to);

}  // namespace sqleq

#endif  // SQLEQ_CHASE_HOMOMORPHISM_H_
