// The matcher oracle for the test suite.
//
// The *Generic functions are the original backtracking homomorphism search
// and the chase-step finders built on it. Production code no longer runs
// them: they are the executable specification the compiled matcher
// (chase/pattern.h, chase/sigma_plan.h) is differentially tested against,
// homomorphism for homomorphism and in the same order.
//
// The unsuffixed finders are per-query conveniences over the production
// kernels: each compiles a one-dependency SigmaPlan and indexes q's body.
#ifndef SQLEQ_TESTS_MATCHER_ORACLE_H_
#define SQLEQ_TESTS_MATCHER_ORACLE_H_

#include <optional>
#include <span>
#include <vector>

#include "chase/chase_step.h"
#include "chase/sigma_plan.h"
#include "constraints/dependency.h"
#include "ir/query.h"
#include "util/function_ref.h"

namespace sqleq {

// ---- Generic oracle ----

/// Enumerates homomorphisms from `from` to `to` extending `fixed`, by
/// backtracking; same homomorphisms, same order as ForEachHomomorphism.
void ForEachHomomorphismGeneric(std::span<const Atom> from, std::span<const Atom> to,
                                const TermMap& fixed,
                                FunctionRef<bool(const TermMap&)> fn);

std::optional<TermMap> FindHomomorphismGeneric(std::span<const Atom> from,
                                               std::span<const Atom> to,
                                               const TermMap& fixed = {});

bool HomomorphismExistsGeneric(std::span<const Atom> from, std::span<const Atom> to,
                               const TermMap& fixed = {});

/// The homomorphisms h: body(σ) → body(q) under which the tgd chase applies
/// (h does not extend to the head), in enumeration order.
std::vector<TermMap> FindApplicableTgdHomomorphismsGeneric(const ConjunctiveQuery& q,
                                                           const Tgd& tgd);

/// An egd application on q, with SigmaPlan::FindEgdApplication's contract.
std::optional<EgdApplication> FindEgdApplicationGeneric(const ConjunctiveQuery& q,
                                                        const Egd& egd);

// ---- Kernel-backed conveniences ----

std::vector<TermMap> FindApplicableTgdHomomorphisms(const ConjunctiveQuery& q,
                                                    const Tgd& tgd);
std::optional<TermMap> FindApplicableTgdHomomorphism(const ConjunctiveQuery& q,
                                                     const Tgd& tgd);
std::optional<EgdApplication> FindEgdApplication(const ConjunctiveQuery& q,
                                                 const Egd& egd);
/// True iff some chase step with `dep` applies to `q` (for an egd, a failing
/// application counts as applicable).
bool IsApplicable(const ConjunctiveQuery& q, const Dependency& dep);

}  // namespace sqleq

#endif  // SQLEQ_TESTS_MATCHER_ORACLE_H_
