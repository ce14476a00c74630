// The one code path behind ChaseAndBackchase (candb.cc) and RewriteWithViews
// (views.cc): the call's resolved chase context and its Σ-lint pre-flight;
// the universal-plan chase U = (Q)Σ,X through the context's memo, packaged as a kChasePhase partial result when it stops early; the
// call's ChaseRuntime; the lattice sweep (backchase.h); and the result and
// checkpoint tail. A caller supplies only its candidate lattice over U.
// Internal to src/reformulation.
#ifndef SQLEQ_REFORMULATION_REFORMULATE_H_
#define SQLEQ_REFORMULATION_REFORMULATE_H_

#include <functional>
#include <span>

#include "chase/chase_cache.h"
#include "reformulation/candb.h"
#include "util/function_ref.h"

namespace sqleq {

/// One call's candidate lattice over the universal plan.
struct CandidateLattice {
  /// Pool size: the sweep visits the 2^size - 1 nonempty masks.
  size_t size = 0;
  /// SweepBackchaseLattice's `evaluate`.
  std::function<Result<CandidateVerdict>(uint64_t)> evaluate;
  /// Failure pruning and preseeded keys; RunBackchase sets `resume`.
  SweepOptions sweep;
  /// An anytime stop met while building the lattice (a chase it needs
  /// first): the call then returns a partial result cut at the sweep's
  /// start, or at the incoming resume point.
  Status stopped;
};

/// Builds the lattice once U exists. `u`, `memo` and `runtime` outlive the
/// sweep, so `evaluate` may refer to them. Errors propagate unchanged.
using LatticeBuilder = FunctionRef<Result<CandidateLattice>(
    const ConjunctiveQuery& u, ChaseMemo& memo, const ChaseRuntime& runtime)>;

/// Runs one reformulation call in `context` (whose semantics, Σ and schema
/// it is). `preflight` is what the Σ-lint checks (q, plus any view
/// definitions); `span_name` names the call's trace span. The result's
/// `reformulations` are the sweep's accepted candidates.
Result<CandBResult> RunBackchase(ChaseContext& context, const ConjunctiveQuery& q,
                                 const CandBOptions& options, const char* span_name,
                                 std::span<const ConjunctiveQuery* const> preflight,
                                 LatticeBuilder build);

}  // namespace sqleq

#endif  // SQLEQ_REFORMULATION_REFORMULATE_H_
