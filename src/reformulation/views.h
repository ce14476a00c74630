// Rewriting CQ queries equivalently using views, in presence of embedded
// dependencies, under set / bag / bag-set semantics — the application the
// paper's introduction motivates (§1, [17, 23]).
//
// A candidate rewriting R is a CQ over view predicates (and optionally base
// predicates). Its *expansion* replaces every view atom by the view's body
// with head variables unified and non-head variables freshened. R is an
// equivalent rewriting of Q iff expansion(R) ≡Σ,X Q — decidable with the
// paper's tests (Thms 2.2, 6.1, 6.2) whenever set chase terminates.
//
// Under bag semantics this is sound when materialized views are populated
// under bag semantics from the bag-valued base relations (and under bag-set
// semantics when views are populated without DISTINCT from set-valued bases)
// — CQ composition commutes with both semantics.
//
// RewriteWithViews runs on the same code path as C&B (candb.h): the
// universal plan, U's own chase and every candidate expansion are chased
// through the EquivalenceEngine's memo for the call's chase context, so
// they share outcomes, the byte limit and the disk tier with equivalence
// checks of that context.
#ifndef SQLEQ_REFORMULATION_VIEWS_H_
#define SQLEQ_REFORMULATION_VIEWS_H_

#include <map>
#include <string>
#include <vector>

#include "reformulation/candb.h"

namespace sqleq {

/// A named set of CQ view definitions. The view's relation symbol is the
/// query name; its arity is the head arity.
class ViewSet {
 public:
  /// Registers a view. Fails on duplicate names and on names colliding with
  /// a base predicate used in any view body.
  Status Add(const ConjunctiveQuery& definition);

  bool Has(const std::string& name) const { return views_.count(name) > 0; }
  Result<ConjunctiveQuery> Get(const std::string& name) const;

  /// Names in registration order.
  const std::vector<std::string>& names() const { return order_; }
  size_t size() const { return views_.size(); }

  /// The view predicates as schema relations (arity = head arity), for
  /// building rewriting-side schemas. `set_valued` marks all views (use for
  /// views materialized WITH DISTINCT).
  Schema AsSchema(bool set_valued = false) const;

 private:
  std::map<std::string, ConjunctiveQuery> views_;
  std::vector<std::string> order_;
};

/// Replaces every view atom of `rewriting` by the view's (freshened) body;
/// non-view atoms pass through. Fails on arity mismatches against the view
/// head. The result's head is the rewriting's head.
Result<ConjunctiveQuery> ExpandRewriting(const ConjunctiveQuery& rewriting,
                                         const ViewSet& views);

/// Decides whether `rewriting` is an equivalent rewriting of `q` using
/// `views` under Σ and `semantics`: expansion(R) ≡Σ,X Q, with `budget`
/// bounding the chases.
Result<bool> IsEquivalentRewriting(const ConjunctiveQuery& q,
                                   const ConjunctiveQuery& rewriting,
                                   const ViewSet& views, const DependencySet& sigma,
                                   Semantics semantics, const Schema& schema,
                                   const ResourceBudget& budget = {});

struct RewriteResult {
  /// Equivalent rewritings over the view (and optionally base) predicates,
  /// pairwise non-isomorphic, subset-minimal in the candidate-atom lattice.
  /// On a partial result: the prefix confirmed before the stop.
  std::vector<ConjunctiveQuery> rewritings;
  /// The universal plan the candidates were drawn from. When the chase phase
  /// itself was interrupted (complete = false, checkpoint.phase == "chase")
  /// the plan does not exist yet and this echoes the input query.
  ConjunctiveQuery universal_plan;
  size_t candidates_examined = 0;
  /// Chase-memo accounting for the backchase phase, replayed
  /// deterministically in mask order (identical on cold or warm engines). The
  /// up-front chase of U preseeds the memo, so an expansion isomorphic to U
  /// counts as a hit.
  size_t chase_cache_hits = 0;
  size_t chase_cache_misses = 0;
  /// Anytime contract, as in CandBResult: false when the call stopped early
  /// on budget/deadline/cancellation/fault; resume via options.resume.
  /// The candidate pool is rebuilt deterministically from the checkpointed
  /// universal plan, so mask-indexed checkpoint state stays valid.
  bool complete = true;
  std::optional<ExhaustionInfo> exhaustion;
  std::optional<CandBCheckpoint> checkpoint;
};

/// The C&B knobs (context/analyze via RunOptions, Σ-minimality, resume)
/// apply to the rewrite's chases directly — RewriteOptions IS-A
/// CandBOptions. `verify_sigma_minimality` (inherited) is unsupported: RewriteWithViews
/// answers InvalidArgument when it is set.
struct RewriteOptions : CandBOptions {
  /// Allow base-relation atoms to appear alongside view atoms in rewritings
  /// (false = total rewritings over views only).
  bool allow_base_atoms = false;
};

/// Enumerates equivalent rewritings of `q` using `views` under Σ and
/// `semantics`, C&B-with-views style [11]: chase Q to its universal plan U;
/// every homomorphism from a view body into U contributes a candidate view
/// atom over U's variables; backchase over subsets of candidate atoms (plus
/// U's base atoms when `allow_base_atoms`), accepting candidates whose
/// expansion chases to something equivalent to U. Chases go through
/// `engine`'s memo; concurrent calls may share one engine.
Result<RewriteResult> RewriteWithViews(EquivalenceEngine& engine,
                                       const ConjunctiveQuery& q, const ViewSet& views,
                                       const DependencySet& sigma, Semantics semantics,
                                       const Schema& schema,
                                       const RewriteOptions& options = {});

/// RewriteWithViews on a call-local engine, for one-shot callers.
Result<RewriteResult> RewriteWithViews(const ConjunctiveQuery& q, const ViewSet& views,
                                       const DependencySet& sigma, Semantics semantics,
                                       const Schema& schema,
                                       const RewriteOptions& options = {});

/// RewriteWithViews under an escalating-budget retry policy: attempt 0 runs
/// with options.context.budget; each incomplete attempt is resumed from its
/// own checkpoint under a budget scaled by `policy` until the result is
/// complete or policy.max_attempts is spent. The final (possibly still
/// partial) result is returned; errors propagate immediately. The attempts
/// share one call-local engine.
Result<RewriteResult> RewriteWithViewsWithRetry(
    const ConjunctiveQuery& q, const ViewSet& views, const DependencySet& sigma,
    Semantics semantics, const Schema& schema, const RewriteOptions& options,
    const EscalatingBudget& policy);

}  // namespace sqleq

#endif  // SQLEQ_REFORMULATION_VIEWS_H_
