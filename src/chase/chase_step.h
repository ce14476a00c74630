// Chase steps with tgds and egds (§2.4).
//
// Tgd σ: φ → ∃V̄ ψ applies to Q(X̄) :- ξ when some homomorphism h: φ → ξ
// cannot extend to φ∧ψ → ξ; the step conjoins ψ(h(Ū), V̄) to the body with
// the existential variables V̄ freshly renamed.
//
// Egd e: φ → U1 = U2 applies when some h: φ → ξ has h(U1) ≠ h(U2) with at
// least one side a variable; the step replaces that variable throughout Q.
// Two distinct constants make the chase FAIL (Q is unsatisfiable on
// databases satisfying the egd).
//
// This header holds the step *application* half. Finding an applicable h
// is the job of the compiled per-Σ kernels in chase/sigma_plan.h, the one
// matcher the chase runs.
#ifndef SQLEQ_CHASE_CHASE_STEP_H_
#define SQLEQ_CHASE_CHASE_STEP_H_

#include <string>
#include <vector>

#include "constraints/dependency.h"
#include "ir/query.h"
#include "util/status.h"

namespace sqleq {

/// The atoms a tgd step with homomorphism `h` conjoins to the body: head
/// atoms under h with existential variables freshly renamed. The fresh
/// renaming used is written to `out_fresh` when non-null.
std::vector<Atom> InstantiateTgdHead(const Tgd& tgd, const TermMap& h,
                                     TermMap* out_fresh = nullptr);

/// Performs the tgd chase step Q ⇒σ Q′ for a given applicable `h`. Atoms
/// are appended; no duplicate elimination (semantics-specific normalization
/// is the caller's business — see sound_chase).
ConjunctiveQuery ApplyTgdStep(const ConjunctiveQuery& q, const Tgd& tgd, const TermMap& h);

/// One egd application opportunity.
struct EgdApplication {
  TermMap h;
  Term from;  ///< variable to replace (h of one equation side)
  Term to;    ///< replacement term
  bool failure = false;  ///< h equates two distinct constants
};

/// Performs the egd chase step: replaces `app.from` by `app.to` everywhere
/// in Q (head and body). Requires !app.failure.
ConjunctiveQuery ApplyEgdStep(const ConjunctiveQuery& q, const EgdApplication& app);

}  // namespace sqleq

#endif  // SQLEQ_CHASE_CHASE_STEP_H_
