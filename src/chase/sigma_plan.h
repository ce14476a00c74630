// SigmaPlan: per-Σ compiled chase step kernels.
//
// The paper's Thm 5.2 complexity profile — polynomial in |Q| for a *fixed*
// Σ — invites compiling everything that depends only on Σ once and reusing
// it across every query: trigger join patterns for tgd bodies, firing-check
// probes for tgd heads, egd merge schedules (body pattern + equation sides),
// and the key-based classification of each tgd (Def 5.1), which the sound
// chase consults on every tgd step. A SigmaPlan is immutable after
// Compile() and safe to share across threads; sqleqd caches one per catalog
// next to the shared ChaseMemo.
//
// Kernels are positional: kernel i corresponds to sigma[i] of the
// DependencySet handed to Compile(). They are the only matcher the chase
// runs: every chase step, applicability check and assignment-fixing test
// goes through them (chase/pattern.h fixes their enumeration order, which
// is what makes chase traces deterministic).
#ifndef SQLEQ_CHASE_SIGMA_PLAN_H_
#define SQLEQ_CHASE_SIGMA_PLAN_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chase/chase_step.h"
#include "chase/flat_db.h"
#include "chase/pattern.h"
#include "constraints/dependency.h"
#include "ir/schema.h"
#include "util/function_ref.h"

namespace sqleq {

class SigmaPlan {
 public:
  /// One compiled dependency. For a tgd: `body` is the trigger join pattern,
  /// `head` the firing-check probe, and the key-based flags cache Def 5.1
  /// under both readings of `require_set_valued`. For an egd: `body` plus
  /// the equation sides.
  struct DepKernel {
    bool is_tgd = false;
    CompiledPattern body;
    CompiledPattern head;   // tgd only
    Term left;              // egd only
    Term right;             // egd only
    bool key_based_any = false;         // require_set_valued = false
    bool key_based_set_valued = false;  // require_set_valued = true
  };

  struct Stats {
    size_t dependencies = 0;
    size_t tgd_kernels = 0;
    size_t egd_kernels = 0;
    size_t pattern_atoms = 0;  // total atoms across all compiled patterns
  };

  SigmaPlan() = default;

  /// Compiles kernels for `sigma` as given (no regularization — callers
  /// chase arbitrary dependency sets). `schema` feeds the key-based flags;
  /// an empty schema yields key_based_set_valued = false, which only costs
  /// the fast path, never correctness.
  static SigmaPlan Compile(const DependencySet& sigma, const Schema& schema = {});

  size_t size() const { return kernels_.size(); }
  const DepKernel& kernel(size_t dep_index) const { return kernels_[dep_index]; }
  Stats stats() const;

  /// Chase-step finders against an indexed conjunction. `dep_index` is the
  /// dependency's position in the compiled Σ. `delta_from` > 0 skips the
  /// homomorphisms into the first `delta_from` atoms of `to` (the
  /// MatchPattern watermark, chase/pattern.h); the delta-driven chase loop
  /// passes it only where those are known not to be applicable.
  ///
  /// ForEachApplicableTgdHomomorphism enumerates, in the pattern.h order,
  /// the homomorphisms h: body(σ) → `to` under which the tgd chase applies
  /// (h does not extend to the head); `fn` returning false stops it, which
  /// lets the sound chase stop at the first admitted step. Returns true iff
  /// the enumeration ran to exhaustion.
  bool ForEachApplicableTgdHomomorphism(size_t dep_index, const FlatConjunction& to,
                                        FunctionRef<bool(const TermMap&)> fn,
                                        uint32_t delta_from = 0) const;
  /// The first applicable homomorphism, or nullopt.
  std::optional<TermMap> FindApplicableTgdHomomorphism(
      size_t dep_index, const FlatConjunction& to) const;
  /// An h making the egd applicable (h(U1) ≠ h(U2)). If every such h
  /// equates two distinct constants, the first failing application is
  /// returned with failure=true. nullopt when the egd is satisfied.
  std::optional<EgdApplication> FindEgdApplication(size_t dep_index,
                                                   const FlatConjunction& to,
                                                   uint32_t delta_from = 0) const;

  /// The dependencies whose body reads predicate `p`, ascending: the ones
  /// a step adding `p` atoms can make applicable again.
  std::span<const uint32_t> Readers(PredicateId p) const {
    return static_cast<size_t>(p) < readers_.size()
               ? std::span<const uint32_t>(readers_[static_cast<size_t>(p)])
               : std::span<const uint32_t>();
  }

  /// The kernels at positions `kept` (ascending indices into this plan), as
  /// a plan for the corresponding dependency subset: kernel i of the result
  /// serves dependency kept[i]. Used by Σ-slicing (analysis/sigma_graph.h);
  /// copying compiled kernels keeps the key-based flags bit-identical to
  /// the full compile instead of re-deriving them against the subset. The
  /// readers index is rebuilt over the new positions.
  SigmaPlan Subset(const std::vector<size_t>& kept) const;

  /// Cached IsKeyBased(tgd, Σ, schema, require_set_valued).
  bool KeyBased(size_t dep_index, bool require_set_valued) const {
    const DepKernel& k = kernels_[dep_index];
    return require_set_valued ? k.key_based_set_valued : k.key_based_any;
  }

 private:
  void IndexReaders();

  std::vector<DepKernel> kernels_;
  std::vector<std::vector<uint32_t>> readers_;  // by PredicateId
};

}  // namespace sqleq

#endif  // SQLEQ_CHASE_SIGMA_PLAN_H_
