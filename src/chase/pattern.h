// CompiledPattern + MatchPattern: the index-backed replacement for the
// backtracking homomorphism search.
//
// A CompiledPattern is the per-dependency, per-query-shape half of a
// homomorphism problem compiled once: predicates interned, variables mapped
// to dense slots, argument descriptors flattened. MatchPattern then
// enumerates homomorphisms from the pattern into a FlatConjunction by
// hash-join probes on the per-column indexes.
//
// Enumeration contract: MatchPattern emits exactly the homomorphisms the
// original backtracking search emits, in exactly the same order. That search
// now lives only in the test suite (tests/matcher_oracle.h), where the
// property tests check the compiled matcher against it on every state the
// chase visits. The order is also what fixes chase traces, fresh-variable
// names and checkpoints, so it is part of the contract. It is: atoms matched
// most-constrained-first under the score `n_same_predicate_targets * 64 -
// bound_args` (lower wins, first-lowest ties), candidate targets visited in
// conjunction order, complete assignments de-duplicated on their restriction
// to pattern variables.
//
// Delta matching: with `delta_from = w > 0`, the last level of the search
// tries only rows whose sequence number (flat_db.h) is >= w when no earlier
// level bound such a row, so every emitted homomorphism uses at least one
// atom indexed after the conjunction had w atoms. The emitted sequence is
// the unrestricted one with some homomorphisms dropped and the rest in the
// same order; a dropped homomorphism maps the pattern entirely into the
// first w atoms. The delta-driven chase loop passes the size at which a
// dependency was last found satisfied, so what is dropped is exactly what
// it already knows is not applicable (docs/compiled_chase.md).
#ifndef SQLEQ_CHASE_PATTERN_H_
#define SQLEQ_CHASE_PATTERN_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "chase/flat_db.h"
#include "ir/atom.h"
#include "ir/predicate.h"
#include "ir/query.h"
#include "util/function_ref.h"

namespace sqleq {

class CompiledPattern {
 public:
  /// One pattern argument: a constant term, or a variable slot.
  struct Arg {
    Term term;     ///< the original term (constant when slot < 0)
    int32_t slot;  ///< dense variable slot, or -1 for a constant
  };

  struct PatternAtom {
    PredicateId pred = 0;
    uint32_t arity = 0;
    uint32_t first_arg = 0;  ///< offset into args()
  };

  CompiledPattern() = default;
  explicit CompiledPattern(std::span<const Atom> from);

  size_t n_atoms() const { return atoms_.size(); }
  size_t n_slots() const { return slot_vars_.size(); }
  const std::vector<PatternAtom>& atoms() const { return atoms_; }
  const std::vector<Arg>& args() const { return args_; }
  /// Slot → the pattern variable it stands for.
  const std::vector<Term>& slot_vars() const { return slot_vars_; }

 private:
  std::vector<PatternAtom> atoms_;
  std::vector<Arg> args_;
  std::vector<Term> slot_vars_;
};

/// Enumerates homomorphisms from `pattern` into `to`, seeding variable slots
/// from `fixed` (entries of `fixed` for variables outside the pattern are
/// carried through into every emitted map, matching the generic search).
/// `fn` returning false stops the enumeration. Returns true iff enumeration
/// ran to exhaustion. `delta_from` > 0 restricts the search to
/// homomorphisms using an atom at or past that sequence number (see above).
bool MatchPattern(const CompiledPattern& pattern, const FlatConjunction& to,
                  const TermMap& fixed, FunctionRef<bool(const TermMap&)> fn,
                  uint32_t delta_from = 0);

/// Existence probe: true iff at least one homomorphism exists.
bool PatternMatchExists(const CompiledPattern& pattern, const FlatConjunction& to,
                        const TermMap& fixed);

}  // namespace sqleq

#endif  // SQLEQ_CHASE_PATTERN_H_
