// FlatConjunction: a data-oriented view of a conjunction of atoms — the
// canonical database the chase manipulates — replacing `std::vector<Atom>`
// scans in the chase inner loop.
//
// Atoms are grouped into per-(predicate, arity) blocks keyed by interned
// predicate ids (ir/predicate.h). Each block stores its terms column-major
// (struct-of-arrays) and keeps one hash index per column mapping a term to
// the ascending list of block rows carrying it, so a matcher with a bound
// argument probes a posting list instead of scanning every atom. Row order
// within a block is insertion order, which is what lets the compiled matcher
// (chase/pattern.h) reproduce the legacy backtracking enumeration order
// exactly.
//
// A FlatConjunction is a sidecar of the authoritative ConjunctiveQuery body:
// Rebuild() after destructive steps (egd merges, normalization), Append()
// after additive ones (tgd steps). Every row carries its insertion sequence
// number (its position in the conjunction), and posting lists grow in place
// on Append, so the delta-driven chase loop (docs/compiled_chase.md,
// "Delta-driven loop") indexes only what a tgd step added and matches
// against the rows added since a watermark (chase/pattern.h).
#ifndef SQLEQ_CHASE_FLAT_DB_H_
#define SQLEQ_CHASE_FLAT_DB_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ir/atom.h"
#include "ir/predicate.h"
#include "ir/term.h"

namespace sqleq {

class FlatConjunction {
 public:
  /// One per-(predicate, arity) group of atoms in column-major layout.
  struct Block {
    uint32_t arity = 0;
    uint32_t rows = 0;
    /// `arity` columns, each of length `rows`: cols[c][r] is argument c of
    /// the block's r-th atom (insertion order).
    std::vector<std::vector<Term>> cols;
    /// seq[r]: the r-th atom's position in the whole conjunction when it
    /// was indexed. Ascending within a block.
    std::vector<uint32_t> seq;

    /// The first row whose sequence number is >= `from` (rows when none):
    /// rows [FirstRowFrom(w), rows) are exactly the block's atoms indexed
    /// after the conjunction had w atoms.
    uint32_t FirstRowFrom(uint32_t from) const;

    /// Ascending rows r with cols[c][r] == t; empty when no row carries t.
    /// Posting lists are built lazily on the first probe of a column and
    /// extended in place with the rows appended since, so a column no
    /// matcher ever probes is never indexed. Lazy build makes concurrent
    /// probes of one FlatConjunction racy — instances are chase-run-local,
    /// never shared across threads. The span is valid until the next
    /// Append or Rebuild.
    std::span<const uint32_t> Postings(uint32_t c, Term t) const;

   private:
    friend class FlatConjunction;
    /// Posting lists for one column; rows [0, built_rows) are indexed.
    struct ColumnIndex {
      std::unordered_map<Term, std::vector<uint32_t>, TermHash> lists;
      uint32_t built_rows = 0;
    };
    mutable std::vector<ColumnIndex> index_;
  };

  FlatConjunction() = default;
  explicit FlatConjunction(std::span<const Atom> atoms) { Rebuild(atoms); }

  // Non-copyable: instances are chase-run-local scratch, and the Append
  // memo holds a pointer into blocks_.
  FlatConjunction(const FlatConjunction&) = delete;
  FlatConjunction& operator=(const FlatConjunction&) = delete;

  /// Re-indexes from scratch. Use after an egd step or normalization
  /// rewrote the conjunction.
  void Rebuild(std::span<const Atom> atoms);

  /// Indexes one more atom (a tgd step appending head instances) with
  /// sequence number size().
  void Append(const Atom& atom);

  void Clear();

  /// Total atoms indexed.
  size_t size() const { return n_atoms_; }

  /// Atoms whose predicate is `p`, across all arities — the matcher's
  /// candidate-count scoring input.
  size_t CountForPredicate(PredicateId p) const {
    return static_cast<size_t>(p) < pred_counts_.size()
               ? pred_counts_[static_cast<size_t>(p)]
               : 0;
  }

  /// The (p, arity) block, or nullptr when no such atom was indexed.
  const Block* FindBlock(PredicateId p, uint32_t arity) const;

  /// True iff an atom equal to `atom` (same predicate and argument terms)
  /// was indexed — the index-backed equivalent of a linear body scan.
  bool ContainsAtom(const Atom& atom) const;

 private:
  static uint64_t BlockKey(PredicateId p, uint32_t arity) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(p)) << 32) | arity;
  }

  std::unordered_map<uint64_t, Block> blocks_;
  std::vector<size_t> pred_counts_;  // by PredicateId
  size_t n_atoms_ = 0;
  size_t reserve_hint_ = 0;    // set during Rebuild's bulk load
  uint64_t last_key_ = 0;      // one-entry Append memo; see Append
  Block* last_block_ = nullptr;
};

}  // namespace sqleq

#endif  // SQLEQ_CHASE_FLAT_DB_H_
