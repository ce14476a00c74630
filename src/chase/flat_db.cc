#include "chase/flat_db.h"

#include <algorithm>

namespace sqleq {

void FlatConjunction::Rebuild(std::span<const Atom> atoms) {
  Clear();
  // Upper-bound reserve hint: no block can exceed the conjunction size, and
  // pre-sizing the columns avoids the growth reallocations during the bulk
  // load. The over-reserve is transient scratch memory.
  reserve_hint_ = atoms.size();
  for (const Atom& a : atoms) Append(a);
  reserve_hint_ = 0;
}

void FlatConjunction::Append(const Atom& atom) {
  PredicateId pred = InternPredicate(atom.predicate());
  uint32_t arity = static_cast<uint32_t>(atom.arity());
  uint64_t key = BlockKey(pred, arity);
  // Consecutive atoms overwhelmingly share a block; a one-entry memo skips
  // the map lookup. Node pointers are stable across later insertions.
  Block* blk_ptr;
  if (key == last_key_ && last_block_ != nullptr) {
    blk_ptr = last_block_;
  } else {
    blk_ptr = &blocks_[key];
    last_key_ = key;
    last_block_ = blk_ptr;
  }
  Block& blk = *blk_ptr;
  if (blk.cols.empty() && arity > 0) {
    blk.arity = arity;
    blk.cols.resize(arity);
    blk.index_.resize(arity);
    if (reserve_hint_ > 0) {
      for (auto& col : blk.cols) col.reserve(reserve_hint_);
      blk.seq.reserve(reserve_hint_);
    }
  }
  ++blk.rows;
  for (uint32_t c = 0; c < arity; ++c) {
    blk.cols[c].push_back(atom.args()[c]);
  }
  blk.seq.push_back(static_cast<uint32_t>(n_atoms_));
  if (static_cast<size_t>(pred) >= pred_counts_.size()) {
    pred_counts_.resize(static_cast<size_t>(pred) + 1, 0);
  }
  ++pred_counts_[static_cast<size_t>(pred)];
  ++n_atoms_;
}

uint32_t FlatConjunction::Block::FirstRowFrom(uint32_t from) const {
  return static_cast<uint32_t>(std::lower_bound(seq.begin(), seq.end(), from) -
                               seq.begin());
}

std::span<const uint32_t> FlatConjunction::Block::Postings(uint32_t c,
                                                           Term t) const {
  ColumnIndex& idx = index_[c];
  // Index the rows appended since the last probe; appending in row order
  // keeps every list ascending.
  const std::vector<Term>& column = cols[c];
  for (uint32_t r = idx.built_rows; r < rows; ++r) idx.lists[column[r]].push_back(r);
  idx.built_rows = rows;
  auto it = idx.lists.find(t);
  if (it == idx.lists.end()) return {};
  return it->second;
}

void FlatConjunction::Clear() {
  blocks_.clear();
  pred_counts_.clear();
  n_atoms_ = 0;
  last_key_ = 0;
  last_block_ = nullptr;
}

const FlatConjunction::Block* FlatConjunction::FindBlock(PredicateId p,
                                                         uint32_t arity) const {
  auto it = blocks_.find(BlockKey(p, arity));
  return it == blocks_.end() ? nullptr : &it->second;
}

bool FlatConjunction::ContainsAtom(const Atom& atom) const {
  PredicateId pred = InternPredicate(atom.predicate());
  uint32_t arity = static_cast<uint32_t>(atom.arity());
  const Block* blk = FindBlock(pred, arity);
  if (blk == nullptr) return false;
  if (arity == 0) return blk->rows > 0;
  for (uint32_t row : blk->Postings(0, atom.args()[0])) {
    bool match = true;
    for (uint32_t c = 1; c < arity; ++c) {
      if (blk->cols[c][row] != atom.args()[c]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

}  // namespace sqleq
