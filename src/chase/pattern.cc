#include "chase/pattern.h"

#include <algorithm>
#include <span>
#include <unordered_set>

namespace sqleq {

CompiledPattern::CompiledPattern(std::span<const Atom> from) {
  atoms_.reserve(from.size());
  size_t total_args = 0;
  for (const Atom& a : from) total_args += a.arity();
  args_.reserve(total_args);
  for (const Atom& a : from) {
    PatternAtom pa;
    pa.pred = InternPredicate(a.predicate());
    pa.arity = static_cast<uint32_t>(a.arity());
    pa.first_arg = static_cast<uint32_t>(args_.size());
    atoms_.push_back(pa);
    for (Term t : a.args()) {
      Arg arg{t, -1};
      if (t.IsVariable()) {
        // Dependency bodies have a handful of variables; a linear scan
        // beats hashing at this size and keeps slot order = first
        // appearance, which the matcher's emission contract relies on.
        int32_t slot = -1;
        for (size_t s = 0; s < slot_vars_.size(); ++s) {
          if (slot_vars_[s] == t) {
            slot = static_cast<int32_t>(s);
            break;
          }
        }
        if (slot < 0) {
          slot = static_cast<int32_t>(slot_vars_.size());
          slot_vars_.push_back(t);
        }
        arg.slot = slot;
      }
      args_.push_back(arg);
    }
  }
}

namespace {

struct BindingVectorHash {
  size_t operator()(const std::vector<Term>& v) const {
    size_t h = 1469598103934665603ULL;
    for (Term t : v) h = (h ^ t.Hash()) * 1099511628211ULL;
    return h;
  }
};

/// Hash-join emulation of the legacy backtracking search; see the
/// enumeration contract in pattern.h.
class PatternMatcher {
 public:
  PatternMatcher(const CompiledPattern& pat, const FlatConjunction& to,
                 const TermMap& fixed, FunctionRef<bool(const TermMap&)> fn,
                 uint32_t delta_from)
      : pat_(pat), to_(to), fixed_(fixed), fn_(fn), delta_from_(delta_from) {}

  bool Run() {
    binding_.assign(pat_.n_slots(), Term());
    bound_.assign(pat_.n_slots(), 0);
    used_.assign(pat_.n_atoms(), 0);
    for (size_t s = 0; s < pat_.n_slots(); ++s) {
      auto it = fixed_.find(pat_.slot_vars()[s]);
      if (it != fixed_.end()) {
        binding_[s] = it->second;
        bound_[s] = 1;
      }
    }
    return Recurse(0, /*path_has_delta=*/delta_from_ == 0);
  }

 private:
  size_t PickNextAtom() const {
    size_t best = pat_.n_atoms();
    long best_score = -1;
    for (size_t i = 0; i < pat_.n_atoms(); ++i) {
      if (used_[i] != 0) continue;
      const CompiledPattern::PatternAtom& pa = pat_.atoms()[i];
      long n_targets = static_cast<long>(to_.CountForPredicate(pa.pred));
      long bound = 0;
      for (uint32_t c = 0; c < pa.arity; ++c) {
        const CompiledPattern::Arg& arg = pat_.args()[pa.first_arg + c];
        if (arg.slot < 0 || bound_[static_cast<size_t>(arg.slot)] != 0) ++bound;
      }
      long score = n_targets * 64 - bound;
      if (best == pat_.n_atoms() || score < best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }

  /// `path_has_delta`: some row bound above has sequence number >=
  /// delta_from_ (always true without a watermark).
  bool Recurse(size_t depth, bool path_has_delta) {
    if (depth == pat_.n_atoms()) {
      if (!emitted_.insert(binding_).second) return true;
      TermMap out = fixed_;
      for (size_t s = 0; s < pat_.n_slots(); ++s) {
        out.insert_or_assign(pat_.slot_vars()[s], binding_[s]);
      }
      return fn_(out);
    }
    size_t idx = PickNextAtom();
    used_[idx] = 1;
    bool keep_going = true;
    const CompiledPattern::PatternAtom& pa = pat_.atoms()[idx];
    const FlatConjunction::Block* blk = to_.FindBlock(pa.pred, pa.arity);
    if (blk != nullptr) {
      // Probe the sparsest index among bound argument columns; posting lists
      // are ascending, so candidate order stays conjunction order.
      bool probed = false;
      std::span<const uint32_t> candidates;
      for (uint32_t c = 0; c < pa.arity; ++c) {
        const CompiledPattern::Arg& arg = pat_.args()[pa.first_arg + c];
        Term probe;
        if (arg.slot < 0) {
          probe = arg.term;
        } else if (bound_[static_cast<size_t>(arg.slot)] != 0) {
          probe = binding_[static_cast<size_t>(arg.slot)];
        } else {
          continue;
        }
        std::span<const uint32_t> postings = blk->Postings(c, probe);
        if (postings.empty()) {
          probed = true;
          candidates = {};
          break;
        }
        if (!probed || postings.size() < candidates.size()) {
          probed = true;
          candidates = postings;
        }
      }
      size_t first = 0;
      if (!path_has_delta && depth + 1 == pat_.n_atoms()) {
        // Last level of a path over old rows only: old rows here would
        // complete a homomorphism into the first delta_from_ atoms. Rows
        // past the watermark are a suffix of the block and of every
        // (ascending) posting list.
        uint32_t from_row = blk->FirstRowFrom(delta_from_);
        first = probed ? static_cast<size_t>(
                             std::lower_bound(candidates.begin(), candidates.end(),
                                              from_row) -
                             candidates.begin())
                       : from_row;
      }
      size_t n_cand = probed ? candidates.size() : blk->rows;
      // Bindings made for this row go on the shared trail; unwinding to the
      // mark undoes them. One growing buffer for the whole search instead of
      // a heap-allocated vector per recursion node.
      size_t trail_mark = trail_.size();
      for (size_t k = first; k < n_cand; ++k) {
        uint32_t row = probed ? candidates[k] : static_cast<uint32_t>(k);
        bool match = true;
        for (uint32_t c = 0; c < pa.arity; ++c) {
          const CompiledPattern::Arg& arg = pat_.args()[pa.first_arg + c];
          Term val = blk->cols[c][row];
          if (arg.slot < 0) {
            if (arg.term != val) {
              match = false;
              break;
            }
            continue;
          }
          size_t s = static_cast<size_t>(arg.slot);
          if (bound_[s] != 0) {
            if (binding_[s] != val) {
              match = false;
              break;
            }
          } else {
            binding_[s] = val;
            bound_[s] = 1;
            trail_.push_back(arg.slot);
          }
        }
        if (match) {
          keep_going =
              Recurse(depth + 1, path_has_delta || blk->seq[row] >= delta_from_);
        }
        while (trail_.size() > trail_mark) {
          bound_[static_cast<size_t>(trail_.back())] = 0;
          trail_.pop_back();
        }
        if (!keep_going) break;
      }
    }
    used_[idx] = 0;
    return keep_going;
  }

  const CompiledPattern& pat_;
  const FlatConjunction& to_;
  const TermMap& fixed_;
  FunctionRef<bool(const TermMap&)> fn_;
  uint32_t delta_from_;
  std::vector<Term> binding_;
  std::vector<uint8_t> bound_;
  std::vector<uint8_t> used_;
  std::vector<int32_t> trail_;
  std::unordered_set<std::vector<Term>, BindingVectorHash> emitted_;
};

}  // namespace

bool MatchPattern(const CompiledPattern& pattern, const FlatConjunction& to,
                  const TermMap& fixed, FunctionRef<bool(const TermMap&)> fn,
                  uint32_t delta_from) {
  PatternMatcher matcher(pattern, to, fixed, fn, delta_from);
  return matcher.Run();
}

bool PatternMatchExists(const CompiledPattern& pattern, const FlatConjunction& to,
                        const TermMap& fixed) {
  bool found = false;
  MatchPattern(pattern, to, fixed, [&found](const TermMap&) {
    found = true;
    return false;
  });
  return found;
}

}  // namespace sqleq
