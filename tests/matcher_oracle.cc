#include "matcher_oracle.h"

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace sqleq {
namespace {

/// Backtracking search for homomorphisms. Source atoms are matched
/// most-constrained-first (fewest same-predicate targets, then most bound
/// arguments). This is the executable spec the compiled matcher
/// (chase/pattern.h) emulates order-for-order.
class HomomorphismSearch {
 public:
  HomomorphismSearch(std::span<const Atom> from, std::span<const Atom> to,
                     const TermMap& fixed)
      : from_(from), to_(to), assignment_(fixed) {
    for (const Atom& a : to_) targets_per_pred_[a.predicate()].push_back(&a);
  }

  /// Returns true if enumeration ran to exhaustion (fn never returned false).
  bool Run(FunctionRef<bool(const TermMap&)> fn) {
    used_.assign(from_.size(), false);
    fn_ = &fn;
    return Recurse(0);
  }

 private:
  size_t PickNextAtom() const {
    size_t best = from_.size();
    // Lexicographic score: (candidate targets, -bound args). Lower is better.
    long best_score = -1;
    for (size_t i = 0; i < from_.size(); ++i) {
      if (used_[i]) continue;
      auto it = targets_per_pred_.find(from_[i].predicate());
      long n_targets = it == targets_per_pred_.end() ? 0 : static_cast<long>(it->second.size());
      long bound = 0;
      for (Term t : from_[i].args()) {
        if (t.IsConstant() || assignment_.count(t) > 0) ++bound;
      }
      long score = n_targets * 64 - bound;
      if (best == from_.size() || score < best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }

  bool Recurse(size_t depth) {
    if (depth == from_.size()) {
      // De-duplicate complete maps (different atom targets can induce the
      // same term map).
      std::string key = MapKey();
      if (!emitted_.insert(std::move(key)).second) return true;
      return (*fn_)(assignment_);
    }
    size_t idx = PickNextAtom();
    used_[idx] = true;
    const Atom& atom = from_[idx];
    bool keep_going = true;
    auto it = targets_per_pred_.find(atom.predicate());
    if (it != targets_per_pred_.end()) {
      for (const Atom* target : it->second) {
        if (target->arity() != atom.arity()) continue;
        std::vector<Term> newly_bound;
        bool match = true;
        for (size_t i = 0; i < atom.arity(); ++i) {
          Term arg = atom.args()[i];
          Term val = target->args()[i];
          if (arg.IsConstant()) {
            if (arg != val) {
              match = false;
              break;
            }
            continue;
          }
          auto bound = assignment_.find(arg);
          if (bound != assignment_.end()) {
            if (bound->second != val) {
              match = false;
              break;
            }
          } else {
            assignment_.emplace(arg, val);
            newly_bound.push_back(arg);
          }
        }
        if (match) keep_going = Recurse(depth + 1);
        for (Term v : newly_bound) assignment_.erase(v);
        if (!keep_going) break;
      }
    }
    used_[idx] = false;
    return keep_going;
  }

  std::string MapKey() const {
    // Canonical rendering of the current assignment restricted to the
    // variables of `from_`.
    std::set<std::string> entries;
    for (const Atom& a : from_) {
      for (Term t : a.args()) {
        if (!t.IsVariable()) continue;
        auto it = assignment_.find(t);
        if (it != assignment_.end()) {
          entries.insert(t.ToString() + ">" + it->second.ToString());
        }
      }
    }
    std::string out;
    for (const std::string& e : entries) {
      out += e;
      out += '|';
    }
    return out;
  }

  std::span<const Atom> from_;
  std::span<const Atom> to_;
  TermMap assignment_;
  std::vector<bool> used_;
  std::unordered_map<std::string, std::vector<const Atom*>> targets_per_pred_;
  std::set<std::string> emitted_;
  const FunctionRef<bool(const TermMap&)>* fn_ = nullptr;
};

}  // namespace

void ForEachHomomorphismGeneric(std::span<const Atom> from, std::span<const Atom> to,
                                const TermMap& fixed,
                                FunctionRef<bool(const TermMap&)> fn) {
  HomomorphismSearch search(from, to, fixed);
  search.Run(fn);
}

std::optional<TermMap> FindHomomorphismGeneric(std::span<const Atom> from,
                                               std::span<const Atom> to,
                                               const TermMap& fixed) {
  std::optional<TermMap> found;
  ForEachHomomorphismGeneric(from, to, fixed, [&found](const TermMap& h) {
    found = h;
    return false;
  });
  return found;
}

bool HomomorphismExistsGeneric(std::span<const Atom> from, std::span<const Atom> to,
                               const TermMap& fixed) {
  return FindHomomorphismGeneric(from, to, fixed).has_value();
}

std::vector<TermMap> FindApplicableTgdHomomorphismsGeneric(const ConjunctiveQuery& q,
                                                           const Tgd& tgd) {
  std::vector<TermMap> out;
  ForEachHomomorphismGeneric(tgd.body(), q.body(), TermMap(), [&](const TermMap& h) {
    // Applicable iff h does not extend to the head (restricted chase).
    if (!HomomorphismExistsGeneric(tgd.head(), q.body(), h)) out.push_back(h);
    return true;
  });
  return out;
}

std::optional<EgdApplication> FindEgdApplicationGeneric(const ConjunctiveQuery& q,
                                                        const Egd& egd) {
  std::optional<EgdApplication> failing;
  std::optional<EgdApplication> found;
  ForEachHomomorphismGeneric(egd.body(), q.body(), TermMap(), [&](const TermMap& h) {
    Term l = ApplyTermMap(h, egd.left());
    Term r = ApplyTermMap(h, egd.right());
    if (l == r) return true;
    EgdApplication app;
    app.h = h;
    if (l.IsVariable()) {
      app.from = l;
      app.to = r;
    } else if (r.IsVariable()) {
      app.from = r;
      app.to = l;
    } else {
      app.failure = true;
      app.from = l;
      app.to = r;
      if (!failing.has_value()) failing = app;
      return true;  // keep searching for a non-failing application
    }
    found = app;
    return false;
  });
  if (found.has_value()) return found;
  return failing;
}

namespace {

/// A one-dependency plan and an index over q's body, for the kernel-backed
/// conveniences below.
struct OneDependency {
  OneDependency(const ConjunctiveQuery& q, Dependency dep)
      : plan(SigmaPlan::Compile({std::move(dep)})), flat(q.body()) {}
  SigmaPlan plan;
  FlatConjunction flat;
};

}  // namespace

std::vector<TermMap> FindApplicableTgdHomomorphisms(const ConjunctiveQuery& q,
                                                    const Tgd& tgd) {
  OneDependency one(q, Dependency::FromTgd(tgd));
  std::vector<TermMap> out;
  one.plan.ForEachApplicableTgdHomomorphism(0, one.flat, [&](const TermMap& h) {
    out.push_back(h);
    return true;
  });
  return out;
}

std::optional<TermMap> FindApplicableTgdHomomorphism(const ConjunctiveQuery& q,
                                                     const Tgd& tgd) {
  OneDependency one(q, Dependency::FromTgd(tgd));
  return one.plan.FindApplicableTgdHomomorphism(0, one.flat);
}

std::optional<EgdApplication> FindEgdApplication(const ConjunctiveQuery& q,
                                                 const Egd& egd) {
  OneDependency one(q, Dependency::FromEgd(egd));
  return one.plan.FindEgdApplication(0, one.flat);
}

bool IsApplicable(const ConjunctiveQuery& q, const Dependency& dep) {
  if (dep.IsTgd()) return FindApplicableTgdHomomorphism(q, dep.tgd()).has_value();
  return FindEgdApplication(q, dep.egd()).has_value();
}

}  // namespace sqleq
