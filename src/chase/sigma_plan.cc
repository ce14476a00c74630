#include "chase/sigma_plan.h"

#include "chase/assignment_fixing.h"

namespace sqleq {

SigmaPlan SigmaPlan::Compile(const DependencySet& sigma, const Schema& schema) {
  SigmaPlan plan;
  plan.kernels_.reserve(sigma.size());
  for (const Dependency& dep : sigma) {
    DepKernel k;
    k.is_tgd = dep.IsTgd();
    if (dep.IsTgd()) {
      const Tgd& tgd = dep.tgd();
      k.body = CompiledPattern(tgd.body());
      k.head = CompiledPattern(tgd.head());
      k.key_based_any =
          IsKeyBased(tgd, sigma, schema, /*require_set_valued=*/false);
      k.key_based_set_valued =
          IsKeyBased(tgd, sigma, schema, /*require_set_valued=*/true);
    } else {
      const Egd& egd = dep.egd();
      k.body = CompiledPattern(egd.body());
      k.left = egd.left();
      k.right = egd.right();
    }
    plan.kernels_.push_back(std::move(k));
  }
  plan.IndexReaders();
  return plan;
}

void SigmaPlan::IndexReaders() {
  readers_.clear();
  for (size_t i = 0; i < kernels_.size(); ++i) {
    for (const CompiledPattern::PatternAtom& a : kernels_[i].body.atoms()) {
      size_t p = static_cast<size_t>(a.pred);
      if (p >= readers_.size()) readers_.resize(p + 1);
      std::vector<uint32_t>& readers = readers_[p];
      if (readers.empty() || readers.back() != i) {
        readers.push_back(static_cast<uint32_t>(i));
      }
    }
  }
}

SigmaPlan SigmaPlan::Subset(const std::vector<size_t>& kept) const {
  SigmaPlan out;
  out.kernels_.reserve(kept.size());
  for (size_t i : kept) out.kernels_.push_back(kernels_[i]);
  out.IndexReaders();
  return out;
}

SigmaPlan::Stats SigmaPlan::stats() const {
  Stats s;
  s.dependencies = kernels_.size();
  for (const DepKernel& k : kernels_) {
    if (k.is_tgd) {
      ++s.tgd_kernels;
      s.pattern_atoms += k.body.n_atoms() + k.head.n_atoms();
    } else {
      ++s.egd_kernels;
      s.pattern_atoms += k.body.n_atoms();
    }
  }
  return s;
}

bool SigmaPlan::ForEachApplicableTgdHomomorphism(
    size_t dep_index, const FlatConjunction& to,
    FunctionRef<bool(const TermMap&)> fn, uint32_t delta_from) const {
  const DepKernel& k = kernels_[dep_index];
  return MatchPattern(
      k.body, to, TermMap(),
      [&](const TermMap& h) {
        // Applicable iff h does not extend to the head (restricted chase).
        return PatternMatchExists(k.head, to, h) || fn(h);
      },
      delta_from);
}

std::optional<TermMap> SigmaPlan::FindApplicableTgdHomomorphism(
    size_t dep_index, const FlatConjunction& to) const {
  std::optional<TermMap> found;
  ForEachApplicableTgdHomomorphism(dep_index, to, [&](const TermMap& h) {
    found = h;
    return false;
  });
  return found;
}

std::optional<EgdApplication> SigmaPlan::FindEgdApplication(
    size_t dep_index, const FlatConjunction& to, uint32_t delta_from) const {
  const DepKernel& k = kernels_[dep_index];
  std::optional<EgdApplication> failing;
  std::optional<EgdApplication> found;
  auto on_match = [&](const TermMap& h) {
    Term l = ApplyTermMap(h, k.left);
    Term r = ApplyTermMap(h, k.right);
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
  };
  MatchPattern(k.body, to, TermMap(), on_match, delta_from);
  if (found.has_value()) return found;
  return failing;
}

}  // namespace sqleq
