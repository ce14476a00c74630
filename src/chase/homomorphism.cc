#include "chase/homomorphism.h"

#include "chase/flat_db.h"
#include "chase/pattern.h"

namespace sqleq {

void ForEachHomomorphism(std::span<const Atom> from, std::span<const Atom> to,
                         const TermMap& fixed, FunctionRef<bool(const TermMap&)> fn) {
  CompiledPattern pattern(from);
  FlatConjunction flat(to);
  MatchPattern(pattern, flat, fixed, fn);
}

std::optional<TermMap> FindHomomorphism(std::span<const Atom> from,
                                        std::span<const Atom> to,
                                        const TermMap& fixed) {
  std::optional<TermMap> found;
  ForEachHomomorphism(from, to, fixed, [&found](const TermMap& h) {
    found = h;
    return false;
  });
  return found;
}

bool HomomorphismExists(std::span<const Atom> from, std::span<const Atom> to,
                        const TermMap& fixed) {
  return FindHomomorphism(from, to, fixed).has_value();
}

std::optional<TermMap> FindContainmentMapping(const ConjunctiveQuery& from,
                                              const ConjunctiveQuery& to) {
  if (from.head().size() != to.head().size()) return std::nullopt;
  TermMap fixed;
  for (size_t i = 0; i < from.head().size(); ++i) {
    Term src = from.head()[i];
    Term dst = to.head()[i];
    if (src.IsConstant()) {
      if (src != dst) return std::nullopt;
      continue;
    }
    auto it = fixed.find(src);
    if (it != fixed.end()) {
      if (it->second != dst) return std::nullopt;
    } else {
      fixed.emplace(src, dst);
    }
  }
  return FindHomomorphism(from.body(), to.body(), fixed);
}

bool ContainmentMappingExists(const ConjunctiveQuery& from, const ConjunctiveQuery& to) {
  return FindContainmentMapping(from, to).has_value();
}

}  // namespace sqleq
