// Embedded dependencies (§2.4): tuple-generating (tgd) and equality-
// generating (egd) dependencies. Every set of embedded dependencies is
// equivalent to a set of tgds and egds [Abiteboul-Hull-Vianu], and the paper
// (and this library) works with Σ in that normal form.
#ifndef SQLEQ_CONSTRAINTS_DEPENDENCY_H_
#define SQLEQ_CONSTRAINTS_DEPENDENCY_H_

#include <string>
#include <string_view>
#include <vector>

#include "ir/atom.h"
#include "ir/query.h"
#include "util/status.h"

namespace sqleq {

/// A tuple-generating dependency φ(X̄,Ȳ) → ∃Z̄ ψ(X̄,Z̄). The existential
/// variables are exactly the head variables that do not occur in the body.
class Tgd {
 public:
  /// Validates: nonempty body and head of relational atoms.
  static Result<Tgd> Create(std::vector<Atom> body, std::vector<Atom> head);

  const std::vector<Atom>& body() const { return body_; }
  const std::vector<Atom>& head() const { return head_; }

  /// Head variables absent from the body, first-occurrence order.
  std::vector<Term> ExistentialVariables() const;

  /// Body variables that occur in the head (the frontier), first-occurrence
  /// order.
  std::vector<Term> FrontierVariables() const;

  /// True iff the tgd has no existential variables ("full tgd").
  bool IsFull() const { return ExistentialVariables().empty(); }

  /// "p(X, Y) -> EXISTS Z: s(X, Z)".
  std::string ToString() const;

  /// Structural: the same body and head atoms, in order.
  friend bool operator==(const Tgd&, const Tgd&) = default;

 private:
  Tgd(std::vector<Atom> body, std::vector<Atom> head)
      : body_(std::move(body)), head_(std::move(head)) {}

  std::vector<Atom> body_;
  std::vector<Atom> head_;
};

/// An equality-generating dependency φ(Ū) → U1 = U2.
class Egd {
 public:
  /// Validates: nonempty body; each side is a constant or a body variable;
  /// the two sides are not syntactically identical.
  static Result<Egd> Create(std::vector<Atom> body, Term left, Term right);

  const std::vector<Atom>& body() const { return body_; }
  Term left() const { return left_; }
  Term right() const { return right_; }

  /// "r(X, Y), r(X, Z) -> Y = Z".
  std::string ToString() const;

  /// Structural: the same body atoms, in order, and the same sides.
  friend bool operator==(const Egd&, const Egd&) = default;

 private:
  Egd(std::vector<Atom> body, Term left, Term right)
      : body_(std::move(body)), left_(left), right_(right) {}

  std::vector<Atom> body_;
  Term left_;
  Term right_;
};

/// A tagged union of Tgd and Egd with an optional human-readable label
/// ("sigma1", "key_S", ...). Labels are carried through regularization so
/// provenance stays visible in chase traces.
class Dependency {
 public:
  enum class Kind { kTgd, kEgd };

  static Dependency FromTgd(Tgd tgd, std::string label = "");
  static Dependency FromEgd(Egd egd, std::string label = "");

  Kind kind() const { return kind_; }
  bool IsTgd() const { return kind_ == Kind::kTgd; }
  bool IsEgd() const { return kind_ == Kind::kEgd; }

  /// Requires IsTgd() / IsEgd() respectively.
  const Tgd& tgd() const;
  const Egd& egd() const;

  const std::string& label() const { return label_; }
  Dependency WithLabel(std::string label) const;

  const std::vector<Atom>& body() const;

  /// "[label] body -> head".
  std::string ToString() const;

  /// Structural equality (kind, label, atoms, egd sides) and a hash
  /// consistent with it. Neither renders the dependency, so a chase
  /// context can be looked up by its Σ without a string per call.
  friend bool operator==(const Dependency&, const Dependency&) = default;
  size_t Hash() const;

 private:
  Dependency(Kind kind, std::vector<Tgd> tgd, std::vector<Egd> egd, std::string label)
      : kind_(kind), tgd_(std::move(tgd)), egd_(std::move(egd)), label_(std::move(label)) {}

  Kind kind_;
  // Exactly one of these holds one element (poor-man's variant keeps the
  // class copyable without heap indirection gymnastics).
  std::vector<Tgd> tgd_;
  std::vector<Egd> egd_;
  std::string label_;
};

/// A finite set Σ of embedded dependencies.
using DependencySet = std::vector<Dependency>;

/// Parses one dependency statement. A tgd parses to one Dependency; an egd
/// conclusion with k equations parses to k egd Dependencies (labelled
/// "<label>", "<label>_2", ...).
Result<std::vector<Dependency>> ParseDependency(std::string_view text,
                                                std::string label = "");

/// Parses a whole Σ, one statement per element; labels default to
/// "sigma1".."sigmaN".
Result<DependencySet> ParseSigma(const std::vector<std::string>& statements);

/// Renders Σ one dependency per line.
std::string SigmaToString(const DependencySet& sigma);

}  // namespace sqleq

#endif  // SQLEQ_CONSTRAINTS_DEPENDENCY_H_
