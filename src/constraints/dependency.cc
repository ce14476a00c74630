#include "constraints/dependency.h"

#include <cassert>
#include <functional>
#include <unordered_set>

#include "ir/parser.h"

namespace sqleq {

Result<Tgd> Tgd::Create(std::vector<Atom> body, std::vector<Atom> head) {
  if (body.empty()) return Status::InvalidArgument("tgd body may not be empty");
  if (head.empty()) return Status::InvalidArgument("tgd head may not be empty");
  return Tgd(std::move(body), std::move(head));
}

std::vector<Term> Tgd::ExistentialVariables() const {
  std::unordered_set<Term, TermHash> body_vars;
  for (const Atom& a : body_) {
    for (Term t : a.args()) {
      if (t.IsVariable()) body_vars.insert(t);
    }
  }
  std::vector<Term> out;
  std::unordered_set<Term, TermHash> seen;
  for (const Atom& a : head_) {
    for (Term t : a.args()) {
      if (t.IsVariable() && body_vars.count(t) == 0 && seen.insert(t).second) {
        out.push_back(t);
      }
    }
  }
  return out;
}

std::vector<Term> Tgd::FrontierVariables() const {
  std::unordered_set<Term, TermHash> head_vars;
  for (const Atom& a : head_) {
    for (Term t : a.args()) {
      if (t.IsVariable()) head_vars.insert(t);
    }
  }
  std::vector<Term> out;
  std::unordered_set<Term, TermHash> seen;
  for (const Atom& a : body_) {
    for (Term t : a.args()) {
      if (t.IsVariable() && head_vars.count(t) > 0 && seen.insert(t).second) {
        out.push_back(t);
      }
    }
  }
  return out;
}

std::string Tgd::ToString() const {
  std::string out = AtomsToString(body_);
  out += " -> ";
  std::vector<Term> ex = ExistentialVariables();
  if (!ex.empty()) {
    out += "EXISTS ";
    for (size_t i = 0; i < ex.size(); ++i) {
      if (i > 0) out += ", ";
      out += ex[i].ToString();
    }
    out += ": ";
  }
  out += AtomsToString(head_);
  return out;
}

Result<Egd> Egd::Create(std::vector<Atom> body, Term left, Term right) {
  if (body.empty()) return Status::InvalidArgument("egd body may not be empty");
  if (left == right) {
    return Status::InvalidArgument("egd equates a term with itself: " + left.ToString());
  }
  std::unordered_set<Term, TermHash> body_vars;
  for (const Atom& a : body) {
    for (Term t : a.args()) {
      if (t.IsVariable()) body_vars.insert(t);
    }
  }
  for (Term side : {left, right}) {
    if (side.IsVariable() && body_vars.count(side) == 0) {
      return Status::InvalidArgument("egd equation variable " + side.ToString() +
                                     " does not occur in the body");
    }
  }
  return Egd(std::move(body), left, right);
}

std::string Egd::ToString() const {
  return AtomsToString(body_) + " -> " + left_.ToString() + " = " + right_.ToString();
}

Dependency Dependency::FromTgd(Tgd tgd, std::string label) {
  return Dependency(Kind::kTgd, {std::move(tgd)}, {}, std::move(label));
}

Dependency Dependency::FromEgd(Egd egd, std::string label) {
  return Dependency(Kind::kEgd, {}, {std::move(egd)}, std::move(label));
}

const Tgd& Dependency::tgd() const {
  assert(IsTgd());
  return tgd_[0];
}

const Egd& Dependency::egd() const {
  assert(IsEgd());
  return egd_[0];
}

Dependency Dependency::WithLabel(std::string label) const {
  Dependency copy = *this;
  copy.label_ = std::move(label);
  return copy;
}

const std::vector<Atom>& Dependency::body() const {
  return IsTgd() ? tgd_[0].body() : egd_[0].body();
}

size_t Dependency::Hash() const {
  size_t h = std::hash<std::string>()(label_) * 31u + static_cast<size_t>(kind_);
  for (const Atom& a : body()) h = h * 1000003u + a.Hash();
  if (IsTgd()) {
    for (const Atom& a : tgd_[0].head()) h = h * 1000003u + a.Hash();
  } else {
    h = (h * 1000003u + egd_[0].left().Hash()) * 1000003u + egd_[0].right().Hash();
  }
  return h;
}

std::string Dependency::ToString() const {
  std::string out;
  if (!label_.empty()) {
    out += '[';
    out += label_;
    out += "] ";
  }
  out += IsTgd() ? tgd_[0].ToString() : egd_[0].ToString();
  return out;
}

Result<std::vector<Dependency>> ParseDependency(std::string_view text, std::string label) {
  SQLEQ_ASSIGN_OR_RETURN(ParsedDependency parsed, ParseDependencyText(text));
  std::vector<Dependency> out;
  if (parsed.is_egd()) {
    for (size_t i = 0; i < parsed.equations.size(); ++i) {
      SQLEQ_ASSIGN_OR_RETURN(Egd egd, Egd::Create(parsed.body, parsed.equations[i].first,
                                                  parsed.equations[i].second));
      std::string l = label;
      if (parsed.equations.size() > 1 && !label.empty()) {
        l += "_" + std::to_string(i + 1);
      }
      out.push_back(Dependency::FromEgd(std::move(egd), std::move(l)));
    }
  } else {
    SQLEQ_ASSIGN_OR_RETURN(Tgd tgd,
                           Tgd::Create(std::move(parsed.body), std::move(parsed.head_atoms)));
    out.push_back(Dependency::FromTgd(std::move(tgd), std::move(label)));
  }
  return out;
}

Result<DependencySet> ParseSigma(const std::vector<std::string>& statements) {
  DependencySet sigma;
  for (size_t i = 0; i < statements.size(); ++i) {
    SQLEQ_ASSIGN_OR_RETURN(
        std::vector<Dependency> deps,
        ParseDependency(statements[i], "sigma" + std::to_string(i + 1)));
    for (Dependency& d : deps) sigma.push_back(std::move(d));
  }
  return sigma;
}

std::string SigmaToString(const DependencySet& sigma) {
  std::string out;
  for (const Dependency& d : sigma) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace sqleq
