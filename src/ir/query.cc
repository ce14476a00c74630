#include "ir/query.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <unordered_set>

namespace sqleq {

Term ApplyTermMap(const TermMap& map, Term t) {
  auto it = map.find(t);
  return it == map.end() ? t : it->second;
}

Atom ApplyTermMap(const TermMap& map, const Atom& atom) {
  std::vector<Term> args;
  args.reserve(atom.arity());
  for (Term t : atom.args()) args.push_back(ApplyTermMap(map, t));
  return Atom(atom.predicate(), std::move(args));
}

std::vector<Atom> ApplyTermMap(const TermMap& map, const std::vector<Atom>& atoms) {
  std::vector<Atom> out;
  out.reserve(atoms.size());
  for (const Atom& a : atoms) out.push_back(ApplyTermMap(map, a));
  return out;
}

Result<ConjunctiveQuery> ConjunctiveQuery::Create(std::string name,
                                                  std::vector<Term> head,
                                                  std::vector<Atom> body) {
  if (body.empty()) {
    return Status::InvalidArgument("query '" + name + "' has an empty body");
  }
  std::unordered_set<Term, TermHash> body_vars;
  for (const Atom& a : body) {
    for (Term t : a.args()) {
      if (t.IsVariable()) body_vars.insert(t);
    }
  }
  for (Term t : head) {
    if (t.IsVariable() && body_vars.find(t) == body_vars.end()) {
      return Status::InvalidArgument("query '" + name + "' is unsafe: head variable " +
                                     t.ToString() + " does not occur in the body");
    }
  }
  return ConjunctiveQuery(std::move(name), std::move(head), std::move(body));
}

ConjunctiveQuery ConjunctiveQuery::Make(std::string name, std::vector<Term> head,
                                        std::vector<Atom> body) {
  Result<ConjunctiveQuery> r = Create(std::move(name), std::move(head), std::move(body));
  assert(r.ok() && "ConjunctiveQuery::Make on invalid query");
  return std::move(r).value();
}

std::vector<Term> ConjunctiveQuery::HeadVariables() const {
  std::vector<Term> out;
  std::unordered_set<Term, TermHash> seen;
  for (Term t : head_) {
    if (t.IsVariable() && seen.insert(t).second) out.push_back(t);
  }
  return out;
}

std::vector<Term> ConjunctiveQuery::BodyVariables() const {
  return DistinctVariables(body_);
}

ConjunctiveQuery ConjunctiveQuery::CanonicalRepresentation() const {
  std::vector<Atom> body;
  std::unordered_set<Atom, AtomHash> seen;
  for (const Atom& a : body_) {
    if (seen.insert(a).second) body.push_back(a);
  }
  return ConjunctiveQuery(name_, head_, std::move(body));
}

bool ConjunctiveQuery::SameUpToAtomOrder(const ConjunctiveQuery& other) const {
  if (head_ != other.head_) return false;
  if (body_.size() != other.body_.size()) return false;
  std::vector<Atom> a = body_;
  std::vector<Atom> b = other.body_;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

ConjunctiveQuery ConjunctiveQuery::Substitute(const TermMap& map) const {
  return Substitute([&map](Term t) { return ApplyTermMap(map, t); });
}

ConjunctiveQuery ConjunctiveQuery::Substitute(FunctionRef<Term(Term)> image) const {
  std::vector<Term> head;
  head.reserve(head_.size());
  for (Term t : head_) head.push_back(image(t));
  std::vector<Atom> body;
  body.reserve(body_.size());
  for (const Atom& a : body_) {
    std::vector<Term> args;
    args.reserve(a.arity());
    for (Term t : a.args()) args.push_back(image(t));
    body.emplace_back(a.predicate(), std::move(args));
  }
  return ConjunctiveQuery(name_, std::move(head), std::move(body));
}

ConjunctiveQuery ConjunctiveQuery::RenameApart(TermMap* out_renaming) const {
  TermMap renaming;
  for (Term v : BodyVariables()) {
    renaming.emplace(v, Term::FreshVar(std::string(v.name())));
  }
  ConjunctiveQuery renamed = Substitute(renaming);
  if (out_renaming != nullptr) *out_renaming = std::move(renaming);
  return renamed;
}

ConjunctiveQuery ConjunctiveQuery::WithBody(std::vector<Atom> body) const {
  return ConjunctiveQuery(name_, head_, std::move(body));
}

void ConjunctiveQuery::AppendAtoms(std::vector<Atom> atoms) {
  body_.insert(body_.end(), std::make_move_iterator(atoms.begin()),
               std::make_move_iterator(atoms.end()));
}

ConjunctiveQuery ConjunctiveQuery::WithName(std::string name) const {
  return ConjunctiveQuery(std::move(name), head_, body_);
}

std::unordered_map<std::string, size_t> ConjunctiveQuery::PredicateCounts() const {
  std::unordered_map<std::string, size_t> out;
  for (const Atom& a : body_) ++out[a.predicate()];
  return out;
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = name_;
  out += '(';
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ", ";
    out += head_[i].ToString();
  }
  out += ") :- ";
  out += AtomsToString(body_);
  out += '.';
  return out;
}

const char* AggregateFunctionToString(AggregateFunction f) {
  switch (f) {
    case AggregateFunction::kSum:
      return "sum";
    case AggregateFunction::kCount:
      return "count";
    case AggregateFunction::kCountStar:
      return "count(*)";
    case AggregateFunction::kMax:
      return "max";
    case AggregateFunction::kMin:
      return "min";
  }
  return "?";
}

Result<AggregateQuery> AggregateQuery::Create(std::string name,
                                              std::vector<Term> grouping,
                                              AggregateFunction function,
                                              std::optional<Term> agg_arg,
                                              std::vector<Atom> body) {
  if (body.empty()) {
    return Status::InvalidArgument("aggregate query '" + name + "' has an empty body");
  }
  bool needs_arg = function != AggregateFunction::kCountStar;
  if (needs_arg && !agg_arg.has_value()) {
    return Status::InvalidArgument("aggregate query '" + name +
                                   "': aggregate function requires an argument");
  }
  if (!needs_arg && agg_arg.has_value()) {
    return Status::InvalidArgument("aggregate query '" + name +
                                   "': count(*) takes no argument");
  }
  std::unordered_set<Term, TermHash> body_vars;
  for (const Atom& a : body) {
    for (Term t : a.args()) {
      if (t.IsVariable()) body_vars.insert(t);
    }
  }
  for (Term t : grouping) {
    if (t.IsVariable() && body_vars.find(t) == body_vars.end()) {
      return Status::InvalidArgument("aggregate query '" + name +
                                     "' is unsafe: grouping variable " + t.ToString() +
                                     " does not occur in the body");
    }
  }
  if (agg_arg.has_value()) {
    if (!agg_arg->IsVariable()) {
      return Status::InvalidArgument("aggregate query '" + name +
                                     "': aggregate argument must be a variable");
    }
    if (body_vars.find(*agg_arg) == body_vars.end()) {
      return Status::InvalidArgument("aggregate query '" + name +
                                     "' is unsafe: aggregate argument " +
                                     agg_arg->ToString() +
                                     " does not occur in the body");
    }
    for (Term t : grouping) {
      if (t == *agg_arg) {
        return Status::InvalidArgument("aggregate query '" + name +
                                       "': aggregate argument " + agg_arg->ToString() +
                                       " may not also be a grouping term (§2.5)");
      }
    }
  }
  return AggregateQuery(std::move(name), std::move(grouping), function, agg_arg,
                        std::move(body));
}

AggregateQuery AggregateQuery::Make(std::string name, std::vector<Term> grouping,
                                    AggregateFunction function,
                                    std::optional<Term> agg_arg,
                                    std::vector<Atom> body) {
  Result<AggregateQuery> r =
      Create(std::move(name), std::move(grouping), function, agg_arg, std::move(body));
  assert(r.ok() && "AggregateQuery::Make on invalid query");
  return std::move(r).value();
}

ConjunctiveQuery AggregateQuery::Core() const {
  std::vector<Term> head = grouping_;
  if (agg_arg_.has_value()) head.push_back(*agg_arg_);
  // The core of a safe aggregate query is safe by construction.
  return ConjunctiveQuery::Make(name_ + "_core", std::move(head), body_);
}

bool AggregateQuery::CompatibleWith(const AggregateQuery& other) const {
  return grouping_.size() == other.grouping_.size() && function_ == other.function_ &&
         agg_arg_.has_value() == other.agg_arg_.has_value();
}

std::string AggregateQuery::ToString() const {
  std::string out = name_;
  out += '(';
  for (size_t i = 0; i < grouping_.size(); ++i) {
    if (i > 0) out += ", ";
    out += grouping_[i].ToString();
  }
  if (!grouping_.empty()) out += ", ";
  if (function_ == AggregateFunction::kCountStar) {
    out += "count(*)";
  } else {
    out += AggregateFunctionToString(function_);
    out += '(';
    out += agg_arg_->ToString();
    out += ')';
  }
  out += ") :- ";
  out += AtomsToString(body_);
  out += '.';
  return out;
}

}  // namespace sqleq
