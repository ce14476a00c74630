// ConjunctiveQuery and AggregateQuery: the query IR of sqleq.
//
// A conjunctive query (CQ, §2.1 of the paper) is Q(X̄) :- φ(X̄, Ȳ) where φ is
// a nonempty conjunction of relational atoms and every head variable occurs
// in the body (safety). An aggregate query (§2.5) is a CQ core plus an
// aggregate term in the head.
#ifndef SQLEQ_IR_QUERY_H_
#define SQLEQ_IR_QUERY_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/atom.h"
#include "ir/term.h"
#include "util/function_ref.h"
#include "util/status.h"

namespace sqleq {

/// A finite mapping of terms to terms. Used for homomorphisms, assignments,
/// and variable renamings. Constants always map to themselves implicitly.
using TermMap = std::unordered_map<Term, Term, TermHash>;

/// Applies `map` to `t`: mapped variables are replaced, everything else
/// (constants, unmapped variables) passes through.
Term ApplyTermMap(const TermMap& map, Term t);

/// Applies `map` to every argument of `atom`.
Atom ApplyTermMap(const TermMap& map, const Atom& atom);

/// Applies `map` to every atom.
std::vector<Atom> ApplyTermMap(const TermMap& map, const std::vector<Atom>& atoms);

/// A safe conjunctive query.
class ConjunctiveQuery {
 public:
  /// Validates safety (nonempty body; every head variable occurs in the
  /// body) and constructs the query.
  static Result<ConjunctiveQuery> Create(std::string name, std::vector<Term> head,
                                         std::vector<Atom> body);

  /// Create() that asserts success; for statically well-formed queries.
  static ConjunctiveQuery Make(std::string name, std::vector<Term> head,
                               std::vector<Atom> body);

  const std::string& name() const { return name_; }
  const std::vector<Term>& head() const { return head_; }
  const std::vector<Atom>& body() const { return body_; }

  /// Distinct head variables, first-occurrence order.
  std::vector<Term> HeadVariables() const;

  /// Distinct body variables, first-occurrence order.
  std::vector<Term> BodyVariables() const;

  /// Number of body atoms.
  size_t size() const { return body_.size(); }

  /// The canonical representation Qc (§2.3): duplicate body atoms removed,
  /// first occurrences kept.
  ConjunctiveQuery CanonicalRepresentation() const;

  /// True if the two queries have identical heads and identical bodies as
  /// *bags* of atoms (order-insensitive, multiplicity-sensitive).
  bool SameUpToAtomOrder(const ConjunctiveQuery& other) const;

  /// Applies `map` to head and body.
  ConjunctiveQuery Substitute(const TermMap& map) const;

  /// Replaces every head and body term t by image(t).
  ConjunctiveQuery Substitute(FunctionRef<Term(Term)> image) const;

  /// Returns a copy whose variables are replaced by globally fresh ones
  /// (head variables renamed consistently with the body). `out_renaming`,
  /// if non-null, receives the old→new variable map.
  ConjunctiveQuery RenameApart(TermMap* out_renaming = nullptr) const;

  /// Returns a copy with the given body (same name/head). The caller must
  /// preserve safety; violated safety is reported by Create() paths only.
  ConjunctiveQuery WithBody(std::vector<Atom> body) const;

  /// Appends `atoms` to the body in place. Safety is preserved: the head
  /// variables still occur in the body.
  void AppendAtoms(std::vector<Atom> atoms);

  /// Returns a copy with a different name.
  ConjunctiveQuery WithName(std::string name) const;

  /// Counts body atoms per predicate.
  std::unordered_map<std::string, size_t> PredicateCounts() const;

  /// "Q(X) :- p(X, Y), t(X, Y, W)."
  std::string ToString() const;

 private:
  ConjunctiveQuery(std::string name, std::vector<Term> head, std::vector<Atom> body)
      : name_(std::move(name)), head_(std::move(head)), body_(std::move(body)) {}

  std::string name_;
  std::vector<Term> head_;
  std::vector<Atom> body_;
};

/// Aggregate functions supported by the paper's framework (§2.5).
enum class AggregateFunction { kSum, kCount, kCountStar, kMax, kMin };

/// "sum", "count", "count(*)", "max", "min".
const char* AggregateFunctionToString(AggregateFunction f);

/// A CQ with grouping and one aggregate term in the head:
///   Q(S̄, α(y)) :- A(S̄, y, Z̄).
class AggregateQuery {
 public:
  /// Validates safety: grouping variables and the aggregate argument occur
  /// in the body, and the aggregate argument is not a grouping variable.
  /// `agg_arg` must be nullopt iff `function` is kCountStar.
  static Result<AggregateQuery> Create(std::string name, std::vector<Term> grouping,
                                       AggregateFunction function,
                                       std::optional<Term> agg_arg,
                                       std::vector<Atom> body);

  /// Create() that asserts success.
  static AggregateQuery Make(std::string name, std::vector<Term> grouping,
                             AggregateFunction function, std::optional<Term> agg_arg,
                             std::vector<Atom> body);

  const std::string& name() const { return name_; }
  const std::vector<Term>& grouping() const { return grouping_; }
  AggregateFunction function() const { return function_; }
  const std::optional<Term>& agg_arg() const { return agg_arg_; }
  const std::vector<Atom>& body() const { return body_; }

  /// The CQ core Q̆ (§2.5): head is the grouping terms followed by the
  /// aggregate argument (if any).
  ConjunctiveQuery Core() const;

  /// Two aggregate queries are compatible (Def 2.1 context) if they have the
  /// same grouping arity and the same aggregate term shape.
  bool CompatibleWith(const AggregateQuery& other) const;

  /// "Q(S, sum(Y)) :- p(S, Y)."
  std::string ToString() const;

 private:
  AggregateQuery(std::string name, std::vector<Term> grouping,
                 AggregateFunction function, std::optional<Term> agg_arg,
                 std::vector<Atom> body)
      : name_(std::move(name)),
        grouping_(std::move(grouping)),
        function_(function),
        agg_arg_(agg_arg),
        body_(std::move(body)) {}

  std::string name_;
  std::vector<Term> grouping_;
  AggregateFunction function_;
  std::optional<Term> agg_arg_;
  std::vector<Atom> body_;
};

}  // namespace sqleq

#endif  // SQLEQ_IR_QUERY_H_
