// Term: an interned variable or constant, the leaf of the query IR.
//
// Terms are 8-byte value types. Variable names and constant values live in
// process-wide interning tables, so equality, hashing, and copies are cheap —
// the chase (src/chase) manipulates large conjunctions of atoms and relies on
// this. Interning is append-only and thread-safe.
#ifndef SQLEQ_IR_TERM_H_
#define SQLEQ_IR_TERM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>

namespace sqleq {

/// A constant value: the database domain is 64-bit integers and strings.
using Value = std::variant<int64_t, std::string>;

/// Renders a Value as a literal: integers bare, strings single-quoted.
std::string ValueToString(const Value& v);

/// An interned variable or constant.
class Term {
 public:
  enum class Kind : uint8_t { kVariable = 0, kConstant = 1 };

  /// Default-constructed Term is the variable "_" (placeholder); avoid
  /// relying on it except as a pre-assignment slot.
  Term() : Term(Var("_")) {}

  /// Interns (or looks up) the variable named `name`.
  static Term Var(std::string_view name);

  /// Interns an integer constant.
  static Term Int(int64_t v);

  /// Interns a string constant.
  static Term Str(std::string_view s);

  /// Interns an arbitrary Value constant.
  static Term Const(const Value& v);

  /// Returns a variable named "<prefix>#<n>" for a process-unique n, distinct
  /// from every Term interned so far as long as no other code interns names
  /// ending in "#<digits>". Its only users are the chase (tgd steps,
  /// assignment-fixing test queries) and view expansion's rename-apart;
  /// SQL translation names its variables query-locally (sql::TranslateSelect).
  /// Aborts rather than wrap the counter back to names already handed out.
  static Term FreshVar(std::string_view prefix = "v");

  /// Exclusive upper bound on the suffixes ReserveFreshThrough accepts. It sits
  /// far below the wrap point, so a reserved counter still has 2^63 names left.
  static constexpr uint64_t kFreshReserveLimit = uint64_t{1} << 63;

  /// Advances the FreshVar counter past `n` (an atomic fetch-max), so no later
  /// FreshVar returns a "#<n>" name. A no-op when the counter is already past
  /// it; `n` must be below kFreshReserveLimit.
  static void ReserveFreshThrough(uint64_t n);

  /// Rewinds the FreshVar counter so two runs allocate identical names.
  /// Only for differential tests that replay the same chase twice and
  /// compare traces byte-for-byte; never call this in library code — it
  /// forfeits the distinct-from-everything guarantee above.
  static void ResetFreshCounterForTesting(uint64_t value = 0);

  /// Current FreshVar counter value; pairs with the reset above so a test
  /// can mark the counter at a checkpoint and replay resumes from it.
  static uint64_t FreshCounterForTesting();

  bool IsVariable() const { return kind_ == Kind::kVariable; }
  bool IsConstant() const { return kind_ == Kind::kConstant; }
  Kind kind() const { return kind_; }

  /// Variable name; requires IsVariable().
  std::string_view name() const;

  /// Constant value; requires IsConstant().
  const Value& value() const;

  /// Variable name or constant literal.
  std::string ToString() const;

  friend bool operator==(Term a, Term b) {
    return a.kind_ == b.kind_ && a.id_ == b.id_;
  }
  friend bool operator!=(Term a, Term b) { return !(a == b); }
  friend bool operator<(Term a, Term b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    return a.id_ < b.id_;
  }

  /// Stable hash suitable for unordered containers.
  size_t Hash() const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(kind_) << 32) |
                                 static_cast<uint32_t>(id_));
  }

 private:
  Term(Kind kind, int32_t id) : kind_(kind), id_(id) {}

  Kind kind_;
  int32_t id_;
};

struct TermHash {
  size_t operator()(Term t) const { return t.Hash(); }
};

}  // namespace sqleq

#endif  // SQLEQ_IR_TERM_H_
