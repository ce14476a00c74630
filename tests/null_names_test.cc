// A user's variable may be named like a chase null ("Z#0"): the parser
// accepts '#' in names, and the chase mints nulls as "<prefix>#<n>" from a
// process-wide counter. The two must never merge. The memoized chase
// (ChaseMemo::Chase) renames a null that equals a caller variable when it
// maps a canonical outcome back, a disk-promoted outcome reserves its nulls'
// names, and the uncached chase behind EXPLAIN reserves its input's names
// before it mints any. Σ = { r(X) -> s(X, Z), s keyed on its first column }
// under S, B and BS: Q1(N) :- r(N) and Q2(X) :- r(X), s(X, X) are not
// equivalent, but become so if the null the chase adds for N is named N.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chase/chase_cache.h"
#include "chase/memo_store.h"
#include "equivalence/engine.h"
#include "equivalence/explain.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Q;
using testing::Sigma;
using testing::Unwrap;

constexpr Semantics kAllSemantics[] = {Semantics::kSet, Semantics::kBag,
                                       Semantics::kBagSet};

Schema NullSchema() {
  Schema schema;
  schema.Relation("r", 1).Relation("s", 2, /*set_valued=*/true);
  return schema;
}

// The key makes the tgd key-based (Def 5.1), so B and BS admit its step.
DependencySet NullSigma() {
  return Sigma({"r(X) -> s(X, Z).", "s(X, Y), s(X, W) -> Y = W."});
}

ConjunctiveQuery Q2() { return Q("Q2(X) :- r(X), s(X, X)."); }

/// Q1(N) :- r(N) with N the given variable name.
ConjunctiveQuery Q1Named(const std::string& n) {
  return Q("Q1(" + n + ") :- r(" + n + ").");
}

/// The second argument of the s-atom the chase added to a chased Q1.
Term AddedNull(const ConjunctiveQuery& chased) {
  for (const Atom& a : chased.body()) {
    if (a.predicate() == "s") return a.args()[1];
  }
  ADD_FAILURE() << "no s-atom in " << chased.ToString();
  return Term::Var("_");
}

/// A chased Q1 must keep its head variable and the added null apart.
void ExpectNullKeptApart(const ConjunctiveQuery& chased) {
  EXPECT_NE(AddedNull(chased), chased.head()[0]) << chased.ToString();
}

/// Q1Named(n) chased through the memo of `engine`'s context for
/// `semantics`, mapped back onto n (ChaseMemo::Chase).
ConjunctiveQuery MemoChased(EquivalenceEngine& engine, Semantics semantics,
                            const std::string& n) {
  ChaseMemo& memo = engine.ContextFor(semantics, NullSigma(), NullSchema())->memo();
  return Unwrap(memo.Chase(Q1Named(n))).result;
}

TEST(NullNames, MemoizedChaseKeepsACallerVariableApartFromANull) {
  for (Semantics semantics : kAllSemantics) {
    SCOPED_TRACE(SemanticsToString(semantics));
    EquivalenceEngine engine;
    EquivRequest request(semantics, NullSigma(), NullSchema());
    // Warm the memo with Q1's shape, and read the null its chase minted.
    EquivVerdict warm = Unwrap(engine.Equivalent(Q1Named("A"), Q2(), request));
    EXPECT_EQ(warm.verdict, Verdict::kNotEquivalent);
    const std::string null(AddedNull(MemoChased(engine, semantics, "A")).name());

    // The same shape with its variable named like that null is a memo hit
    // whose outcome holds the null: mapped back onto the caller's names, it
    // must not merge with the head.
    EquivVerdict verdict = Unwrap(engine.Equivalent(Q1Named(null), Q2(), request));
    EXPECT_EQ(verdict.verdict, Verdict::kNotEquivalent) << null;
    ExpectNullKeptApart(MemoChased(engine, semantics, null));
    EXPECT_GE(engine.cache_stats().hits, 1u);
  }
}

/// A fresh tier-2 store directory under TMPDIR.
std::string TempStoreDir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/sqleq_null_names_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* made = ::mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return made == nullptr ? "" : made;
}

std::shared_ptr<MemoStore> OpenStore(const std::string& dir) {
  MemoStoreOptions options;
  options.dir = dir;
  return std::shared_ptr<MemoStore>(
      Unwrap(MemoStore::Open(std::move(options)), "MemoStore::Open"));
}

TEST(NullNames, DiskPromotedOutcomeReservesItsNulls) {
  const uint64_t saved = Term::FreshCounterForTesting();
  for (Semantics semantics : kAllSemantics) {
    SCOPED_TRACE(SemanticsToString(semantics));
    const std::string dir = TempStoreDir();
    EquivRequest request(semantics, NullSigma(), NullSchema());
    std::string null;
    {
      EquivalenceEngine writer;
      writer.set_memo_store(OpenStore(dir));
      EquivVerdict warm = Unwrap(writer.Equivalent(Q1Named("A"), Q2(), request));
      EXPECT_EQ(warm.verdict, Verdict::kNotEquivalent);
      null = std::string(AddedNull(MemoChased(writer, semantics, "A")).name());
    }
    const uint64_t minted = std::stoull(null.substr(null.rfind('#') + 1));

    // A restarted process: its counter starts below the null on disk.
    Term::ResetFreshCounterForTesting(0);
    std::shared_ptr<MemoStore> store = OpenStore(dir);
    EquivalenceEngine reader;
    reader.set_memo_store(store);
    EquivVerdict verdict = Unwrap(reader.Equivalent(Q1Named(null), Q2(), request));
    EXPECT_EQ(verdict.verdict, Verdict::kNotEquivalent) << null;
    EXPECT_GE(store->stats().hits, 2u);  // both outcomes came from disk
    ExpectNullKeptApart(MemoChased(reader, semantics, null));
    // Promotion moved the counter past the record's null.
    EXPECT_GT(Term::FreshCounterForTesting(), minted);
    Term::ResetFreshCounterForTesting(std::max(saved, Term::FreshCounterForTesting()));
  }
}

TEST(NullNames, UncachedChaseMintsNoNameItsInputHolds) {
  for (Semantics semantics : kAllSemantics) {
    SCOPED_TRACE(SemanticsToString(semantics));
    // The name the chase's next null would take without the reservation.
    const std::string next = "Z#" + std::to_string(Term::FreshCounterForTesting());
    EquivalenceExplanation explained = Unwrap(ExplainEquivalence(
        Q1Named(next), Q2(), NullSigma(), semantics, NullSchema()));
    EXPECT_FALSE(explained.equivalent) << explained.ToString();
    ExpectNullKeptApart(explained.chased_q1);
  }
}

TEST(NullNames, UncachedChaseRejectsASuffixItCannotReserve) {
  const uint64_t before = Term::FreshCounterForTesting();
  Result<EquivalenceExplanation> explained =
      ExplainEquivalence(Q1Named("Z#9223372036854775808"), Q2(), NullSigma(),
                         Semantics::kSet, NullSchema());
  EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Term::FreshCounterForTesting(), before);
}

}  // namespace
}  // namespace sqleq
