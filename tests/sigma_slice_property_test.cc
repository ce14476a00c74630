// Randomized conservativity suite for query-aware Σ-slicing
// (analysis/sigma_graph.h): ChasePlan::Run, which chases only the query's
// Σ-slice, must be STEP-FOR-STEP identical to ChasePlan::RunFull, which
// chases the whole regularized Σ — same trace records, same final query,
// same failed flag, same statuses, same checkpoints — under all three
// semantics, through ChasePlan and the free SoundChase, under fault
// injection, and through whole C&B runs. The slice only removes dependencies that can never fire, so
// every observable of the run must be untouched; these are equality
// assertions in the chase_plan_property_test style, not up-to-isomorphism
// ones. The dependency pool deliberately mixes the connected p/r/s/t
// dependencies with dependencies over the disconnected u/v/w relations, so
// random Σs routinely contain prunable dependencies.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sigma_graph.h"
#include "chase/chase_plan.h"
#include "chase/checkpoint.h"
#include "chase/set_chase.h"
#include "chase/sound_chase.h"
#include "equivalence/engine.h"
#include "reformulation/candb.h"
#include "ir/term.h"
#include "util/fault.h"
#include "util/telemetry.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Q;
using testing::RandomQuery;
using testing::Sigma;

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

/// Relations the random queries range over.
Schema QuerySchema() {
  Schema s;
  s.Relation("p", 2).Relation("r", 1).Relation("s", 2).Relation("t", 3);
  return s;
}

/// The chase schema additionally declares the disconnected u/v/w island the
/// irrelevant dependencies live on.
Schema FullSchema() {
  Schema s = QuerySchema();
  s.Relation("u", 2).Relation("v", 1).Relation("w", 2);
  return s;
}

/// Dependencies reachable from p/r/s/t query bodies (the
/// chase_plan_property_test pool: existentials, multi-atom bodies, egds).
const std::vector<std::string>& ConnectedPool() {
  static const std::vector<std::string> pool = {
      "p(X, Y) -> r(X).",
      "r(X) -> p(X, Z).",
      "p(X, Y), p(Y, Z) -> t(X, Y, Z).",
      "t(X, Y, Z) -> s(X, Z).",
      "s(X, Y) -> p(X, Y).",
      "t(X, X, Y) -> r(Y).",
      "s(X, Y), s(X, Z) -> Y = Z.",
      "p(X, Y), p(X, Z) -> Y = Z.",
  };
  return pool;
}

/// Dependencies over the u/v/w island: no query over QuerySchema can ever
/// fire them, so the slicer must prune every one of them.
const std::vector<std::string>& IrrelevantPool() {
  static const std::vector<std::string> pool = {
      "u(X, Y) -> v(X).",
      "v(X) -> u(X, Z).",
      "u(X, Y), u(Y, Z) -> w(X, Z).",
      "w(X, Y) -> v(Y).",
      "u(X, Y), u(X, Z) -> Y = Z.",
  };
  return pool;
}

/// 1–4 connected plus 0–3 irrelevant dependencies, shuffled together so
/// slice indices interleave. `connected_only`, when non-null, receives the
/// same Σ without the irrelevant dependencies.
DependencySet RandomSigma(Rng* rng, DependencySet* connected_only = nullptr) {
  std::vector<std::string> picked;
  size_t connected = static_cast<size_t>(rng->UniformInt(1, 4));
  for (size_t i = 0; i < connected; ++i) {
    picked.push_back(ConnectedPool()[rng->Index(ConnectedPool().size())]);
  }
  if (connected_only != nullptr) *connected_only = Sigma(picked);
  size_t irrelevant = static_cast<size_t>(rng->UniformInt(0, 3));
  for (size_t i = 0; i < irrelevant; ++i) {
    size_t at = static_cast<size_t>(rng->Index(picked.size() + 1));
    picked.insert(picked.begin() + at,
                  IrrelevantPool()[rng->Index(IrrelevantPool().size())]);
  }
  return Sigma(picked);
}

/// The per-run step budget: a random Σ need not terminate.
constexpr size_t kMaxSteps = 64;

/// A runtime whose budget allows `max_steps` chase steps.
ChaseRuntime Steps(size_t max_steps = kMaxSteps) {
  ChaseRuntime runtime;
  runtime.budget.max_chase_steps = max_steps;
  return runtime;
}

/// The conservativity assertion: both runs succeeded with byte-identical
/// traces and results, or both stopped with the same status.
void ExpectIdenticalOutcome(const Result<ChaseOutcome>& sliced,
                            const Result<ChaseOutcome>& full,
                            const std::string& context) {
  ASSERT_EQ(sliced.ok(), full.ok()) << context;
  if (!sliced.ok()) {
    EXPECT_EQ(sliced.status().code(), full.status().code()) << context;
    EXPECT_EQ(sliced.status().message(), full.status().message()) << context;
    return;
  }
  EXPECT_EQ(sliced->failed, full->failed) << context;
  EXPECT_EQ(sliced->result.ToString(), full->result.ToString()) << context;
  ASSERT_EQ(sliced->trace.size(), full->trace.size()) << context;
  for (size_t i = 0; i < sliced->trace.size(); ++i) {
    EXPECT_EQ(sliced->trace[i].dep_label, full->trace[i].dep_label)
        << context << " step " << i;
    EXPECT_EQ(sliced->trace[i].is_tgd, full->trace[i].is_tgd)
        << context << " step " << i;
  }
  EXPECT_EQ(RenderTrace(sliced->result, sliced->trace),
            RenderTrace(full->result, full->trace))
      << context;
}

// ---- Free SoundChase, all semantics ----------------------------------

TEST_P(SeededTest, SoundChaseSlicedMatchesFullUnderAllSemantics) {
  Rng rng(GetParam() + 100);
  Schema query_schema = QuerySchema();
  Schema schema = FullSchema();
  for (int round = 0; round < 8; ++round) {
    ConjunctiveQuery q = RandomQuery(query_schema, rng.UniformInt(1, 4), 4, &rng);
    DependencySet sigma = RandomSigma(&rng);
    for (Semantics sem :
         {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      Term::ResetFreshCounterForTesting();
      Result<ChaseOutcome> sliced = SoundChase(q, sigma, sem, schema, Steps());
      Term::ResetFreshCounterForTesting();
      Result<ChaseOutcome> full = ChasePlan(sigma, sem, schema).RunFull(q, Steps());
      ExpectIdenticalOutcome(sliced, full,
                             std::string(SemanticsToString(sem)) + " " +
                                 q.ToString() + " under " + SigmaToString(sigma));
    }
  }
}

// ---- ChasePlan: the slicing path the engines actually take ------------

TEST_P(SeededTest, ChasePlanSlicedMatchesFull) {
  Rng rng(GetParam() + 200);
  Schema query_schema = QuerySchema();
  Schema schema = FullSchema();
  for (int round = 0; round < 6; ++round) {
    ConjunctiveQuery q = RandomQuery(query_schema, rng.UniformInt(1, 4), 4, &rng);
    DependencySet sigma = RandomSigma(&rng);
    for (Semantics sem :
         {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      Term::ResetFreshCounterForTesting();
      ChasePlan sliced_plan(sigma, sem, schema);
      Result<ChaseOutcome> sliced = sliced_plan.Run(q, Steps());
      Term::ResetFreshCounterForTesting();
      ChasePlan full_plan(sigma, sem, schema);
      Result<ChaseOutcome> full = full_plan.RunFull(q, Steps());
      ExpectIdenticalOutcome(sliced, full,
                             std::string("plan ") + SemanticsToString(sem) +
                                 " " + q.ToString() + " under " +
                                 SigmaToString(sigma));
    }
  }
}

// ---- Fault injection: identical anytime behavior ----------------------

TEST_P(SeededTest, InjectedFaultsStopSlicedAndFullIdentically) {
  Rng rng(GetParam() + 300);
  Schema query_schema = QuerySchema();
  Schema schema = FullSchema();
  for (int round = 0; round < 6; ++round) {
    ConjunctiveQuery q = RandomQuery(query_schema, rng.UniformInt(2, 4), 4, &rng);
    DependencySet sigma = RandomSigma(&rng);
    FaultSpec spec;
    spec.kind = FaultKind::kExhausted;
    spec.start = static_cast<uint64_t>(rng.UniformInt(1, 4));

    for (Semantics sem :
         {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      auto run = [&](bool sliced) -> std::pair<Result<ChaseOutcome>, std::string> {
        Term::ResetFreshCounterForTesting();
        ChasePlan plan(sigma, sem, schema);
        FaultInjector faults(7);  // fresh injector per run: same schedule
        faults.Arm(fault_sites::kChaseStep, spec);
        ChaseRuntime runtime = Steps();
        runtime.faults = &faults;
        std::optional<ChaseCheckpoint> checkpoint;
        runtime.checkpoint_out = &checkpoint;
        Result<ChaseOutcome> outcome =
            sliced ? plan.Run(q, runtime) : plan.RunFull(q, runtime);
        std::string serialized =
            checkpoint.has_value() ? checkpoint->Serialize() : "";
        return {std::move(outcome), std::move(serialized)};
      };
      auto [sliced, sliced_cp] = run(true);
      auto [full, full_cp] = run(false);
      ExpectIdenticalOutcome(sliced, full,
                             std::string("faulted ") + SemanticsToString(sem) + " " +
                                 q.ToString() + " under " + SigmaToString(sigma));
      // The slice never fires, checks, or renames anything the full run
      // would not: the captured resume state is byte-identical too.
      EXPECT_EQ(sliced_cp, full_cp);
    }
  }
}

// ---- C&B end-to-end: the pinned envelope slice is conservative --------
//
// ChaseAndBackchase pins the universal plan's slice for every backchase
// candidate (a sub-conjunction of U, so U's slice is sound for it). The
// whole pipeline — universal plan, confirmed reformulations, candidate
// accounting — must be identical to a run over Σ with the irrelevant
// dependencies removed outright, and every reformulation must be
// equivalent to the query by the unsliced chase (RunFull).
TEST_P(SeededTest, CandBPinnedEnvelopeMatchesFull) {
  Rng rng(GetParam() + 400);
  Schema query_schema = QuerySchema();
  Schema schema = FullSchema();
  for (int round = 0; round < 4; ++round) {
    ConjunctiveQuery q = RandomQuery(query_schema, rng.UniformInt(1, 3), 4, &rng);
    DependencySet connected;
    DependencySet sigma = RandomSigma(&rng, &connected);
    for (Semantics sem :
         {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      auto run = [&](const DependencySet& deps) -> Result<CandBResult> {
        Term::ResetFreshCounterForTesting();
        CandBOptions options;
        return ChaseAndBackchase(q, deps, sem, schema, options);
      };
      Result<CandBResult> sliced = run(sigma);
      Result<CandBResult> full = run(connected);
      std::string context = std::string("candb ") + SemanticsToString(sem) +
                            " " + q.ToString() + " under " +
                            SigmaToString(sigma);
      ASSERT_EQ(sliced.ok(), full.ok()) << context;
      if (!sliced.ok()) {
        EXPECT_EQ(sliced.status().code(), full.status().code()) << context;
        continue;
      }
      EXPECT_EQ(sliced->universal_plan.ToString(),
                full->universal_plan.ToString())
          << context;
      ASSERT_EQ(sliced->reformulations.size(), full->reformulations.size())
          << context;
      for (size_t i = 0; i < sliced->reformulations.size(); ++i) {
        EXPECT_EQ(sliced->reformulations[i].ToString(),
                  full->reformulations[i].ToString())
            << context << " reformulation " << i;
      }
      EXPECT_EQ(sliced->candidates_examined, full->candidates_examined)
          << context;

      ChasePlan reference(sigma, sem, schema);
      Result<ChaseOutcome> chased_q = reference.RunFull(q, Steps());
      if (!chased_q.ok() || chased_q->failed) continue;
      for (const ConjunctiveQuery& r : sliced->reformulations) {
        Result<ChaseOutcome> chased_r = reference.RunFull(r, Steps());
        ASSERT_TRUE(chased_r.ok()) << context << " " << r.ToString();
        EXPECT_TRUE(
            ChasedEquivalent(chased_q->result, chased_r->result, sem, schema))
            << context << " reformulation " << r.ToString();
      }
    }
  }
}

// ---- The suite is not vacuous: slices really prune --------------------

TEST(SigmaSlicePinned, IrrelevantDependenciesArePrunedAndCounted) {
  DependencySet sigma = Sigma({
      "p(X, Y) -> r(X).",
      "u(X, Y) -> v(X).",
      "v(X) -> u(X, Z).",
  });
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");

  // Static view: the slicer names exactly the u/v dependencies.
  SigmaGraph graph = SigmaGraph::Build(sigma, FullSchema());
  SigmaSlice slice = graph.SliceFor(q.body());
  ASSERT_EQ(slice.kept.size(), 1u);
  EXPECT_EQ(slice.kept[0], 0u);
  ASSERT_EQ(slice.pruned.size(), 2u);

  // Dynamic view: ChasePlan::Run takes the sliced path and reports the
  // slice.kept / slice.pruned counters.
  ChasePlan plan(sigma, Semantics::kSet, FullSchema());
  MetricsRegistry metrics;
  ChaseRuntime runtime = Steps();
  runtime.metrics = &metrics;
  Term::ResetFreshCounterForTesting();
  Result<ChaseOutcome> sliced = plan.Run(q, runtime);
  ASSERT_TRUE(sliced.ok());

  uint64_t kept = 0, pruned = 0;
  for (const auto& [name, value] : metrics.Snapshot().counters) {
    if (name == metric::kSliceKept) kept = value;
    if (name == metric::kSlicePruned) pruned = value;
  }
  EXPECT_EQ(kept, 1u);
  EXPECT_EQ(pruned, 2u);

  // And the verdict still matches the full chase.
  Term::ResetFreshCounterForTesting();
  Result<ChaseOutcome> full = plan.RunFull(q, Steps());
  ExpectIdenticalOutcome(sliced, full, "pinned prune");
}

TEST(SigmaSlicePinned, SliceSignatureKeysDistinctChaseMemoEntries) {
  // Two queries with different slices over the same plan must produce
  // different memo-key suffixes; SliceFor is also memoized per body shape,
  // so asking twice is cheap and deterministic.
  DependencySet sigma = Sigma({
      "p(X, Y) -> r(X).",
      "u(X, Y) -> v(X).",
  });
  ChasePlan plan(sigma, Semantics::kSet, FullSchema());
  SigmaSlice for_p = plan.SliceFor(Q("Q(X) :- p(X, Y)."));
  SigmaSlice for_u = plan.SliceFor(Q("Q(X) :- u(X, Y)."));
  SigmaSlice for_p_again = plan.SliceFor(Q("Q2(A) :- p(A, B)."));
  EXPECT_NE(for_p.Signature(), for_u.Signature());
  EXPECT_EQ(for_p.Signature(), for_p_again.Signature());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace sqleq
