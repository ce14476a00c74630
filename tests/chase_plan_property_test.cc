// Randomized differential suite for the compiled chase core. The chase runs
// one matcher — the per-Σ SigmaPlan kernels over indexed flat storage — and
// this suite checks it against the original backtracking search, kept as
// the test oracle (matcher_oracle.h): on every state the chase visits, under
// all three semantics, under fault injection and through checkpoint/resume,
// every kernel must find the same homomorphisms in the same order as the
// oracle. The step loop is deterministic given that order, so this pins
// traces, fresh-variable names and checkpoints. Fresh variables draw from a
// process-global counter, so runs compared byte-for-byte rewind it
// (Term::ResetFreshCounterForTesting).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase_plan.h"
#include "chase/checkpoint.h"
#include "chase/flat_db.h"
#include "chase/homomorphism.h"
#include "chase/set_chase.h"
#include "chase/sigma_plan.h"
#include "chase/sound_chase.h"
#include "ir/term.h"
#include "util/fault.h"
#include "matcher_oracle.h"
#include "test_util.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::RandomQuery;
using testing::Sigma;
using testing::Unwrap;

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

Schema PropSchema() {
  Schema s;
  s.Relation("p", 2).Relation("r", 1).Relation("s", 2).Relation("t", 3);
  return s;
}

/// Dependency pool the random Σs draw from: tgds with and without
/// existentials, multi-atom bodies, and egds; every subset yields a
/// terminating chase on PropSchema queries.
const std::vector<std::string>& DependencyPool() {
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

DependencySet RandomSigma(Rng* rng) {
  const std::vector<std::string>& pool = DependencyPool();
  std::vector<std::string> picked;
  size_t count = static_cast<size_t>(rng->UniformInt(1, 5));
  for (size_t i = 0; i < count; ++i) {
    picked.push_back(pool[rng->Index(pool.size())]);
  }
  return Sigma(picked);
}

ChaseOptions Options(size_t max_steps = 64) {
  ChaseOptions options;
  options.budget.max_chase_steps = max_steps;
  return options;
}

/// Order-independent rendering of one homomorphism.
std::string Render(const TermMap& h) {
  std::vector<std::string> entries;
  for (const auto& [k, v] : h) entries.push_back(k.ToString() + "->" + v.ToString());
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (const std::string& e : entries) out += e + ";";
  return out;
}

std::string Render(const std::optional<EgdApplication>& app) {
  if (!app.has_value()) return "none";
  return Render(app->h) + " " + app->from.ToString() + ":=" + app->to.ToString() +
         (app->failure ? " FAIL" : "");
}

/// The differential assertion: on `state`, every kernel of `plan` (compiled
/// from `sigma`) finds exactly what the generic oracle finds, in the same
/// order.
void ExpectKernelsMatchOracle(const SigmaPlan& plan, const DependencySet& sigma,
                              const ConjunctiveQuery& state,
                              const std::string& context) {
  ASSERT_EQ(plan.size(), sigma.size()) << context;
  FlatConjunction flat(state.body());
  for (size_t di = 0; di < sigma.size(); ++di) {
    const Dependency& dep = sigma[di];
    std::string where = context + " " + dep.ToString() + " on " + state.ToString();
    if (dep.IsEgd()) {
      EXPECT_EQ(Render(plan.FindEgdApplication(di, flat)),
                Render(FindEgdApplicationGeneric(state, dep.egd())))
          << where;
      continue;
    }
    std::vector<std::string> compiled, generic;
    plan.ForEachApplicableTgdHomomorphism(di, flat, [&](const TermMap& h) {
      compiled.push_back(Render(h));
      return true;
    });
    for (const TermMap& h : FindApplicableTgdHomomorphismsGeneric(state, dep.tgd())) {
      generic.push_back(Render(h));
    }
    EXPECT_EQ(compiled, generic) << where;
    std::optional<TermMap> first = plan.FindApplicableTgdHomomorphism(di, flat);
    EXPECT_EQ(first.has_value() ? Render(*first) : "none",
              generic.empty() ? "none" : generic.front())
        << where;
  }
}

using ChaseRun = std::function<Result<ChaseOutcome>(const ChaseRuntime&)>;

/// Every state a chase passes through, in order: the state checkpointed at
/// each step boundary — a kExhausted fault injected at the n-th chase.step
/// probe, n = 1, 2, ..., which covers the set-chase precondition probe of a
/// B/BS chase too — and the final result once the chase completes. `run`
/// chases from scratch under the runtime it is given.
std::vector<ConjunctiveQuery> VisitedStates(const ChaseRun& run) {
  std::vector<ConjunctiveQuery> states;
  for (uint64_t n = 1; n <= 512; ++n) {
    Term::ResetFreshCounterForTesting();
    FaultInjector faults(7);
    FaultSpec spec;
    spec.kind = FaultKind::kExhausted;
    spec.start = n;
    faults.Arm(fault_sites::kChaseStep, spec);
    ChaseRuntime runtime;
    runtime.faults = &faults;
    std::optional<ChaseCheckpoint> checkpoint;
    runtime.checkpoint_out = &checkpoint;
    Result<ChaseOutcome> outcome = run(runtime);
    if (outcome.ok()) {
      states.push_back(outcome->result);
      break;
    }
    // Stopped by something other than the injected fault (the step budget):
    // the checkpoint holds the last state.
    bool injected = faults.FiredCount(fault_sites::kChaseStep) > 0;
    if (checkpoint.has_value()) states.push_back(checkpoint->state);
    if (!injected) break;
  }
  return states;
}

/// The identity assertion: both runs succeeded with byte-identical traces
/// and results, or both stopped with the same status.
void ExpectIdenticalOutcome(const Result<ChaseOutcome>& a,
                            const Result<ChaseOutcome>& b,
                            const std::string& context) {
  ASSERT_EQ(a.ok(), b.ok()) << context;
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << context;
    EXPECT_EQ(a.status().message(), b.status().message()) << context;
    return;
  }
  EXPECT_EQ(a->failed, b->failed) << context;
  EXPECT_EQ(a->result.ToString(), b->result.ToString()) << context;
  ASSERT_EQ(a->trace.size(), b->trace.size()) << context;
  for (size_t i = 0; i < a->trace.size(); ++i) {
    EXPECT_EQ(a->trace[i].dep_label, b->trace[i].dep_label) << context << " step " << i;
    EXPECT_EQ(a->trace[i].is_tgd, b->trace[i].is_tgd) << context << " step " << i;
    EXPECT_EQ(a->trace[i].result, b->trace[i].result) << context << " step " << i;
  }
}

// ---- Matcher-level enumeration order ---------------------------------

TEST_P(SeededTest, CompiledMatcherEnumeratesInGenericOrder) {
  Rng rng(GetParam());
  Schema schema = PropSchema();
  for (int round = 0; round < 20; ++round) {
    ConjunctiveQuery from = RandomQuery(schema, rng.UniformInt(1, 3), 3, &rng);
    ConjunctiveQuery to = RandomQuery(schema, rng.UniformInt(1, 5), 4, &rng);
    std::vector<std::string> compiled, generic;
    ForEachHomomorphism(from.body(), to.body(), TermMap(),
                        [&](const TermMap& h) {
                          compiled.push_back(Render(h));
                          return true;
                        });
    ForEachHomomorphismGeneric(from.body(), to.body(), TermMap(),
                               [&](const TermMap& h) {
                                 generic.push_back(Render(h));
                                 return true;
                               });
    // Same homomorphisms, in the same order — not just the same set.
    EXPECT_EQ(compiled, generic)
        << from.ToString() << " into " << to.ToString();
  }
}

// ---- Chase-level: kernels equal the oracle on every visited state ------

TEST_P(SeededTest, SetChaseCompiledMatchesGenericStepForStep) {
  Rng rng(GetParam() + 100);
  Schema schema = PropSchema();
  for (int round = 0; round < 15; ++round) {
    ConjunctiveQuery q = RandomQuery(schema, rng.UniformInt(1, 4), 4, &rng);
    DependencySet sigma = RandomSigma(&rng);
    std::string context = q.ToString() + " under " + SigmaToString(sigma);
    // SetChase chases the unregularized Σ on a per-call compile of it.
    SigmaPlan plan = SigmaPlan::Compile(sigma);
    std::vector<ConjunctiveQuery> states = VisitedStates(
        [&](const ChaseRuntime& runtime) { return SetChase(q, sigma, Options(), runtime); });
    ASSERT_FALSE(states.empty()) << context;
    for (const ConjunctiveQuery& state : states) {
      ExpectKernelsMatchOracle(plan, sigma, state, context);
    }
  }
}

TEST_P(SeededTest, SoundChaseVerdictIdenticalUnderAllSemantics) {
  Rng rng(GetParam() + 200);
  Schema schema = PropSchema();
  for (int round = 0; round < 8; ++round) {
    ConjunctiveQuery q = RandomQuery(schema, rng.UniformInt(1, 4), 4, &rng);
    DependencySet sigma = RandomSigma(&rng);
    for (Semantics sem :
         {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      std::string context = std::string(SemanticsToString(sem)) + " " +
                            q.ToString() + " under " + SigmaToString(sigma);
      ChasePlan reference(sigma, sem, schema, Options());
      std::vector<ConjunctiveQuery> states =
          VisitedStates([&](const ChaseRuntime& runtime) {
            return SoundChase(q, sigma, sem, schema, Options(), runtime);
          });
      ASSERT_FALSE(states.empty()) << context;
      for (const ConjunctiveQuery& state : states) {
        ExpectKernelsMatchOracle(reference.kernels(), reference.regularized(),
                                 state, context);
      }
      // The uninterrupted chase ends on the last visited state.
      Term::ResetFreshCounterForTesting();
      Result<ChaseOutcome> outcome = SoundChase(q, sigma, sem, schema, Options());
      if (outcome.ok()) {
        EXPECT_EQ(outcome->result.ToString(), states.back().ToString()) << context;
      }
    }
  }
}

TEST_P(SeededTest, ChasePlanRunMatchesFreeFunction) {
  Rng rng(GetParam() + 300);
  Schema schema = PropSchema();
  for (int round = 0; round < 8; ++round) {
    ConjunctiveQuery q = RandomQuery(schema, rng.UniformInt(1, 4), 4, &rng);
    DependencySet sigma = RandomSigma(&rng);
    for (Semantics sem :
         {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      // Reset before construction: plan construction regularizes Σ up
      // front, the free function does it per call, and both paths must see
      // the same counter state when they do.
      Term::ResetFreshCounterForTesting();
      ChasePlan plan(sigma, sem, schema, Options());
      EXPECT_GT(plan.stats().kernels.dependencies, 0u);
      Result<ChaseOutcome> via_plan = plan.Run(q);
      Term::ResetFreshCounterForTesting();
      Result<ChaseOutcome> via_free = SoundChase(q, sigma, sem, schema, Options());
      ExpectIdenticalOutcome(via_plan, via_free,
                             std::string("plan vs free, ") + SemanticsToString(sem));
    }
  }
}

// ---- Paper Example 4.1, pinned explicitly ----------------------------

TEST(ChasePlanIdentity, Example41TraceIdenticalAcrossPaths) {
  ConjunctiveQuery q = Q("P(X) :- p(X, Y).");
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    ChasePlan reference(Example41Sigma(), sem, Example41Schema(), Options());
    std::vector<ConjunctiveQuery> states =
        VisitedStates([&](const ChaseRuntime& runtime) {
          return SoundChase(q, Example41Sigma(), sem, Example41Schema(), Options(),
                            runtime);
        });
    // The probe plus at least one step of the chase proper.
    EXPECT_GT(states.size(), 1u) << SemanticsToString(sem);
    for (const ConjunctiveQuery& state : states) {
      ExpectKernelsMatchOracle(reference.kernels(), reference.regularized(), state,
                               SemanticsToString(sem));
    }
    Term::ResetFreshCounterForTesting();
    Result<ChaseOutcome> outcome = reference.Run(q);
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->trace.empty());
  }
}

// ---- Checkpoint/resume -----------------------------------------------

TEST(ChasePlanIdentity, CheckpointsInteroperateBetweenPaths) {
  // Interrupt the chase and resume it from the in-memory checkpoint, from
  // its serialized text, and one step at a time: every path finishes with
  // the uninterrupted result.
  ConjunctiveQuery q = Q("P(X) :- p(X, Y).");
  Term::ResetFreshCounterForTesting();
  ChaseOutcome full =
      Unwrap(SetChase(q, Example41Sigma(), Options()), "uninterrupted");

  ChaseRuntime runtime;
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;
  Term::ResetFreshCounterForTesting();
  Result<ChaseOutcome> interrupted = SetChase(q, Example41Sigma(), Options(2), runtime);
  // The interrupted prefix allocated exactly the fresh names the full run
  // did; replaying each resume from this mark makes the finished bodies
  // byte-identical to `full`.
  uint64_t mark = Term::FreshCounterForTesting();
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(checkpoint.has_value());

  for (bool serialized : {false, true}) {
    ChaseCheckpoint resume_from =
        serialized ? Unwrap(ChaseCheckpoint::Deserialize(checkpoint->Serialize()))
                   : *checkpoint;
    Term::ResetFreshCounterForTesting(mark);
    ChaseRuntime resume_runtime;
    resume_runtime.resume = &resume_from;
    Result<ChaseOutcome> finished =
        SetChase(q, Example41Sigma(), Options(), resume_runtime);
    ExpectIdenticalOutcome(finished, full,
                           serialized ? "serialized resume" : "in-memory resume");
  }

  // One step per call, each resuming the previous call's checkpoint.
  Term::ResetFreshCounterForTesting(mark);
  ChaseCheckpoint carried = *checkpoint;
  Result<ChaseOutcome> stepped = Status::Internal("not run");
  for (int call = 0; call < 64; ++call) {
    ChaseRuntime step_runtime;
    std::optional<ChaseCheckpoint> next;
    step_runtime.resume = &carried;
    step_runtime.checkpoint_out = &next;
    stepped = SetChase(q, Example41Sigma(), Options(carried.steps_done + 1),
                       step_runtime);
    if (stepped.ok()) break;
    ASSERT_TRUE(next.has_value());
    carried = *next;
  }
  ExpectIdenticalOutcome(stepped, full, "stepwise resume");
}

TEST(ChasePlanIdentity, SoundChaseCheckpointResumesThroughPlan) {
  ConjunctiveQuery q = Q("P(X) :- p(X, Y).");
  Term::ResetFreshCounterForTesting();
  ChaseOutcome full = Unwrap(SoundChase(q, Example41Sigma(), Semantics::kSet,
                                        Example41Schema(), Options()),
                             "uninterrupted");
  ChaseRuntime runtime;
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;
  Term::ResetFreshCounterForTesting();
  Result<ChaseOutcome> interrupted =
      SoundChase(q, Example41Sigma(), Semantics::kSet, Example41Schema(),
                 Options(2), runtime);
  uint64_t mark = Term::FreshCounterForTesting();
  ASSERT_FALSE(interrupted.ok());
  ASSERT_TRUE(checkpoint.has_value());
  // Round-trip through the text format, then resume through the plan.
  ChaseCheckpoint restored =
      Unwrap(ChaseCheckpoint::Deserialize(checkpoint->Serialize()), "restore");
  ChasePlan plan(Example41Sigma(), Semantics::kSet, Example41Schema(), Options());
  ChaseRuntime resume_runtime;
  resume_runtime.resume = &restored;
  Term::ResetFreshCounterForTesting(mark);
  ChaseOutcome finished = Unwrap(plan.Run(q, resume_runtime), "resume");
  EXPECT_EQ(finished.result.ToString(), full.result.ToString());
}

// ---- Fault injection: interrupted runs resume to the same result -------

TEST_P(SeededTest, InjectedFaultsStopBothPathsIdentically) {
  Rng rng(GetParam() + 400);
  Schema schema = PropSchema();
  for (int round = 0; round < 6; ++round) {
    ConjunctiveQuery q = RandomQuery(schema, rng.UniformInt(2, 4), 4, &rng);
    DependencySet sigma = RandomSigma(&rng);
    std::string context = "faulted " + q.ToString() + " under " + SigmaToString(sigma);
    FaultSpec spec;
    spec.kind = FaultKind::kExhausted;
    spec.start = static_cast<uint64_t>(rng.UniformInt(1, 4));
    for (Semantics sem :
         {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      Term::ResetFreshCounterForTesting();
      Result<ChaseOutcome> full = SoundChase(q, sigma, sem, schema, Options());

      Term::ResetFreshCounterForTesting();
      FaultInjector faults(7);
      faults.Arm(fault_sites::kChaseStep, spec);
      ChaseRuntime runtime;
      runtime.faults = &faults;
      std::optional<ChaseCheckpoint> checkpoint;
      runtime.checkpoint_out = &checkpoint;
      Result<ChaseOutcome> faulted = SoundChase(q, sigma, sem, schema, Options(), runtime);
      uint64_t mark = Term::FreshCounterForTesting();
      if (faulted.ok()) {
        // Finished before the fault's hit: nothing was interrupted.
        ExpectIdenticalOutcome(faulted, full, context);
        continue;
      }
      ASSERT_EQ(faulted.status().code(), StatusCode::kResourceExhausted) << context;
      ASSERT_TRUE(checkpoint.has_value()) << context;
      ChasePlan reference(sigma, sem, schema, Options());
      ExpectKernelsMatchOracle(reference.kernels(), reference.regularized(),
                               checkpoint->state, context);
      // The captured resume state survives the text round trip and finishes
      // the chase exactly as the uninterrupted run did.
      ChaseCheckpoint restored =
          Unwrap(ChaseCheckpoint::Deserialize(checkpoint->Serialize()), "restore");
      EXPECT_EQ(restored.Serialize(), checkpoint->Serialize()) << context;
      ChaseRuntime resume_runtime;
      resume_runtime.resume = &restored;
      Term::ResetFreshCounterForTesting(mark);
      ExpectIdenticalOutcome(SoundChase(q, sigma, sem, schema, Options(), resume_runtime),
                             full, context + " resumed");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace sqleq
