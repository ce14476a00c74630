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
//
// The loop itself is delta-driven (docs/compiled_chase.md): it skips clean
// dependencies, matches dirty ones from a watermark, and extends its index
// in place. The second half of the suite compares it step for step with a
// reference loop that re-reads the whole query and rescans Σ from
// dependency 0 on every step through the oracle finders, resumes it from a
// checkpoint taken at every step, and checks the watermark finders against
// the unrestricted ones on every visited state.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chase/assignment_fixing.h"
#include "chase/chase_internal.h"
#include "chase/chase_plan.h"
#include "chase/chase_step.h"
#include "chase/checkpoint.h"
#include "chase/flat_db.h"
#include "chase/homomorphism.h"
#include "chase/set_chase.h"
#include "chase/sigma_plan.h"
#include "chase/sound_chase.h"
#include "constraints/weak_acyclicity.h"
#include "equivalence/engine.h"
#include "equivalence/isomorphism.h"
#include "ir/term.h"
#include "util/fault.h"
#include "util/telemetry.h"
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

/// The per-run step budget: a random Σ need not terminate.
constexpr size_t kMaxSteps = 64;

/// A runtime whose budget allows `max_steps` chase steps.
ChaseRuntime Steps(size_t max_steps = kMaxSteps) {
  ChaseRuntime runtime;
  runtime.budget.max_chase_steps = max_steps;
  return runtime;
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
/// B/BS chase over an unstratified Σ too — and the final result once the
/// chase completes. `run`
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
    ChaseRuntime runtime = Steps();
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
  }
  EXPECT_EQ(RenderTrace(a->result, a->trace), RenderTrace(b->result, b->trace))
      << context;
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
        [&](const ChaseRuntime& runtime) { return SetChase(q, sigma, runtime); });
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
      ChasePlan reference(sigma, sem, schema);
      std::vector<ConjunctiveQuery> states =
          VisitedStates([&](const ChaseRuntime& runtime) {
            return SoundChase(q, sigma, sem, schema, runtime);
          });
      ASSERT_FALSE(states.empty()) << context;
      for (const ConjunctiveQuery& state : states) {
        ExpectKernelsMatchOracle(reference.kernels(), reference.regularized(),
                                 state, context);
      }
      // The uninterrupted chase ends on the last visited state.
      Term::ResetFreshCounterForTesting();
      Result<ChaseOutcome> outcome = SoundChase(q, sigma, sem, schema, Steps());
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
      ChasePlan plan(sigma, sem, schema);
      EXPECT_GT(plan.stats().kernels.dependencies, 0u);
      Result<ChaseOutcome> via_plan = plan.Run(q, Steps());
      Term::ResetFreshCounterForTesting();
      Result<ChaseOutcome> via_free = SoundChase(q, sigma, sem, schema, Steps());
      ExpectIdenticalOutcome(via_plan, via_free,
                             std::string("plan vs free, ") + SemanticsToString(sem));
    }
  }
}

// ---- Paper Example 4.1, pinned explicitly ----------------------------

TEST(ChasePlanIdentity, Example41TraceIdenticalAcrossPaths) {
  ConjunctiveQuery q = Q("P(X) :- p(X, Y).");
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    ChasePlan reference(Example41Sigma(), sem, Example41Schema());
    std::vector<ConjunctiveQuery> states =
        VisitedStates([&](const ChaseRuntime& runtime) {
          return SoundChase(q, Example41Sigma(), sem, Example41Schema(), runtime);
        });
    // At least one step of the chase proper, then its result.
    EXPECT_GT(states.size(), 1u) << SemanticsToString(sem);
    for (const ConjunctiveQuery& state : states) {
      ExpectKernelsMatchOracle(reference.kernels(), reference.regularized(), state,
                               SemanticsToString(sem));
    }
    Term::ResetFreshCounterForTesting();
    Result<ChaseOutcome> outcome = reference.Run(q, Steps());
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->trace.empty());
  }
}

TEST(ChasePlanIdentity, RuntimeBudgetAloneBoundsTheRun) {
  // A plan holds no budget: the same plan runs to the end under a default
  // runtime and stops under a runtime whose step cap is too small.
  ConjunctiveQuery q = Q("P(X) :- p(X, Y).");
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    ChasePlan plan(Example41Sigma(), sem, Example41Schema());
    ASSERT_TRUE(plan.Run(q).ok()) << SemanticsToString(sem);
    ChaseRuntime capped;
    capped.budget.max_chase_steps = 1;
    Result<ChaseOutcome> stopped = plan.Run(q, capped);
    ASSERT_FALSE(stopped.ok()) << SemanticsToString(sem);
    EXPECT_EQ(stopped.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(stopped.status().message().find("max_chase_steps"), std::string::npos)
        << stopped.status().ToString();
    EXPECT_TRUE(plan.Run(q).ok()) << SemanticsToString(sem);
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
      Unwrap(SetChase(q, Example41Sigma(), Steps()), "uninterrupted");

  ChaseRuntime runtime = Steps(2);
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;
  Term::ResetFreshCounterForTesting();
  Result<ChaseOutcome> interrupted = SetChase(q, Example41Sigma(), runtime);
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
    ChaseRuntime resume_runtime = Steps();
    resume_runtime.resume = &resume_from;
    Result<ChaseOutcome> finished =
        SetChase(q, Example41Sigma(), resume_runtime);
    ExpectIdenticalOutcome(finished, full,
                           serialized ? "serialized resume" : "in-memory resume");
  }

  // One step per call, each resuming the previous call's checkpoint.
  Term::ResetFreshCounterForTesting(mark);
  ChaseCheckpoint carried = *checkpoint;
  Result<ChaseOutcome> stepped = Status::Internal("not run");
  for (int call = 0; call < 64; ++call) {
    ChaseRuntime step_runtime = Steps(carried.steps_done + 1);
    std::optional<ChaseCheckpoint> next;
    step_runtime.resume = &carried;
    step_runtime.checkpoint_out = &next;
    stepped = SetChase(q, Example41Sigma(), step_runtime);
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
                                        Example41Schema(), Steps()),
                             "uninterrupted");
  ChaseRuntime runtime = Steps(2);
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;
  Term::ResetFreshCounterForTesting();
  Result<ChaseOutcome> interrupted =
      SoundChase(q, Example41Sigma(), Semantics::kSet, Example41Schema(), runtime);
  uint64_t mark = Term::FreshCounterForTesting();
  ASSERT_FALSE(interrupted.ok());
  ASSERT_TRUE(checkpoint.has_value());
  // Round-trip through the text format, then resume through the plan.
  ChaseCheckpoint restored =
      Unwrap(ChaseCheckpoint::Deserialize(checkpoint->Serialize()), "restore");
  ChasePlan plan(Example41Sigma(), Semantics::kSet, Example41Schema());
  ChaseRuntime resume_runtime = Steps();
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
      Result<ChaseOutcome> full = SoundChase(q, sigma, sem, schema, Steps());

      Term::ResetFreshCounterForTesting();
      FaultInjector faults(7);
      faults.Arm(fault_sites::kChaseStep, spec);
      ChaseRuntime runtime = Steps();
      runtime.faults = &faults;
      std::optional<ChaseCheckpoint> checkpoint;
      runtime.checkpoint_out = &checkpoint;
      Result<ChaseOutcome> faulted = SoundChase(q, sigma, sem, schema, runtime);
      uint64_t mark = Term::FreshCounterForTesting();
      if (faulted.ok()) {
        // Finished before the fault's hit: nothing was interrupted.
        ExpectIdenticalOutcome(faulted, full, context);
        continue;
      }
      ASSERT_EQ(faulted.status().code(), StatusCode::kResourceExhausted) << context;
      ASSERT_TRUE(checkpoint.has_value()) << context;
      ChasePlan reference(sigma, sem, schema);
      ExpectKernelsMatchOracle(reference.kernels(), reference.regularized(),
                               checkpoint->state, context);
      // The captured resume state survives the text round trip and finishes
      // the chase exactly as the uninterrupted run did.
      ChaseCheckpoint restored =
          Unwrap(ChaseCheckpoint::Deserialize(checkpoint->Serialize()), "restore");
      EXPECT_EQ(restored.Serialize(), checkpoint->Serialize()) << context;
      ChaseRuntime resume_runtime = Steps();
      resume_runtime.resume = &restored;
      Term::ResetFreshCounterForTesting(mark);
      ExpectIdenticalOutcome(SoundChase(q, sigma, sem, schema, resume_runtime),
                             full, context + " resumed");
    }
  }
}

// ---- Delta-driven loop vs a rescan-everything reference ----------------

/// Set-valued r and s let bag-semantics tgd steps into them be admitted.
Schema DeltaSchema() {
  Schema s;
  s.Relation("p", 2).Relation("r", 1, /*set_valued=*/true);
  s.Relation("s", 2, /*set_valued=*/true).Relation("t", 3);
  return s;
}

/// Random Σ for the delta suites: tgd-only, or egd-heavy (about two egds
/// per tgd, so egd steps rewrite the conjunction between tgd steps).
DependencySet RandomDeltaSigma(bool egd_heavy, Rng* rng) {
  static const std::vector<std::string> tgds = {
      "p(X, Y) -> r(X).",
      "r(X) -> p(X, Z).",
      "p(X, Y), p(Y, Z) -> t(X, Y, Z).",
      "t(X, Y, Z) -> s(X, Z).",
      "s(X, Y) -> p(X, Y).",
      "t(X, X, Y) -> r(Y).",
      "r(X), s(X, Y) -> t(X, Y, W).",
      "p(X, X) -> r(X).",
  };
  static const std::vector<std::string> egds = {
      "s(X, Y), s(X, Z) -> Y = Z.",
      "p(X, Y), p(X, Z) -> Y = Z.",
      "t(X, Y, Z), t(X, Y, W) -> Z = W.",
      "p(X, Y), s(X, Z) -> Y = Z.",
      "t(X, Y, Z), r(Z) -> X = Y.",
  };
  std::vector<std::string> picked;
  size_t count = static_cast<size_t>(rng->UniformInt(2, 6));
  for (size_t i = 0; i < count; ++i) {
    bool egd = egd_heavy && rng->UniformInt(0, 2) > 0;
    const std::vector<std::string>& pool = egd ? egds : tgds;
    picked.push_back(pool[rng->Index(pool.size())]);
  }
  return Sigma(picked);
}

/// The chase loop as it ran before it was delta-driven, over the oracle
/// finders: every step re-reads the whole query and rescans Σ from
/// dependency 0 — the first applicable egd, else the first admitted tgd
/// step in Σ order. Admission is spelled out independently of the
/// production loop, down to the Def 4.3 test chase, which runs this loop
/// under S. `sigma` is the regularized Σ the plan chases.
class ReferenceChase {
 public:
  ReferenceChase(const DependencySet& sigma, const Schema& schema, size_t max_steps)
      : sigma_(sigma), schema_(schema), max_steps_(max_steps) {}

  /// The trace records only labels and kinds; `rendered` (optional)
  /// receives the query after each step as rendered when the step ran —
  /// what RenderTrace must rebuild from the production loop's deltas.
  Result<ChaseOutcome> Run(const ConjunctiveQuery& q, Semantics sem,
                           std::vector<std::string>* rendered = nullptr) const {
    // B/BS presuppose a terminating set chase (Thms 4.1/4.3); a stratified
    // Σ guarantees it for every input, so only an unstratified Σ probes.
    if (sem != Semantics::kSet && !CheckStratification(sigma_).stratified) {
      SQLEQ_RETURN_IF_ERROR(Run(q, Semantics::kSet).status());
    }
    std::vector<std::string> unused;
    if (rendered == nullptr) rendered = &unused;
    rendered->clear();
    auto normalize = [&](const ConjunctiveQuery& query) {
      return sem == Semantics::kBag ? NormalizeForBag(query, schema_)
                                    : query.CanonicalRepresentation();
    };
    ChaseOutcome out{normalize(q), {}, false};
    for (size_t step = 0; step < max_steps_; ++step) {
      bool applied = false;
      for (size_t di = 0; di < sigma_.size() && !applied; ++di) {
        const Dependency& dep = sigma_[di];
        if (!dep.IsEgd()) continue;
        std::optional<EgdApplication> app = FindEgdApplicationGeneric(out.result, dep.egd());
        if (!app.has_value()) continue;
        ChaseStepRecord record;
        record.dep_label = dep.label();
        if (app->failure) {
          out.failed = true;
          out.trace.push_back(record);
          rendered->push_back("FAIL: " + app->from.ToString() + " = " +
                              app->to.ToString());
          return out;
        }
        out.result = normalize(ApplyEgdStep(out.result, *app));
        out.trace.push_back(record);
        rendered->push_back(out.result.ToString());
        applied = true;
      }
      for (size_t di = 0; di < sigma_.size() && !applied; ++di) {
        const Dependency& dep = sigma_[di];
        if (!dep.IsTgd()) continue;
        for (const TermMap& h : FindApplicableTgdHomomorphismsGeneric(out.result, dep.tgd())) {
          SQLEQ_ASSIGN_OR_RETURN(std::vector<Atom> added,
                                 Admit(out.result, dep.tgd(), h, sem));
          if (added.empty()) continue;
          std::vector<Atom> body = out.result.body();
          body.insert(body.end(), added.begin(), added.end());
          out.result = out.result.WithBody(std::move(body));
          ChaseStepRecord record;
          record.dep_label = dep.label();
          record.is_tgd = true;
          out.trace.push_back(record);
          rendered->push_back(out.result.ToString());
          applied = true;
          break;
        }
      }
      if (!applied) return out;
    }
    return Status::ResourceExhausted("reference chase exceeded its step budget");
  }

 private:
  /// The atoms the step adds, or none when `sem` does not admit it: S
  /// admits every applicable step; B needs every added atom set valued and
  /// no duplicate of a bag-valued atom; B and BS need assignment-fixing.
  Result<std::vector<Atom>> Admit(const ConjunctiveQuery& q, const Tgd& tgd,
                                  const TermMap& h, Semantics sem) const {
    const bool bag = sem == Semantics::kBag;
    std::vector<Atom> added;
    for (const Atom& a : InstantiateTgdHead(tgd, h)) {
      bool present = std::find(q.body().begin(), q.body().end(), a) != q.body().end();
      if (present && bag && !schema_.IsSetValued(a.predicate())) return std::vector<Atom>();
      if (!present && std::find(added.begin(), added.end(), a) == added.end()) {
        added.push_back(a);
      }
    }
    if (added.empty() || sem == Semantics::kSet) return added;
    for (const Atom& a : added) {
      if (bag && !schema_.IsSetValued(a.predicate())) return std::vector<Atom>();
    }
    if (IsKeyBased(tgd, sigma_, schema_, /*require_set_valued=*/bag)) return added;
    SQLEQ_ASSIGN_OR_RETURN(bool fixing, AssignmentFixing(q, tgd, h));
    return fixing ? added : std::vector<Atom>();
  }

  /// Def 4.3: the set chase of Q^{σ,h,θ} keeps at most one variable of
  /// every existential pair (vacuously true when it fails).
  Result<bool> AssignmentFixing(const ConjunctiveQuery& q, const Tgd& tgd,
                                const TermMap& h) const {
    if (tgd.IsFull()) return true;
    AssociatedTestQuery test = BuildAssociatedTestQuery(q, tgd, h);
    SQLEQ_ASSIGN_OR_RETURN(ChaseOutcome chased, Run(test.query, Semantics::kSet));
    if (chased.failed) return true;
    std::unordered_set<Term, TermHash> vars;
    for (Term v : chased.result.BodyVariables()) vars.insert(v);
    for (const auto& [z, theta_z] : test.existential_pairs) {
      if (vars.count(z) > 0 && vars.count(theta_z) > 0) return false;
    }
    return true;
  }

  const DependencySet& sigma_;
  const Schema& schema_;
  size_t max_steps_;
};

/// ExpectIdenticalOutcome against the reference, whose budget message
/// differs from the production one (stopped runs compare by code only) and
/// whose trace is the queries it rendered as it ran (`rendered`), which
/// RenderTrace must rebuild from the production deltas byte for byte.
void ExpectSameAsReference(const Result<ChaseOutcome>& got,
                           const Result<ChaseOutcome>& reference,
                           const std::vector<std::string>& rendered,
                           const std::string& context) {
  if (!reference.ok()) {
    ASSERT_FALSE(got.ok()) << context;
    EXPECT_EQ(got.status().code(), reference.status().code()) << context;
    return;
  }
  ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
  EXPECT_EQ(got->failed, reference->failed) << context;
  EXPECT_EQ(got->result.ToString(), reference->result.ToString()) << context;
  ASSERT_EQ(got->trace.size(), reference->trace.size()) << context;
  for (size_t i = 0; i < got->trace.size(); ++i) {
    EXPECT_EQ(got->trace[i].dep_label, reference->trace[i].dep_label)
        << context << " step " << i;
    EXPECT_EQ(got->trace[i].is_tgd, reference->trace[i].is_tgd)
        << context << " step " << i;
  }
  EXPECT_EQ(RenderTrace(got->result, got->trace), rendered) << context;
}

/// On `state`, for every dependency and every watermark w at which the
/// dependency is satisfied on the first w atoms (the precondition the loop
/// keeps), the delta finders return exactly what the unrestricted ones do:
/// the same applicable homomorphisms in the same order, so the same first
/// applicable or admitted h, and the same egd application.
void ExpectWatermarkFindersAgree(const SigmaPlan& plan, const DependencySet& sigma,
                                 const ConjunctiveQuery& state,
                                 const std::string& context) {
  FlatConjunction flat(state.body());
  const std::vector<Atom>& body = state.body();
  for (size_t di = 0; di < sigma.size(); ++di) {
    const Dependency& dep = sigma[di];
    std::vector<std::string> unrestricted;
    if (dep.IsTgd()) {
      plan.ForEachApplicableTgdHomomorphism(di, flat, [&](const TermMap& h) {
        unrestricted.push_back(Render(h));
        return true;
      });
    }
    for (size_t w = 1; w <= body.size(); ++w) {
      ConjunctiveQuery prefix =
          state.WithBody(std::vector<Atom>(body.begin(), body.begin() + w));
      std::string where = context + " " + dep.ToString() + " on " + state.ToString() +
                          " from " + std::to_string(w);
      const uint32_t from = static_cast<uint32_t>(w);
      if (dep.IsEgd()) {
        if (FindEgdApplicationGeneric(prefix, dep.egd()).has_value()) continue;
        EXPECT_EQ(Render(plan.FindEgdApplication(di, flat, from)),
                  Render(plan.FindEgdApplication(di, flat)))
            << where;
        continue;
      }
      if (!FindApplicableTgdHomomorphismsGeneric(prefix, dep.tgd()).empty()) continue;
      std::vector<std::string> delta;
      plan.ForEachApplicableTgdHomomorphism(
          di, flat,
          [&](const TermMap& h) {
            delta.push_back(Render(h));
            return true;
          },
          from);
      EXPECT_EQ(delta, unrestricted) << where;
    }
  }
}

TEST_P(SeededTest, DeltaLoopMatchesReferenceStepForStep) {
  Rng rng(GetParam() + 500);
  Schema schema = DeltaSchema();
  for (int round = 0; round < 12; ++round) {
    const bool egd_heavy = round % 2 == 1;
    ConjunctiveQuery q = RandomQuery(schema, rng.UniformInt(1, 5), 4, &rng);
    DependencySet sigma = RandomDeltaSigma(egd_heavy, &rng);
    for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      std::string context = std::string(SemanticsToString(sem)) + " " + q.ToString() +
                            " under " + SigmaToString(sigma);
      ChasePlan plan(sigma, sem, schema);
      ReferenceChase reference(plan.regularized(), schema, kMaxSteps);
      Term::ResetFreshCounterForTesting();
      std::vector<std::string> rendered;
      Result<ChaseOutcome> expected = reference.Run(q, sem, &rendered);
      Term::ResetFreshCounterForTesting();
      ExpectSameAsReference(plan.RunFull(q, Steps()), expected, rendered,
                            context + " full");
      Term::ResetFreshCounterForTesting();
      ExpectSameAsReference(plan.Run(q, Steps()), expected, rendered,
                            context + " sliced");
    }
  }
}

TEST_P(SeededTest, DeltaLoopResumesFromEveryStep) {
  Rng rng(GetParam() + 600);
  Schema schema = DeltaSchema();
  for (int round = 0; round < 6; ++round) {
    ConjunctiveQuery q = RandomQuery(schema, rng.UniformInt(2, 5), 4, &rng);
    DependencySet sigma = RandomDeltaSigma(/*egd_heavy=*/round % 2 == 1, &rng);
    for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      std::string context = std::string(SemanticsToString(sem)) + " " + q.ToString() +
                            " under " + SigmaToString(sigma);
      ChasePlan plan(sigma, sem, schema);
      Term::ResetFreshCounterForTesting();
      Result<ChaseOutcome> full = plan.Run(q, Steps());
      // A checkpoint after every step (n-th chase.step probe, the B/BS
      // termination probe's included when Σ is not stratified), resumed
      // from its serialized text.
      for (uint64_t n = 1; n <= 512; ++n) {
        Term::ResetFreshCounterForTesting();
        FaultInjector faults(7);
        FaultSpec spec;
        spec.kind = FaultKind::kExhausted;
        spec.start = n;
        faults.Arm(fault_sites::kChaseStep, spec);
        ChaseRuntime runtime = Steps();
        runtime.faults = &faults;
        std::optional<ChaseCheckpoint> checkpoint;
        runtime.checkpoint_out = &checkpoint;
        Result<ChaseOutcome> faulted = plan.Run(q, runtime);
        uint64_t mark = Term::FreshCounterForTesting();
        if (faulted.ok() || faults.FiredCount(fault_sites::kChaseStep) == 0) break;
        ASSERT_TRUE(checkpoint.has_value()) << context << " step " << n;
        ChaseCheckpoint restored =
            Unwrap(ChaseCheckpoint::Deserialize(checkpoint->Serialize()), "restore");
        ChaseRuntime resume_runtime = Steps();
        resume_runtime.resume = &restored;
        Term::ResetFreshCounterForTesting(mark);
        ExpectIdenticalOutcome(plan.Run(q, resume_runtime), full,
                               context + " resumed at step " + std::to_string(n));
      }
    }
  }
}

TEST_P(SeededTest, WatermarkFindersAgreeOnVisitedStates) {
  Rng rng(GetParam() + 700);
  Schema schema = DeltaSchema();
  for (int round = 0; round < 6; ++round) {
    ConjunctiveQuery q = RandomQuery(schema, rng.UniformInt(1, 4), 4, &rng);
    DependencySet sigma = RandomDeltaSigma(/*egd_heavy=*/round % 2 == 1, &rng);
    for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      std::string context = std::string(SemanticsToString(sem)) + " " + q.ToString() +
                            " under " + SigmaToString(sigma);
      ChasePlan plan(sigma, sem, schema);
      std::vector<ConjunctiveQuery> states = VisitedStates(
          [&](const ChaseRuntime& runtime) { return plan.RunFull(q, runtime); });
      ASSERT_FALSE(states.empty()) << context;
      for (const ConjunctiveQuery& state : states) {
        ExpectWatermarkFindersAgree(plan.kernels(), plan.regularized(), state, context);
      }
    }
  }
}

TEST_P(SeededTest, DeltaMatchKeepsExactlyHomomorphismsThroughNewAtoms) {
  // MatchPattern with a watermark w emits exactly the homomorphisms that
  // map some pattern atom onto an atom at position >= w, on an index grown
  // by Append (posting lists extended in place after earlier probes) as on
  // one built whole.
  Rng rng(GetParam() + 800);
  Schema schema = PropSchema();
  for (int round = 0; round < 30; ++round) {
    ConjunctiveQuery from = RandomQuery(schema, rng.UniformInt(1, 3), 3, &rng);
    ConjunctiveQuery to = RandomQuery(schema, rng.UniformInt(1, 6), 4, &rng);
    const std::vector<Atom>& atoms = to.body();
    const size_t w = rng.Index(atoms.size() + 1);
    std::string where = from.ToString() + " into " + to.ToString() + " from " +
                        std::to_string(w);
    CompiledPattern pattern(from.body());
    auto enumerate = [&](const FlatConjunction& flat, uint32_t delta_from) {
      std::vector<std::string> out;
      MatchPattern(
          pattern, flat, TermMap(),
          [&](const TermMap& h) {
            out.push_back(Render(h));
            return true;
          },
          delta_from);
      return out;
    };
    FlatConjunction built(atoms);
    FlatConjunction grown(std::span<const Atom>(atoms.data(), w));
    enumerate(grown, 0);  // index the prefix's probed columns first
    for (size_t i = w; i < atoms.size(); ++i) grown.Append(atoms[i]);
    EXPECT_EQ(enumerate(grown, 0), enumerate(built, 0)) << where;

    std::set<std::string> expected;
    ForEachHomomorphismGeneric(from.body(), atoms, TermMap(), [&](const TermMap& h) {
      for (const Atom& a : from.body()) {
        if (std::find(atoms.begin() + static_cast<std::ptrdiff_t>(w), atoms.end(),
                      ApplyTermMap(h, a)) != atoms.end()) {
          expected.insert(Render(h));
          break;
        }
      }
      return true;
    });
    std::vector<std::string> delta = enumerate(grown, static_cast<uint32_t>(w));
    std::set<std::string> delta_set(delta.begin(), delta.end());
    EXPECT_EQ(delta_set.size(), delta.size()) << where;
    EXPECT_EQ(delta_set, expected) << where;
  }
}

TEST(ChaseDelta, EgdMergeReopensCleanDependencies) {
  // p(X, X) -> r(X) is checked and clean before the tgd into s makes the
  // key egd on s applicable; the merge of A and B then yields a p(X, X)
  // atom among atoms the earlier check had already seen, so the dependency
  // must be matched from scratch again, not from its old watermark.
  ConjunctiveQuery q = Q("Q(A) :- p(A, B), s(A, A).");
  DependencySet sigma = Sigma(
      {"s(X, Y), s(X, Z) -> Y = Z.", "p(X, X) -> r(X).", "p(X, Y) -> s(X, Y)."});
  Schema schema = DeltaSchema();
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    ChasePlan plan(sigma, sem, schema);
    ReferenceChase reference(plan.regularized(), schema, kMaxSteps);
    Term::ResetFreshCounterForTesting();
    std::vector<std::string> rendered;
    Result<ChaseOutcome> expected = reference.Run(q, sem, &rendered);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(expected->trace.size(), 3u) << SemanticsToString(sem);
    EXPECT_NE(expected->result.ToString().find("r("), std::string::npos)
        << expected->result.ToString();
    Term::ResetFreshCounterForTesting();
    ExpectSameAsReference(plan.RunFull(q, Steps()), expected, rendered,
                          SemanticsToString(sem));
  }
}

TEST(ChaseDelta, CountsSkippedCleanChecksAndRebuilds) {
  // A chain under a tgd-only Σ: one index build for the whole run, and
  // most dependency checks skipped as clean.
  DependencySet sigma = Sigma({"e(X, Y) -> n(X).", "n(X) -> m(X).", "m(X) -> k(X)."});
  MetricsRegistry metrics;
  ChaseRuntime runtime = Steps();
  runtime.metrics = &metrics;
  ChaseOutcome out = Unwrap(SetChase(testing::ChainQuery(6), sigma, runtime));
  EXPECT_EQ(out.trace.size(), 18u);
  EXPECT_EQ(metrics.counter(metric::kChaseRebuilds).value(), 1u);
  EXPECT_GT(metrics.counter(metric::kChaseChecksSkippedClean).value(),
            metrics.counter(metric::kChaseChecksSatisfied).value());

  // An egd step re-indexes: one build up front plus one per merge.
  MetricsRegistry egd_metrics;
  runtime.metrics = &egd_metrics;
  ChaseOutcome merged = Unwrap(SetChase(Q("Q(X) :- p(X, Y), p(X, Z), p(X, W)."),
                                        Sigma({"p(X, Y), p(X, Z) -> Y = Z."}),
                                        runtime));
  EXPECT_EQ(merged.trace.size(), 2u);
  EXPECT_EQ(egd_metrics.counter(metric::kChaseRebuilds).value(), 3u);
}

// ---- The B/BS set-chase probe ----------------------------------------

/// plan.RunFull(q, runtime) with the set-chase probe forced on (as for a Σ
/// without a termination certificate) or off.
Result<ChaseOutcome> RunWithProbe(const ChasePlan& plan, const ConjunctiveQuery& q,
                                  bool probe, const ChaseRuntime& runtime = Steps()) {
  return chase_internal::RunChase(q, plan.regularized(), plan.kernels(),
                                  plan.semantics(), plan.schema(), runtime,
                                  /*sigma_terminates=*/!probe);
}

/// The verdict ChasedEquivalent reaches on two outcomes, failure included.
bool Verdict(const ChaseOutcome& c1, const ChaseOutcome& c2, Semantics sem,
             const Schema& schema) {
  if (c1.failed || c2.failed) return c1.failed == c2.failed;
  return ChasedEquivalent(c1.result, c2.result, sem, schema);
}

/// A Σ whose position graph has the special cycle (r,0) =>* (p,1) -> (t,2)
/// -> (r,0) through a firing cycle, so it is not stratified; the chase of
/// Q(X) :- r(X) still ends after two set-chase steps.
DependencySet UnstratifiedSigma() {
  return Sigma({"r(X) -> p(X, Z).", "p(X, Y) -> s(X, Y).",
                "p(X, Y), p(Y, Z) -> t(X, Y, Z).", "t(X, X, Y) -> r(Y)."});
}

TEST_P(SeededTest, ProbeSkipKeepsOutcomesAndVerdictsOnWeaklyAcyclicSigma) {
  Rng rng(GetParam() + 900);
  Schema schema = DeltaSchema();
  size_t compared = 0;
  for (int round = 0; round < 16; ++round) {
    DependencySet sigma = RandomDeltaSigma(/*egd_heavy=*/round % 2 == 1, &rng);
    ConjunctiveQuery q1 = RandomQuery(schema, rng.UniformInt(1, 4), 4, &rng);
    ConjunctiveQuery q2 = RandomQuery(schema, rng.UniformInt(1, 4), 4, &rng);
    for (Semantics sem : {Semantics::kBag, Semantics::kBagSet}) {
      ChasePlan plan(sigma, sem, schema);
      if (!IsWeaklyAcyclic(plan.regularized())) continue;
      ASSERT_TRUE(plan.sigma_terminates());
      std::string context = std::string(SemanticsToString(sem)) + " under " +
                            SigmaToString(sigma);
      std::vector<ChaseOutcome> probed, unprobed;
      for (const ConjunctiveQuery& q : {q1, q2}) {
        Result<ChaseOutcome> on = RunWithProbe(plan, q, /*probe=*/true);
        Result<ChaseOutcome> off = RunWithProbe(plan, q, /*probe=*/false);
        ASSERT_TRUE(on.ok()) << context << " " << on.status().ToString();
        ASSERT_TRUE(off.ok()) << context << " " << off.status().ToString();
        EXPECT_EQ(on->failed, off->failed) << context;
        EXPECT_TRUE(AreIsomorphic(on->result, off->result))
            << context << ": " << on->result.ToString() << " vs "
            << off->result.ToString();
        ASSERT_EQ(on->trace.size(), off->trace.size()) << context;
        for (size_t i = 0; i < on->trace.size(); ++i) {
          EXPECT_EQ(on->trace[i].dep_label, off->trace[i].dep_label) << context;
        }
        probed.push_back(std::move(on).value());
        unprobed.push_back(std::move(off).value());
      }
      EXPECT_EQ(Verdict(probed[0], probed[1], sem, schema),
                Verdict(unprobed[0], unprobed[1], sem, schema))
          << context;
      ++compared;
    }
  }
  EXPECT_GT(compared, 4u);
}

/// The Appendix H family (Example H.1/H.2) for `m` set-valued relations.
struct AppendixH {
  Schema schema;
  DependencySet sigma;
};
AppendixH MakeAppendixH(int m) {
  AppendixH out;
  std::vector<std::string> deps;
  for (int i = 1; i <= m; ++i) {
    std::string pi = "p" + std::to_string(i);
    out.schema.Relation(pi, 2, /*set_valued=*/true);
    for (int j = i + 1; j <= m; ++j) {
      std::string pj = "p" + std::to_string(j);
      deps.push_back(pi + "(X, Y) -> " + pj + "(Z, X).");
      deps.push_back(pi + "(X, Y) -> " + pj + "(Y, W).");
    }
    deps.push_back(pi + "(X, Y), " + pi + "(X, Z) -> Y = Z.");
    deps.push_back(pi + "(Y, X), " + pi + "(Z, X) -> Y = Z.");
  }
  out.sigma = Sigma(deps);
  return out;
}

TEST(ChaseProbe, AppendixHBagChasesDoTheSetChaseWorkOnce) {
  // Σ is weakly acyclic, so B and BS skip the probe: their loops check and
  // index exactly as often as the set chase does (a probe would double both
  // counts).
  AppendixH family = MakeAppendixH(4);
  ConjunctiveQuery q = Q("Q(X, Y) :- p1(X, Y).");
  std::map<Semantics, std::pair<uint64_t, uint64_t>> counts;
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    MetricsRegistry metrics;
    ChaseRuntime runtime = Steps(100000);
    runtime.metrics = &metrics;
    ChaseOutcome out = Unwrap(SoundChase(q, family.sigma, sem, family.schema, runtime));
    EXPECT_FALSE(out.trace.empty());
    counts[sem] = {metrics.counter(metric::kChaseChecksSatisfied).value(),
                   metrics.counter(metric::kChaseRebuilds).value()};
  }
  EXPECT_GT(counts[Semantics::kSet].first, 0u);
  EXPECT_EQ(counts[Semantics::kBag], counts[Semantics::kSet]);
  EXPECT_EQ(counts[Semantics::kBagSet], counts[Semantics::kSet]);
}

TEST(ChaseProbe, UnstratifiedSigmaStillProbes) {
  Schema schema = DeltaSchema();
  ConjunctiveQuery q = Q("Q(X) :- r(X).");
  for (Semantics sem : {Semantics::kBag, Semantics::kBagSet}) {
    ChasePlan plan(UnstratifiedSigma(), sem, schema);
    EXPECT_FALSE(plan.sigma_terminates());
    // Run() does what the forced probe does, down to the loop counters.
    MetricsRegistry via_run, via_probe;
    ChaseRuntime runtime = Steps();
    runtime.metrics = &via_run;
    Term::ResetFreshCounterForTesting();
    Result<ChaseOutcome> run = plan.RunFull(q, runtime);
    runtime.metrics = &via_probe;
    Term::ResetFreshCounterForTesting();
    ExpectIdenticalOutcome(run, RunWithProbe(plan, q, /*probe=*/true, runtime),
                           SemanticsToString(sem));
    EXPECT_EQ(via_run.counter(metric::kChaseRebuilds).value(),
              via_probe.counter(metric::kChaseRebuilds).value());
    EXPECT_EQ(via_run.counter(metric::kChaseRebuilds).value(), 2u);  // probe + chase
    // The first step boundary of the run lies inside the probe.
    FaultInjector faults(7);
    faults.Arm(fault_sites::kChaseStep, {FaultKind::kExhausted, 1, 0, {}, 1.0});
    ChaseRuntime faulted = Steps();
    faulted.faults = &faults;
    std::optional<ChaseCheckpoint> checkpoint;
    faulted.checkpoint_out = &checkpoint;
    ASSERT_FALSE(plan.Run(q, faulted).ok());
    ASSERT_TRUE(checkpoint.has_value());
    EXPECT_EQ(checkpoint->phase, ChaseCheckpoint::kSetChaseProbePhase);
  }
}

TEST(ChaseProbe, CertifiedSigmaStartsWithTheSoundChase) {
  ConjunctiveQuery q = Q("P(X) :- p(X, Y).");
  for (Semantics sem : {Semantics::kBag, Semantics::kBagSet}) {
    ChasePlan plan(Example41Sigma(), sem, Example41Schema());
    EXPECT_TRUE(plan.sigma_terminates());
    FaultInjector faults(7);
    faults.Arm(fault_sites::kChaseStep, {FaultKind::kExhausted, 1, 0, {}, 1.0});
    ChaseRuntime runtime = Steps();
    runtime.faults = &faults;
    std::optional<ChaseCheckpoint> checkpoint;
    runtime.checkpoint_out = &checkpoint;
    ASSERT_FALSE(plan.Run(q, runtime).ok());
    ASSERT_TRUE(checkpoint.has_value());
    EXPECT_EQ(checkpoint->phase, ChaseCheckpoint::kSoundChasePhase);
    EXPECT_EQ(checkpoint->steps_done, 0u);
  }
}

TEST(ChaseProbe, ConcurrentFirstBagChasesShareOneFreshPlan) {
  // The termination bit is computed on the first B run; racing first runs
  // on one fresh plan must agree (and be race-free under the tsan preset).
  AppendixH family = MakeAppendixH(4);
  ConjunctiveQuery q = Q("Q(X, Y) :- p1(X, Y).");
  ChaseOutcome reference =
      Unwrap(SoundChase(q, family.sigma, Semantics::kBag, family.schema, Steps(1000)));
  for (int trial = 0; trial < 3; ++trial) {
    ChasePlan plan(family.sigma, Semantics::kBag, family.schema);
    constexpr int kThreads = 4;
    std::vector<Result<ChaseOutcome>> results(kThreads, Status::Internal("not run"));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { results[t] = plan.Run(q, Steps(1000)); });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_TRUE(plan.sigma_terminates());
    for (const Result<ChaseOutcome>& result : results) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->trace.size(), reference.trace.size());
      EXPECT_TRUE(AreIsomorphic(result->result, reference.result));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace sqleq
