// Deterministic fault-injection suite (docs/robustness.md): every named
// site — chase.step, backchase.candidate, memo.insert — is driven through
// real engine calls with a fixed seed, injected stops surface as
// checkpointed partial results (never errors), schedules replay identically
// run over run, and cooperative cancellation stops the same loops. Labeled
// `fault` and `tsan`.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "chase/chase_cache.h"
#include "chase/set_chase.h"
#include "reformulation/candb.h"
#include "reformulation/views.h"
#include "test_util.h"
#include "util/fault.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Sigma;
using testing::Unwrap;

/// Canonical serialization of a CandBResult: insensitive to the
/// process-global fresh-variable counter, exact on reformulation order and
/// statistics.
std::string Canon(const CandBResult& r) {
  std::string out = "U=" + CanonicalQueryKey(r.universal_plan) + "\n";
  for (const ConjunctiveQuery& q : r.reformulations) {
    out += "R=" + CanonicalQueryKey(q) + "\n";
  }
  out += "examined=" + std::to_string(r.candidates_examined);
  out += " hits=" + std::to_string(r.chase_cache_hits);
  out += " misses=" + std::to_string(r.chase_cache_misses);
  return out;
}

ConjunctiveQuery Example41Q1() {
  return Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
}

/// The single-atom projection of Example 4.1: σ1–σ4 all fire on it, so its
/// chase takes five steps and the chase.step site probes on every one of
/// them. (Example41Q1's own body already satisfies Σ and chases in zero
/// steps — its chase.step site probes exactly once.)
ConjunctiveQuery StepHungryP() { return Q("P(X) :- p(X, Y)."); }

// ---- FaultInjector unit behavior ----

TEST(FaultInjector, UnarmedSitesCountButNeverFire) {
  FaultInjector faults(7);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(faults.Hit(fault_sites::kChaseStep).ok());
  }
  EXPECT_EQ(faults.HitCount(fault_sites::kChaseStep), 5u);
  EXPECT_EQ(faults.FiredCount(fault_sites::kChaseStep), 0u);
  EXPECT_EQ(faults.HitCount(fault_sites::kMemoInsert), 0u);
}

TEST(FaultInjector, StartAndPeriodSelectHits) {
  FaultInjector faults(7);
  FaultSpec spec;
  spec.kind = FaultKind::kExhausted;
  spec.start = 2;
  spec.period = 3;  // hits 2, 5, 8, ...
  faults.Arm(fault_sites::kChaseStep, spec);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(!faults.Hit(fault_sites::kChaseStep).ok());
  }
  std::vector<bool> want = {false, true, false, false, true,
                            false, false, true, false};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(faults.FiredCount(fault_sites::kChaseStep), 3u);
}

TEST(FaultInjector, PeriodZeroFiresExactlyOnce) {
  FaultInjector faults(7);
  FaultSpec spec;
  spec.start = 3;
  faults.Arm(fault_sites::kMemoInsert, spec);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (!faults.Hit(fault_sites::kMemoInsert).ok()) ++fired;
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(faults.FiredCount(fault_sites::kMemoInsert), 1u);
}

TEST(FaultInjector, ExhaustedFaultNamesSiteAndHit) {
  FaultInjector faults(7);
  faults.Arm(fault_sites::kBackchaseCandidate, FaultSpec{});
  Status s = faults.Hit(fault_sites::kBackchaseCandidate);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("injected"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find(fault_sites::kBackchaseCandidate),
            std::string::npos)
      << s.ToString();
}

TEST(FaultInjector, BadAllocSurfacesAsInternal) {
  FaultInjector faults(7);
  FaultSpec spec;
  spec.kind = FaultKind::kBadAlloc;
  faults.Arm(fault_sites::kMemoInsert, spec);
  Status s = faults.Hit(fault_sites::kMemoInsert);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find(fault_sites::kMemoInsert), std::string::npos)
      << s.ToString();
}

TEST(FaultInjector, DelayFaultReturnsOk) {
  FaultInjector faults(7);
  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.delay = std::chrono::microseconds(100);
  spec.period = 1;
  faults.Arm(fault_sites::kChaseStep, spec);
  EXPECT_TRUE(faults.Hit(fault_sites::kChaseStep).ok());
  EXPECT_EQ(faults.FiredCount(fault_sites::kChaseStep), 1u);
}

TEST(FaultInjector, ProbabilisticFiringIsSeedDeterministic) {
  FaultSpec spec;
  spec.start = 1;
  spec.period = 1;
  spec.probability = 0.5;
  FaultInjector a(42), b(42);
  a.Arm(fault_sites::kMemoInsert, spec);
  b.Arm(fault_sites::kMemoInsert, spec);
  std::vector<bool> fired_a, fired_b;
  for (int i = 0; i < 200; ++i) {
    fired_a.push_back(!a.Hit(fault_sites::kMemoInsert).ok());
    fired_b.push_back(!b.Hit(fault_sites::kMemoInsert).ok());
  }
  EXPECT_EQ(fired_a, fired_b);
  // The hash should neither always fire nor never fire over 200 eligible
  // hits at p = 0.5.
  EXPECT_GT(a.FiredCount(fault_sites::kMemoInsert), 0u);
  EXPECT_LT(a.FiredCount(fault_sites::kMemoInsert), 200u);
}

TEST(FaultInjector, DisarmStopsInjectionResetCountersRestartsSchedule) {
  FaultInjector faults(7);
  faults.Arm(fault_sites::kChaseStep, FaultSpec{});
  EXPECT_FALSE(faults.Hit(fault_sites::kChaseStep).ok());
  faults.Disarm(fault_sites::kChaseStep);
  EXPECT_TRUE(faults.Hit(fault_sites::kChaseStep).ok());
  EXPECT_EQ(faults.HitCount(fault_sites::kChaseStep), 2u);

  // Re-arming preserves counters: start=1 already passed, so no new firing.
  faults.Arm(fault_sites::kChaseStep, FaultSpec{});
  EXPECT_TRUE(faults.Hit(fault_sites::kChaseStep).ok());
  // ResetCounters restarts the schedule: hit 1 fires again.
  faults.ResetCounters();
  EXPECT_FALSE(faults.Hit(fault_sites::kChaseStep).ok());
}

// ---- CancellationToken / ProbeSite ----

TEST(CancellationToken, ChecksOkUntilCancelled) {
  CancellationToken cancel;
  EXPECT_FALSE(cancel.cancelled());
  EXPECT_TRUE(cancel.Check(fault_sites::kChaseStep).ok());
  cancel.Cancel();
  EXPECT_TRUE(cancel.cancelled());
  Status s = cancel.Check(fault_sites::kChaseStep);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find(fault_sites::kChaseStep), std::string::npos);
  cancel.Reset();
  EXPECT_TRUE(cancel.Check(fault_sites::kChaseStep).ok());
}

TEST(ProbeSite, NullPointersAreInert) {
  EXPECT_TRUE(ProbeSite(nullptr, nullptr, fault_sites::kMemoInsert).ok());
}

TEST(ProbeSite, CancellationBeatsInjectedFault) {
  FaultInjector faults(7);
  faults.Arm(fault_sites::kChaseStep, FaultSpec{});
  CancellationToken cancel;
  cancel.Cancel();
  Status s = ProbeSite(&faults, &cancel, fault_sites::kChaseStep);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

// ---- Named sites driven through real engine calls ----

TEST(FaultSites, ChaseStepFiresInsideSetChase) {
  FaultInjector faults(7);
  FaultSpec spec;
  spec.start = 2;  // let one step fire, trip on the second
  faults.Arm(fault_sites::kChaseStep, spec);
  ChaseRuntime runtime;
  runtime.faults = &faults;
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;
  Result<ChaseOutcome> chased =
      SetChase(StepHungryP(), Example41Sigma(), runtime);
  ASSERT_FALSE(chased.ok());
  EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(chased.status().message().find("injected"), std::string::npos);
  EXPECT_GE(faults.FiredCount(fault_sites::kChaseStep), 1u);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->phase, ChaseCheckpoint::kSetChasePhase);
}

TEST(FaultSites, ChaseStepFaultYieldsChasePhaseCheckpointInCandB) {
  CandBOptions options;
  FaultInjector faults(7);
  FaultSpec spec;
  spec.start = 2;
  faults.Arm(fault_sites::kChaseStep, spec);
  options.context.faults = &faults;
  CandBResult partial = Unwrap(ChaseAndBackchase(
      StepHungryP(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      options));
  EXPECT_FALSE(partial.complete);
  ASSERT_TRUE(partial.exhaustion.has_value());
  EXPECT_EQ(partial.exhaustion->limit, "fault");
  ASSERT_TRUE(partial.checkpoint.has_value());
  EXPECT_EQ(partial.checkpoint->phase, CandBCheckpoint::kChasePhase);
  EXPECT_GE(faults.FiredCount(fault_sites::kChaseStep), 1u);
}

TEST(FaultSites, BackchaseCandidateFaultYieldsBackchaseCheckpoint) {
  CandBOptions options;
  FaultInjector faults(7);
  FaultSpec spec;
  spec.start = 3;
  faults.Arm(fault_sites::kBackchaseCandidate, spec);
  options.context.faults = &faults;
  CandBResult partial = Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      options));
  EXPECT_FALSE(partial.complete);
  ASSERT_TRUE(partial.exhaustion.has_value());
  EXPECT_EQ(partial.exhaustion->limit, "fault");
  ASSERT_TRUE(partial.checkpoint.has_value());
  EXPECT_EQ(partial.checkpoint->phase, CandBCheckpoint::kBackchasePhase);
  EXPECT_GE(faults.FiredCount(fault_sites::kBackchaseCandidate), 1u);
}

TEST(FaultSites, MemoInsertFaultStopsTheSweep) {
  CandBOptions options;
  FaultInjector faults(7);
  FaultSpec spec;
  spec.start = 2;  // survive the universal plan's insert, trip a candidate's
  faults.Arm(fault_sites::kMemoInsert, spec);
  options.context.faults = &faults;
  CandBResult partial = Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      options));
  EXPECT_FALSE(partial.complete);
  ASSERT_TRUE(partial.exhaustion.has_value());
  EXPECT_EQ(partial.exhaustion->limit, "fault");
  EXPECT_GE(faults.FiredCount(fault_sites::kMemoInsert), 1u);
}

TEST(FaultSites, MemoInsertSiteFiresInChaseMemo) {
  FaultInjector faults(7);
  faults.Arm(fault_sites::kMemoInsert, FaultSpec{});
  ChaseMemo memo(Example41Sigma(), Semantics::kSet, Example41Schema(), {});
  ChaseRuntime runtime;
  runtime.faults = &faults;
  Result<ChaseOutcome> chased = memo.Chase(Example41Q1(), runtime);
  ASSERT_FALSE(chased.ok());
  EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(faults.FiredCount(fault_sites::kMemoInsert), 1u);
  // Nothing was cached: a clean retry re-chases and succeeds.
  faults.Disarm(fault_sites::kMemoInsert);
  EXPECT_TRUE(memo.Chase(Example41Q1(), runtime).ok());
}

// ---- Determinism of faulted schedules ----

TEST(FaultDeterminism, IdenticalSeedsReplayIdenticalPartialResults) {
  auto run = [] {
    CandBOptions options;
    FaultInjector faults(123);
    FaultSpec spec;
    spec.start = 5;
    faults.Arm(fault_sites::kBackchaseCandidate, spec);
    options.context.faults = &faults;
    CandBResult partial = Unwrap(ChaseAndBackchase(
        Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
        options));
    EXPECT_FALSE(partial.complete);
    return Canon(partial) + "\n" + partial.exhaustion->ToString();
  };
  std::string first = run();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(run(), first) << "replay " << i;
  }
}

TEST(FaultDeterminism, DelayFaultsDoNotChangeParallelResults) {
  // Delays at every other candidate slow the sweep without changing any
  // verdict; the result must stay byte-identical to the clean run.
  std::string reference = Canon(Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema())));
  CandBOptions options;
  FaultInjector faults(99);
  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.delay = std::chrono::microseconds(200);
  spec.start = 1;
  spec.period = 2;
  faults.Arm(fault_sites::kBackchaseCandidate, spec);
  options.context.faults = &faults;
  std::string got = Canon(Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(), options)));
  EXPECT_EQ(got, reference);
  EXPECT_GE(faults.FiredCount(fault_sites::kBackchaseCandidate), 1u);
}

TEST(FaultDeterminism, ResumeAfterInjectedFaultMatchesCleanRun) {
  CandBOptions clean;
  std::string reference = Canon(Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      clean)));

  CandBOptions faulted;
  FaultInjector faults(7);
  FaultSpec spec;
  spec.start = 6;
  faults.Arm(fault_sites::kBackchaseCandidate, spec);
  faulted.context.faults = &faults;
  CandBResult partial = Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      faulted));
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.checkpoint.has_value());

  CandBOptions resumed;
  resumed.resume = &*partial.checkpoint;
  CandBResult finished = Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      resumed));
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(Canon(finished), reference);
}

// ---- Cancellation through the engine stack ----

TEST(Cancellation, PreCancelledTokenStopsCandBImmediately) {
  CandBOptions options;
  CancellationToken cancel;
  cancel.Cancel();
  options.context.cancel = &cancel;
  CandBResult partial = Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      options));
  EXPECT_FALSE(partial.complete);
  ASSERT_TRUE(partial.exhaustion.has_value());
  EXPECT_EQ(partial.exhaustion->limit, "cancelled");
  EXPECT_TRUE(partial.reformulations.empty());
  ASSERT_TRUE(partial.checkpoint.has_value());
}

TEST(Cancellation, ResumeAfterCancellationMatchesCleanRun) {
  CandBOptions clean;
  std::string reference = Canon(Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      clean)));

  CandBOptions cancelled_options;
  CancellationToken cancel;
  cancel.Cancel();
  cancelled_options.context.cancel = &cancel;
  CandBResult partial = Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      cancelled_options));
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.checkpoint.has_value());

  cancel.Reset();
  CandBOptions resumed;
  resumed.context.cancel = &cancel;
  resumed.resume = &*partial.checkpoint;
  CandBResult finished = Unwrap(ChaseAndBackchase(
      Example41Q1(), Example41Sigma(), Semantics::kSet, Example41Schema(),
      resumed));
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(Canon(finished), reference);
}

TEST(Cancellation, CancelledRewriteWithViewsReturnsPartial) {
  ViewSet views;
  ASSERT_TRUE(views.Add(Q("v1(X, Y) :- p(X, Y).")).ok());
  ASSERT_TRUE(views.Add(Q("v2(X) :- r(X).")).ok());
  RewriteOptions options;
  CancellationToken cancel;
  cancel.Cancel();
  options.context.cancel = &cancel;
  RewriteResult partial = Unwrap(RewriteWithViews(
      Q("Q(X) :- p(X, Y), r(X)."), views, Example41Sigma(), Semantics::kSet,
      Example41Schema(), options));
  EXPECT_FALSE(partial.complete);
  ASSERT_TRUE(partial.exhaustion.has_value());
  EXPECT_EQ(partial.exhaustion->limit, "cancelled");
}

}  // namespace
}  // namespace sqleq
