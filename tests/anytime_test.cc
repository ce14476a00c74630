// Anytime-verdict and checkpoint/resume tests (docs/robustness.md): budget
// and deadline exhaustion yield kUnknown verdicts / partial results instead
// of errors through every entry point (EquivalenceEngine, C&B, rewriting),
// a budget-exhausted C&B returns a prefix-consistent subset of the
// unbudgeted output, resuming with a larger budget reproduces the unbudgeted
// result exactly, and the EscalatingBudget retry policy
// finishes interrupted runs.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase_cache.h"
#include "equivalence/engine.h"
#include "reformulation/candb.h"
#include "reformulation/views.h"
#include "test_util.h"
#include "util/fault.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Unwrap;

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

std::string Canon(const RewriteResult& r) {
  std::string out = "U=" + CanonicalQueryKey(r.universal_plan) + "\n";
  for (const ConjunctiveQuery& q : r.rewritings) {
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
/// chase takes five steps and small step budgets genuinely interrupt it.
/// (Example41Q1's own body already satisfies Σ and chases in zero steps.)
ConjunctiveQuery StepHungryP() { return Q("P(X) :- p(X, Y)."); }

/// A view set and target query whose rewrite sweep examines five candidates
/// (two of them rewritings), so a candidate cap of 2 interrupts it.
ViewSet RewriteViews() {
  ViewSet views;
  EXPECT_TRUE(views.Add(Q("v1(X, Y) :- p(X, Y).")).ok());
  EXPECT_TRUE(views.Add(Q("v2(X) :- r(X).")).ok());
  EXPECT_TRUE(views.Add(Q("v3(X, Z) :- s(X, Z).")).ok());
  EXPECT_TRUE(views.Add(Q("v4(X) :- p(X, Y), r(X).")).ok());
  return views;
}

ConjunctiveQuery RewriteTarget() { return Q("Q(X) :- p(X, Y), r(X), s(X, Z)."); }

/// An already-expired zero-window deadline — the portable way to force the
/// deadline path deterministically.
ResourceBudget ExpiredBudget() {
  return ResourceBudget::WithDeadlineIn(std::chrono::milliseconds(0));
}

// ---- ResourceBudget deadline boundary (the >= fix) and messages ----

TEST(DeadlineBoundary, ZeroWindowDeadlineIsExpiredImmediately) {
  // now >= deadline must already hold at the deadline instant itself; a
  // zero-width window may not race past the first check.
  ResourceBudget budget = ExpiredBudget();
  EXPECT_TRUE(budget.DeadlineExpired());
  Status s = budget.CheckDeadline("probe");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("deadline exceeded during probe"),
            std::string::npos)
      << s.ToString();
  // With a known origin the message reports elapsed-vs-budget timings.
  EXPECT_NE(s.message().find("ms budget"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("elapsed"), std::string::npos) << s.ToString();
}

TEST(DeadlineBoundary, UnsetDeadlineNeverExpires) {
  ResourceBudget budget;
  EXPECT_FALSE(budget.DeadlineExpired());
  EXPECT_TRUE(budget.CheckDeadline("probe").ok());
}

// ---- EscalatingBudget ----

TEST(EscalatingBudgetTest, ScalesLimitsGeometrically) {
  ResourceBudget base;
  base.max_chase_steps = 10;
  base.max_candidates = 20;
  EscalatingBudget policy;
  policy.growth = 2.0;
  ResourceBudget attempt0 = policy.Escalate(base, 0);
  EXPECT_EQ(attempt0.max_chase_steps, 10u);
  EXPECT_EQ(attempt0.max_candidates, 20u);
  ResourceBudget attempt3 = policy.Escalate(base, 3);
  EXPECT_EQ(attempt3.max_chase_steps, 80u);
  EXPECT_EQ(attempt3.max_candidates, 160u);
}

TEST(EscalatingBudgetTest, SaturatesInsteadOfOverflowing) {
  ResourceBudget base;
  base.max_chase_steps = std::numeric_limits<size_t>::max() / 2;
  EscalatingBudget policy;
  policy.growth = 8.0;
  ResourceBudget scaled = policy.Escalate(base, 5);
  EXPECT_EQ(scaled.max_chase_steps, std::numeric_limits<size_t>::max());
}

TEST(EscalatingBudgetTest, ReanchorsTheDeadlineWindow) {
  // A retry inheriting an already-expired deadline verbatim would be born
  // dead; Escalate re-anchors the (scaled) window at the attempt's start.
  ResourceBudget base =
      ResourceBudget::WithDeadlineIn(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(base.DeadlineExpired());
  EscalatingBudget policy;
  policy.growth = 2.0;
  ResourceBudget retry = policy.Escalate(base, 10);  // 5ms * 2^10 ≈ 5s window
  EXPECT_FALSE(retry.DeadlineExpired());

  EscalatingBudget per_attempt;
  per_attempt.deadline_per_attempt = std::chrono::milliseconds(60000);
  ResourceBudget no_deadline_base;
  ResourceBudget with_deadline = per_attempt.Escalate(no_deadline_base, 0);
  ASSERT_TRUE(with_deadline.deadline.has_value());
  EXPECT_FALSE(with_deadline.DeadlineExpired());
}

// ---- kUnknown through the EquivalenceEngine ----

TEST(AnytimeEngine, ExpiredDeadlineYieldsUnknownUnderAllSemantics) {
  EquivalenceEngine engine;
  ConjunctiveQuery q1 = Example41Q1();
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    EquivRequest request{sem, Example41Sigma(), Example41Schema()};
    request.context.budget = ExpiredBudget();
    EquivVerdict verdict =
        Unwrap(engine.Equivalent(q1, q1, request), "Equivalent");
    EXPECT_EQ(verdict.verdict, Verdict::kUnknown) << SemanticsToString(sem);
    ASSERT_TRUE(verdict.exhaustion.has_value()) << SemanticsToString(sem);
    EXPECT_EQ(verdict.exhaustion->limit, "deadline") << SemanticsToString(sem);

    // The legacy boolean contract resurfaces the exhaustion as a status.
    Result<bool> legacy = VerdictToBool(verdict);
    ASSERT_FALSE(legacy.ok());
    EXPECT_EQ(legacy.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(AnytimeEngine, StepBudgetYieldsUnknownWithResumableCheckpoint) {
  EquivalenceEngine engine;
  ConjunctiveQuery q1 = StepHungryP();
  EquivRequest small{Semantics::kSet, Example41Sigma(), Example41Schema()};
  small.context.budget.max_chase_steps = 2;
  EquivVerdict verdict = Unwrap(engine.Equivalent(q1, q1, small), "budgeted");
  ASSERT_EQ(verdict.verdict, Verdict::kUnknown);
  ASSERT_TRUE(verdict.exhaustion.has_value());
  EXPECT_EQ(verdict.exhaustion->limit, "max_chase_steps");
  ASSERT_TRUE(verdict.checkpoint.has_value());
  EXPECT_FALSE(verdict.checkpoint->subject.empty());

  // Resume under a roomy budget: the interrupted chase finishes and the
  // verdict is decided.
  EquivRequest roomy{Semantics::kSet, Example41Sigma(), Example41Schema()};
  roomy.resume = &*verdict.checkpoint;
  EquivVerdict resumed = Unwrap(engine.Equivalent(q1, q1, roomy), "resumed");
  EXPECT_EQ(resumed.verdict, Verdict::kEquivalent);
  EXPECT_TRUE(resumed.equivalent);
}

TEST(AnytimeEngine, RetryPolicyDecidesUnderAllSemantics) {
  EquivalenceEngine engine;
  ConjunctiveQuery q1 = Example41Q1();
  ConjunctiveQuery q2 = Q("Q1(X) :- p(X, Y), r(X).");
  EscalatingBudget policy;
  policy.growth = 4.0;
  policy.max_attempts = 5;
  for (Semantics sem : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
    EquivRequest request{sem, Example41Sigma(), Example41Schema()};
    request.context.budget.max_chase_steps = 1;
    EquivVerdict verdict = Unwrap(
        engine.EquivalentWithRetry(q1, q2, request, policy), "WithRetry");
    EXPECT_NE(verdict.verdict, Verdict::kUnknown) << SemanticsToString(sem);
    // Reference: the same question with no budget pressure.
    EquivRequest roomy{sem, Example41Sigma(), Example41Schema()};
    EquivVerdict want = Unwrap(engine.Equivalent(q1, q2, roomy), "reference");
    EXPECT_EQ(verdict.equivalent, want.equivalent) << SemanticsToString(sem);
  }
}

TEST(AnytimeEngine, ExhaustedRetriesStayUnknown) {
  EquivalenceEngine engine;
  ConjunctiveQuery q1 = StepHungryP();
  EquivRequest request{Semantics::kSet, Example41Sigma(), Example41Schema()};
  request.context.budget.max_chase_steps = 1;
  EscalatingBudget policy;
  policy.growth = 1.0;  // never escalates
  policy.max_attempts = 2;
  EquivVerdict verdict =
      Unwrap(engine.EquivalentWithRetry(q1, q1, request, policy), "WithRetry");
  EXPECT_EQ(verdict.verdict, Verdict::kUnknown);
  ASSERT_TRUE(verdict.exhaustion.has_value());
  EXPECT_EQ(verdict.exhaustion->limit, "max_chase_steps");
}

TEST(AnytimeEngine, CancelledVerdictConvertsToCancelledStatus) {
  EquivalenceEngine engine;
  ConjunctiveQuery q1 = Example41Q1();
  EquivRequest request{Semantics::kSet, Example41Sigma(), Example41Schema()};
  CancellationToken cancel;
  cancel.Cancel();
  request.context.cancel = &cancel;
  EquivVerdict verdict = Unwrap(engine.Equivalent(q1, q1, request), "cancelled");
  EXPECT_EQ(verdict.verdict, Verdict::kUnknown);
  ASSERT_TRUE(verdict.exhaustion.has_value());
  EXPECT_EQ(verdict.exhaustion->limit, "cancelled");
  Result<bool> legacy = VerdictToBool(verdict);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kCancelled);
}

TEST(AnytimeEngine, LegacyWrapperPropagatesExhaustionAsError) {
  ResourceBudget budget;
  budget.max_chase_steps = 1;
  Result<bool> legacy = testing::EngineEquivalent(
      StepHungryP(), StepHungryP(), Example41Sigma(), Semantics::kSet,
      Example41Schema(), budget);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kResourceExhausted);
}

// ---- Partial C&B results: prefix consistency and exact resume ----

TEST(AnytimeCandB, BudgetedRunReturnsPrefixOfUnbudgetedOutput) {
  CandBResult full = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema()),
      "unbudgeted");
  ASSERT_TRUE(full.complete);
  std::vector<std::string> want;
  for (const ConjunctiveQuery& q : full.reformulations) {
    want.push_back(CanonicalQueryKey(q));
  }
  for (size_t cap : {1u, 2u, 4u, 8u, 16u}) {
    CandBOptions options;
    options.context.budget.max_candidates = cap;
    CandBResult partial = Unwrap(
        ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                          Example41Schema(), options),
        "budgeted");
    if (partial.complete) continue;  // cap large enough to finish
    ASSERT_TRUE(partial.exhaustion.has_value());
    EXPECT_EQ(partial.exhaustion->limit, "max_candidates");
    EXPECT_LE(partial.candidates_examined, cap);
    ASSERT_TRUE(partial.checkpoint.has_value());
    ASSERT_LE(partial.reformulations.size(), want.size()) << "cap " << cap;
    for (size_t i = 0; i < partial.reformulations.size(); ++i) {
      EXPECT_EQ(CanonicalQueryKey(partial.reformulations[i]), want[i])
          << "cap " << cap << " reformulation " << i;
    }
  }
}

TEST(AnytimeCandB, ResumeWithLargerBudgetMatchesUnbudgeted) {
  std::string reference = Canon(Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema()),
      "unbudgeted"));
  CandBOptions budgeted;
  budgeted.context.budget.max_candidates = 3;
  CandBResult partial = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), budgeted),
      "budgeted");
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.checkpoint.has_value());

  CandBOptions resumed_options;
  resumed_options.resume = &*partial.checkpoint;
  CandBResult finished = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), resumed_options),
      "resumed");
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(Canon(finished), reference);
}

TEST(AnytimeCandB, ChainedEscalatingResumesConvergeToTheUnbudgetedResult) {
  // max_candidates caps the *cumulative* candidate count (checkpoints carry
  // budget_consumed), so each resume doubles the cap — the shape SET RETRY
  // produces. Every round advances the cut, and the final stitched result is
  // byte-identical to an uninterrupted run.
  CandBOptions clean;
  std::string reference = Canon(Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), clean),
      "unbudgeted"));
  CandBOptions options;
  options.context.budget.max_candidates = 2;
  CandBResult result = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), options),
      "round 0");
  int rounds = 0;
  CandBCheckpoint checkpoint;
  while (!result.complete) {
    ASSERT_TRUE(result.checkpoint.has_value());
    ASSERT_LT(rounds, 32) << "resume loop failed to make progress";
    checkpoint = *result.checkpoint;
    CandBOptions next;
    next.context.budget.max_candidates = size_t(2) << (rounds + 1);
    next.resume = &checkpoint;
    result = Unwrap(ChaseAndBackchase(Example41Q1(), Example41Sigma(),
                                      Semantics::kSet, Example41Schema(), next),
                    "resume round");
    ++rounds;
  }
  EXPECT_GT(rounds, 0);
  EXPECT_EQ(Canon(result), reference);
}

TEST(AnytimeCandB, DeadlineStopIsResumable) {
  CandBOptions clean;
  std::string reference = Canon(Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), clean),
      "unbudgeted"));
  CandBOptions expired;
  expired.context.budget = ExpiredBudget();
  CandBResult partial = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), expired),
      "expired");
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.exhaustion.has_value());
  EXPECT_EQ(partial.exhaustion->limit, "deadline");
  ASSERT_TRUE(partial.checkpoint.has_value());

  CandBOptions resumed_options;
  resumed_options.resume = &*partial.checkpoint;
  CandBResult finished = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), resumed_options),
      "resumed");
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(Canon(finished), reference);
}

TEST(AnytimeCandB, RetryPolicyFinishesAnInterruptedRun) {
  CandBOptions clean;
  std::string reference = Canon(Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), clean),
      "unbudgeted"));
  CandBOptions options;
  options.context.budget.max_candidates = 2;
  EscalatingBudget policy;
  policy.growth = 4.0;
  policy.max_attempts = 6;
  CandBResult result = Unwrap(
      ChaseAndBackchaseWithRetry(Example41Q1(), Example41Sigma(),
                                 Semantics::kSet, Example41Schema(), options,
                                 policy),
      "WithRetry");
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(Canon(result), reference);

  // A policy too stingy to finish still returns a usable partial result.
  EscalatingBudget stingy;
  stingy.growth = 1.0;
  stingy.max_attempts = 2;
  CandBResult partial = Unwrap(
      ChaseAndBackchaseWithRetry(Example41Q1(), Example41Sigma(),
                                 Semantics::kSet, Example41Schema(), options,
                                 stingy),
      "stingy WithRetry");
  EXPECT_FALSE(partial.complete);
  EXPECT_TRUE(partial.checkpoint.has_value());
}

TEST(AnytimeCandB, StepBudgetedChasePhaseEchoesInputAndResumes) {
  CandBOptions options;
  options.context.budget.max_chase_steps = 2;
  CandBResult partial = Unwrap(
      ChaseAndBackchase(StepHungryP(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), options),
      "step-budgeted");
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.exhaustion.has_value());
  EXPECT_EQ(partial.exhaustion->limit, "max_chase_steps");
  // The plan does not exist yet; the result echoes the input query.
  EXPECT_EQ(CanonicalQueryKey(partial.universal_plan),
            CanonicalQueryKey(StepHungryP()));
  EXPECT_TRUE(partial.reformulations.empty());
  ASSERT_TRUE(partial.checkpoint.has_value());
  EXPECT_EQ(partial.checkpoint->phase, CandBCheckpoint::kChasePhase);

  CandBOptions resumed_options;
  resumed_options.resume = &*partial.checkpoint;
  CandBResult finished = Unwrap(
      ChaseAndBackchase(StepHungryP(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), resumed_options),
      "resumed");
  EXPECT_TRUE(finished.complete);
  CandBResult reference = Unwrap(
      ChaseAndBackchase(StepHungryP(), Example41Sigma(), Semantics::kSet,
                        Example41Schema()),
      "unbudgeted");
  EXPECT_EQ(Canon(finished), Canon(reference));
}

// ---- RewriteWithViews ----

TEST(AnytimeRewrite, BudgetExhaustionIsResumable) {
  ViewSet views = RewriteViews();
  ConjunctiveQuery q = RewriteTarget();

  RewriteOptions clean;
  RewriteResult full = Unwrap(
      RewriteWithViews(q, views, Example41Sigma(), Semantics::kSet,
                       Example41Schema(), clean),
      "unbudgeted");
  ASSERT_TRUE(full.complete);
  std::string reference = Canon(full);

  RewriteOptions budgeted;
  budgeted.context.budget.max_candidates = 2;
  RewriteResult partial = Unwrap(
      RewriteWithViews(q, views, Example41Sigma(), Semantics::kSet,
                       Example41Schema(), budgeted),
      "budgeted");
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.exhaustion.has_value());
  EXPECT_EQ(partial.exhaustion->limit, "max_candidates");
  ASSERT_TRUE(partial.checkpoint.has_value());
  // Prefix consistency against the full run.
  ASSERT_LE(partial.rewritings.size(), full.rewritings.size());
  for (size_t i = 0; i < partial.rewritings.size(); ++i) {
    EXPECT_EQ(CanonicalQueryKey(partial.rewritings[i]),
              CanonicalQueryKey(full.rewritings[i]));
  }

  RewriteOptions resumed_options;
  resumed_options.resume = &*partial.checkpoint;
  RewriteResult finished = Unwrap(
      RewriteWithViews(q, views, Example41Sigma(), Semantics::kSet,
                       Example41Schema(), resumed_options),
      "resumed");
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(Canon(finished), reference);
}

TEST(AnytimeRewrite, ResumeWithLargerBudgetMatchesUnbudgeted) {
  ViewSet views = RewriteViews();
  ConjunctiveQuery q = RewriteTarget();
  std::string reference = Canon(Unwrap(
      RewriteWithViews(q, views, Example41Sigma(), Semantics::kSet, Example41Schema()),
      "unbudgeted"));
  RewriteOptions budgeted;
  budgeted.context.budget.max_candidates = 2;
  RewriteResult partial = Unwrap(
      RewriteWithViews(q, views, Example41Sigma(), Semantics::kSet,
                       Example41Schema(), budgeted),
      "budgeted");
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.checkpoint.has_value());
  RewriteOptions resumed_options;
  resumed_options.resume = &*partial.checkpoint;
  RewriteResult finished = Unwrap(
      RewriteWithViews(q, views, Example41Sigma(), Semantics::kSet,
                       Example41Schema(), resumed_options),
      "resumed");
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(Canon(finished), reference);
}

TEST(AnytimeRewrite, RetryPolicyFinishesAnInterruptedRewrite) {
  ViewSet views = RewriteViews();
  ConjunctiveQuery q = RewriteTarget();
  RewriteOptions clean;
  std::string reference = Canon(Unwrap(
      RewriteWithViews(q, views, Example41Sigma(), Semantics::kSet,
                       Example41Schema(), clean),
      "unbudgeted"));
  RewriteOptions options;
  options.context.budget.max_candidates = 2;
  EscalatingBudget policy;
  policy.growth = 4.0;
  policy.max_attempts = 6;
  RewriteResult result = Unwrap(
      RewriteWithViewsWithRetry(q, views, Example41Sigma(), Semantics::kSet,
                                Example41Schema(), options, policy),
      "WithRetry");
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(Canon(result), reference);
}

}  // namespace
}  // namespace sqleq
