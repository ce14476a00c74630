// Checkpoint serialization tests (docs/robustness.md): ChaseCheckpoint,
// BackchaseCheckpoint, and CandBCheckpoint must round-trip byte-exactly
// through their text formats — including chase-introduced fresh variables
// ("v#7"), string constants with tabs/newlines/backslashes, and stamped
// subjects — and malformed inputs must be rejected with InvalidArgument, not
// crashes. A deserialized checkpoint must also actually *work*: resuming
// from it finishes the interrupted run exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase_cache.h"
#include "chase/chase_plan.h"
#include "chase/checkpoint.h"
#include "chase/set_chase.h"
#include "reformulation/candb.h"
#include "test_util.h"
#include "util/fault.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Unwrap;

ConjunctiveQuery Example41Q1() {
  return Q("Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U).");
}

/// The single-atom projection of Example 4.1: σ1–σ4 all fire on it, so its
/// chase takes five steps and small step budgets genuinely interrupt it.
/// (Example41Q1's own body already satisfies Σ and chases in zero steps.)
ConjunctiveQuery StepHungryP() { return Q("P(X) :- p(X, Y)."); }

/// Captures a real mid-chase checkpoint by running StepHungryP's chase under
/// a step budget too small to finish.
std::optional<ChaseCheckpoint> CaptureChaseCheckpoint(size_t max_steps) {
  ChaseOptions options;
  options.budget.max_chase_steps = max_steps;
  ChaseRuntime runtime;
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;
  Result<ChaseOutcome> chased =
      SetChase(StepHungryP(), Example41Sigma(), options, runtime);
  EXPECT_FALSE(chased.ok());
  if (chased.ok()) return std::nullopt;
  EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(checkpoint.has_value());
  return checkpoint;
}

// ---- Field / query serialization helpers ----

TEST(CheckpointFields, EscapeRoundTripsControlCharacters) {
  for (const std::string& s :
       {std::string(""), std::string("plain"), std::string("tab\there"),
        std::string("line\nbreak"), std::string("back\\slash"),
        std::string("\\n is not \n"), std::string("\t\n\\\t\n")}) {
    std::string escaped = EscapeField(s);
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << s;
    EXPECT_EQ(escaped.find('\t'), std::string::npos) << s;
    EXPECT_EQ(Unwrap(UnescapeField(escaped), "UnescapeField"), s);
  }
}

TEST(CheckpointFields, UnescapeRejectsDanglingEscape) {
  EXPECT_FALSE(UnescapeField("trailing\\").ok());
}

TEST(CheckpointFields, QueryRoundTripsFreshVariablesAndConstants) {
  // A query no parser would accept: chase-style fresh variables and mixed
  // constants, including a string constant with an embedded tab.
  Term fresh = Term::FreshVar("w");
  ConjunctiveQuery q = ConjunctiveQuery::Make(
      "Weird", {Term::Var("X"), fresh},
      {Atom("p", {Term::Var("X"), Term::Var("v#7")}),
       Atom("t", {Term::Int(-42), Term::Str("a\tb"), fresh})});
  ConjunctiveQuery back =
      Unwrap(DeserializeQuery(SerializeQuery(q)), "DeserializeQuery");
  EXPECT_EQ(back.ToString(), q.ToString());
  EXPECT_EQ(SerializeQuery(back), SerializeQuery(q));
}

TEST(CheckpointFields, QueryDeserializeRejectsGarbage) {
  EXPECT_FALSE(DeserializeQuery("").ok());
  EXPECT_FALSE(DeserializeQuery("not a query line").ok());
  EXPECT_FALSE(DeserializeQuery("Q\tV:X\tp\tQ:banana").ok());
}

TEST(CheckpointFields, StepRecordRoundTrips) {
  ChaseStepRecord tgd;
  tgd.dep_label = "sigma_1 (tgd)";
  tgd.is_tgd = true;
  tgd.added = {Atom("s", {Term::Var("X"), Term::Var("v#3")}),
               Atom("t", {Term::Int(-4), Term::Str("a\tb")})};
  ChaseStepRecord egd;
  egd.dep_label = "key\tp";
  egd.from = Term::Var("Y");
  egd.to = Term::Var("X");
  egd.before = Q("Q1(X) :- p(X, Y), p(X, X).");
  ChaseStepRecord fail;
  fail.dep_label = "sigma7";
  fail.from = Term::Int(1);
  fail.to = Term::Str("2");
  for (const ChaseStepRecord& record : {tgd, egd, fail}) {
    std::string line = SerializeStepRecord(record);
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    ChaseStepRecord back = Unwrap(DeserializeStepRecord(line), "DeserializeStepRecord");
    EXPECT_EQ(SerializeStepRecord(back), line);
    EXPECT_EQ(back.dep_label, record.dep_label);
    EXPECT_EQ(back.is_tgd, record.is_tgd);
    EXPECT_EQ(back.failure(), record.failure());
    EXPECT_EQ(back.added, record.added);
    if (!record.is_tgd) {
      EXPECT_EQ(back.from, record.from);
      EXPECT_EQ(back.to, record.to);
    }
    ASSERT_EQ(back.before.has_value(), record.before.has_value());
    if (record.before.has_value()) {
      EXPECT_EQ(back.before->ToString(), record.before->ToString());
    }
  }
}

TEST(CheckpointFields, StepRecordRejectsMalformedLines) {
  for (const char* line :
       {"", "d", "d\t1\tQ(X) :- p(X).", "d\tT", "d\tT\tV:X", "d\tF\tI:1",
        "d\tF\tI:1\tI:2\tI:3", "d\tE\tV:Y\tV:X", "d\tE\tV:Y\tV:X\tnot-a-query",
        "d\tX\tI:1\tI:2"}) {
    Result<ChaseStepRecord> parsed = DeserializeStepRecord(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

// ---- ChaseCheckpoint ----

TEST(ChaseCheckpointTest, RealMidChaseStateRoundTripsByteExactly) {
  std::optional<ChaseCheckpoint> captured = CaptureChaseCheckpoint(2);
  ASSERT_TRUE(captured.has_value());
  const ChaseCheckpoint& cp = *captured;
  EXPECT_EQ(cp.phase, ChaseCheckpoint::kSetChasePhase);
  EXPECT_EQ(cp.steps_done, 2u);
  EXPECT_EQ(cp.trace.size(), 2u);

  std::string text = cp.Serialize();
  ChaseCheckpoint back = Unwrap(ChaseCheckpoint::Deserialize(text),
                                "ChaseCheckpoint::Deserialize");
  EXPECT_EQ(back.Serialize(), text);
  EXPECT_EQ(back.phase, cp.phase);
  EXPECT_EQ(back.subject, cp.subject);
  EXPECT_EQ(back.steps_done, cp.steps_done);
  EXPECT_EQ(back.state.ToString(), cp.state.ToString());
  ASSERT_EQ(back.trace.size(), cp.trace.size());
  for (size_t i = 0; i < cp.trace.size(); ++i) {
    EXPECT_EQ(back.trace[i].dep_label, cp.trace[i].dep_label);
    EXPECT_EQ(back.trace[i].is_tgd, cp.trace[i].is_tgd);
  }
  EXPECT_EQ(RenderTrace(back.state, back.trace), RenderTrace(cp.state, cp.trace));
}

TEST(ChaseCheckpointTest, DeserializedCheckpointResumesTheChase) {
  // Finish the interrupted chase from the *deserialized* checkpoint; the
  // outcome must match an unbudgeted cold run (same chased-atom set and the
  // resumed trace must extend the checkpointed prefix).
  ChaseOutcome reference =
      Unwrap(SetChase(StepHungryP(), Example41Sigma()), "cold chase");

  std::optional<ChaseCheckpoint> cp = CaptureChaseCheckpoint(2);
  ASSERT_TRUE(cp.has_value());
  ChaseCheckpoint parked = Unwrap(ChaseCheckpoint::Deserialize(cp->Serialize()),
                                  "ChaseCheckpoint::Deserialize");
  ChaseRuntime runtime;
  runtime.resume = &parked;
  ChaseOutcome resumed = Unwrap(
      SetChase(StepHungryP(), Example41Sigma(), {}, runtime), "resumed chase");
  EXPECT_EQ(CanonicalQueryKey(resumed.result), CanonicalQueryKey(reference.result));
  ASSERT_GE(resumed.trace.size(), cp->trace.size());
  for (size_t i = 0; i < cp->trace.size(); ++i) {
    EXPECT_EQ(resumed.trace[i].dep_label, cp->trace[i].dep_label);
  }
}

TEST(ChaseCheckpointTest, ProbePhaseCheckpointResumesInsideTheProbe) {
  // Σ is not stratified ((r,0) =>* (p,1) -> (t,2) -> (r,0) on a firing
  // cycle), so a bag chase still runs its set-chase probe first: two probe
  // steps, then the sound chase. A fault at the second step boundary parks
  // the probe after one step; the parked text resumes it to the result of
  // an uninterrupted run.
  DependencySet sigma = testing::Sigma({"r(X) -> p(X, Z).", "p(X, Y) -> s(X, Y).",
                                        "p(X, Y), p(Y, Z) -> t(X, Y, Z).",
                                        "t(X, X, Y) -> r(Y)."});
  Schema schema;
  schema.Relation("p", 2).Relation("r", 1).Relation("s", 2).Relation("t", 3);
  ConjunctiveQuery q = Q("Q(X) :- r(X).");
  ChasePlan plan(sigma, Semantics::kBagSet, schema);
  ASSERT_FALSE(plan.sigma_terminates());
  ChaseOutcome uninterrupted = Unwrap(plan.Run(q), "uninterrupted");

  FaultInjector faults(3);
  faults.Arm(fault_sites::kChaseStep, {FaultKind::kExhausted, 2, 0, {}, 1.0});
  ChaseRuntime runtime;
  runtime.faults = &faults;
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;
  ASSERT_FALSE(plan.Run(q, runtime).ok());
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->phase, ChaseCheckpoint::kSetChaseProbePhase);
  EXPECT_EQ(checkpoint->steps_done, 1u);

  ChaseCheckpoint parked = Unwrap(ChaseCheckpoint::Deserialize(checkpoint->Serialize()),
                                  "ChaseCheckpoint::Deserialize");
  ChaseRuntime resume;
  resume.resume = &parked;
  ChaseOutcome resumed = Unwrap(plan.Run(q, resume), "resumed");
  EXPECT_EQ(resumed.failed, uninterrupted.failed);
  EXPECT_EQ(CanonicalQueryKey(resumed.result), CanonicalQueryKey(uninterrupted.result));
  ASSERT_EQ(resumed.trace.size(), uninterrupted.trace.size());
  for (size_t i = 0; i < resumed.trace.size(); ++i) {
    EXPECT_EQ(resumed.trace[i].dep_label, uninterrupted.trace[i].dep_label);
  }
}

TEST(ChaseCheckpointTest, MemoStampsSubjectAndIgnoresMismatches) {
  ChaseOptions options;
  options.budget.max_chase_steps = 1;
  ChaseMemo memo(Example41Sigma(), Semantics::kSet, Example41Schema(), options);
  ChaseRuntime runtime;
  std::optional<ChaseCheckpoint> checkpoint;
  runtime.checkpoint_out = &checkpoint;
  Result<ChaseOutcome> chased = memo.Chase(StepHungryP(), runtime);
  ASSERT_FALSE(chased.ok());
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->subject, CanonicalQueryKey(StepHungryP()));

  // Resuming a *different* query with this checkpoint must start cold, not
  // corrupt state: the unrelated query still chases to its correct result.
  ChaseMemo roomy(Example41Sigma(), Semantics::kSet, Example41Schema(), {});
  ChaseRuntime mismatched;
  mismatched.resume = &*checkpoint;
  ConjunctiveQuery other = Q("Other(X) :- r(X).");
  ChaseOutcome outcome = Unwrap(roomy.Chase(other, mismatched), "mismatched resume");
  ChaseOutcome cold = Unwrap(SetChase(other, Example41Sigma()), "cold");
  EXPECT_EQ(CanonicalQueryKey(outcome.result), CanonicalQueryKey(cold.result));
}

TEST(ChaseCheckpointTest, DeserializeRejectsMalformedInput) {
  EXPECT_FALSE(ChaseCheckpoint::Deserialize("").ok());
  EXPECT_FALSE(ChaseCheckpoint::Deserialize("not a checkpoint").ok());
  EXPECT_FALSE(
      ChaseCheckpoint::Deserialize("sqleq-chase-checkpoint v3\nphase x").ok());
  // Truncated: header only.
  EXPECT_FALSE(ChaseCheckpoint::Deserialize("sqleq-chase-checkpoint v2\n").ok());
  // A v1 checkpoint (whole-query trace lines) is refused by its header, so
  // a parked v1 state is never misread as step deltas.
  std::optional<ChaseCheckpoint> v1 = CaptureChaseCheckpoint(1);
  ASSERT_TRUE(v1.has_value());
  std::string v1_text = v1->Serialize();
  v1_text.replace(v1_text.find(" v2\n"), 4, " v1\n");
  EXPECT_FALSE(ChaseCheckpoint::Deserialize(v1_text).ok());
  // A real serialization with a corrupted line injected before "end".
  std::optional<ChaseCheckpoint> cp = CaptureChaseCheckpoint(1);
  ASSERT_TRUE(cp.has_value());
  std::string text = cp->Serialize();
  text.insert(text.rfind("end\n"), "bogus keyline\n");
  EXPECT_FALSE(ChaseCheckpoint::Deserialize(text).ok());
}

TEST(ChaseCheckpointTest, GoldenBytesDecodeAndReencodeIdentically) {
  // Fixed bytes of the v2 format, one line per key: a sound-chase phase, an
  // escaped subject, fresh variables, integer and string constants at the
  // int64 edges, and one egd, one tgd and one failing egd trace line. Each
  // trace line is a step delta; the egd line carries the query before it.
  const std::string golden =
      "sqleq-chase-checkpoint v2\n"
      "phase sound-chase\n"
      "subject H?0;|p(?0,?1)\\tx\n"
      "steps 3\n"
      "state Q:P\tH\tV:X\tA:p\tV:X\tV:X\tA:s\tV:X\tV:v#7"
      "\tA:t\tV:X\tI:9223372036854775807\tS:a\\tb\n"
      "trace sigma4\tE\tV:Y\tV:X\tQ:P\tH\tV:X\tA:p\tV:X\tV:Y\n"
      "trace sigma1\tT\tA:s\tV:X\tV:v#7"
      "\tA:t\tV:X\tI:9223372036854775807\tS:a\\tb\n"
      "trace sigma7\tF\tI:1\tI:2\n"
      "end\n";
  ChaseCheckpoint cp = Unwrap(ChaseCheckpoint::Deserialize(golden), "golden");
  EXPECT_EQ(cp.phase, ChaseCheckpoint::kSoundChasePhase);
  EXPECT_EQ(cp.subject, "H?0;|p(?0,?1)\tx");
  EXPECT_EQ(cp.steps_done, 3u);
  ASSERT_EQ(cp.trace.size(), 3u);
  EXPECT_FALSE(cp.trace[0].is_tgd);
  EXPECT_TRUE(cp.trace[1].is_tgd);
  EXPECT_EQ(cp.trace[1].added.size(), 2u);
  EXPECT_TRUE(cp.trace[2].failure());
  std::vector<std::string> rendered = RenderTrace(cp.state, cp.trace);
  ASSERT_EQ(rendered.size(), 3u);
  EXPECT_EQ(rendered[0], "P(X) :- p(X, X).");
  EXPECT_EQ(rendered[1], cp.state.ToString());
  EXPECT_EQ(rendered[2], "FAIL: 1 = 2");
  EXPECT_EQ(cp.Serialize(), golden);
  for (const char* phase : {ChaseCheckpoint::kSetChasePhase,
                            ChaseCheckpoint::kSetChaseProbePhase}) {
    std::string text = golden;
    text.replace(text.find("sound-chase"), 11, phase);
    EXPECT_EQ(Unwrap(ChaseCheckpoint::Deserialize(text)).Serialize(), text);
  }
}

TEST(ChaseCheckpointTest, IntegerConstantsRoundTripAtTheInt64Edges) {
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max(), int64_t{0}, int64_t{-1}}) {
    ConjunctiveQuery q = ConjunctiveQuery::Make("Q", {Term::Var("X")},
                                                {Atom("p", {Term::Var("X"), Term::Int(v)})});
    std::string line = SerializeQuery(q);
    EXPECT_NE(line.find("I:" + std::to_string(v)), std::string::npos) << line;
    ConjunctiveQuery back = Unwrap(DeserializeQuery(line), "DeserializeQuery");
    EXPECT_EQ(back.ToString(), q.ToString());
    EXPECT_EQ(SerializeQuery(back), line);
  }
}

TEST(ChaseCheckpointTest, OverflowingIntegersAreInvalidArguments) {
  for (const char* token :
       {"I:99999999999999999999", "I:9223372036854775808",
        "I:-9223372036854775809", "I:", "I:-", "I:+5", "I:12a"}) {
    Result<ConjunctiveQuery> q =
        DeserializeQuery(std::string("Q:P\tH\tV:X\tA:p\tV:X\t") + token);
    ASSERT_FALSE(q.ok()) << token;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << token;
  }
  std::optional<ChaseCheckpoint> cp = CaptureChaseCheckpoint(1);
  ASSERT_TRUE(cp.has_value());
  std::string text = cp->Serialize();
  size_t at = text.find("steps ");
  ASSERT_NE(at, std::string::npos);
  // 2^64 + 5 used to wrap to 5.
  text.replace(at, text.find('\n', at) - at, "steps 18446744073709551621");
  Result<ChaseCheckpoint> overflowed = ChaseCheckpoint::Deserialize(text);
  ASSERT_FALSE(overflowed.ok());
  EXPECT_EQ(overflowed.status().code(), StatusCode::kInvalidArgument);
}

// ---- BackchaseCheckpoint ----

TEST(BackchaseCheckpointTest, SyntheticStateRoundTripsByteExactly) {
  BackchaseCheckpoint cp;
  cp.cardinality = 3;
  cp.next_mask = 0b1101;
  cp.accepted_masks = {0b0011, 0b0101};
  cp.failed_masks = {0b0001};
  cp.accepted = {Q("Q(X) :- p(X, Y)."),
                 ConjunctiveQuery::Make("Q", {Term::Var("X")},
                                        {Atom("s", {Term::Var("X"), Term::FreshVar()})})};
  cp.stats.candidates_examined = 9;
  cp.stats.chase_cache_hits = 4;
  cp.stats.chase_cache_misses = 5;
  cp.stats.dominance_pruned = 2;
  cp.stats.failure_pruned = 1;
  cp.seen_chase_keys = {"key with\ttab", "plain-key"};
  cp.budget_consumed = 9;

  std::string text = cp.Serialize();
  BackchaseCheckpoint back = Unwrap(BackchaseCheckpoint::Deserialize(text),
                                    "BackchaseCheckpoint::Deserialize");
  EXPECT_EQ(back.Serialize(), text);
  EXPECT_EQ(back.cardinality, cp.cardinality);
  EXPECT_EQ(back.next_mask, cp.next_mask);
  EXPECT_EQ(back.accepted_masks, cp.accepted_masks);
  EXPECT_EQ(back.failed_masks, cp.failed_masks);
  ASSERT_EQ(back.accepted.size(), cp.accepted.size());
  for (size_t i = 0; i < cp.accepted.size(); ++i) {
    EXPECT_EQ(back.accepted[i].ToString(), cp.accepted[i].ToString());
  }
  EXPECT_EQ(back.stats.candidates_examined, cp.stats.candidates_examined);
  EXPECT_EQ(back.stats.dominance_pruned, cp.stats.dominance_pruned);
  EXPECT_EQ(back.stats.failure_pruned, cp.stats.failure_pruned);
  EXPECT_EQ(back.seen_chase_keys, cp.seen_chase_keys);
  EXPECT_EQ(back.budget_consumed, cp.budget_consumed);
}

TEST(BackchaseCheckpointTest, DeserializeRejectsMalformedInput) {
  EXPECT_FALSE(BackchaseCheckpoint::Deserialize("").ok());
  EXPECT_FALSE(BackchaseCheckpoint::Deserialize("sqleq-chase-checkpoint v1\n").ok());
  EXPECT_FALSE(
      BackchaseCheckpoint::Deserialize(
          "sqleq-backchase-checkpoint v1\nnext banana banana\nend\n")
          .ok());
  EXPECT_FALSE(
      BackchaseCheckpoint::Deserialize(
          "sqleq-backchase-checkpoint v1\nnonsense-line\nend\n")
          .ok());
  // Numbers past 64 bits are rejected, not wrapped (2^64 + 1 would read as 1).
  for (const char* line : {"next 1 18446744073709551617", "amask 18446744073709551617",
                           "consumed 99999999999999999999", "stats 1 2 3 4 5 6",
                           "stats 1 2 3 4", "next 1", "next 1 2 3", "fmask -1"}) {
    Result<BackchaseCheckpoint> parsed = BackchaseCheckpoint::Deserialize(
        "sqleq-backchase-checkpoint v1\n" + std::string(line) + "\nend\n");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

// ---- CandBCheckpoint ----

TEST(CandBCheckpointTest, BackchasePhaseCheckpointFromRealRunRoundTrips) {
  CandBOptions options;
  options.context.budget.max_candidates = 4;
  CandBResult partial = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), options),
      "budgeted C&B");
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.checkpoint.has_value());
  ASSERT_EQ(partial.checkpoint->phase, CandBCheckpoint::kBackchasePhase);

  std::string text = partial.checkpoint->Serialize();
  CandBCheckpoint back = Unwrap(CandBCheckpoint::Deserialize(text),
                                "CandBCheckpoint::Deserialize");
  EXPECT_EQ(back.Serialize(), text);
  EXPECT_EQ(back.phase, partial.checkpoint->phase);
  ASSERT_TRUE(back.universal_plan.has_value());
  EXPECT_EQ(back.universal_plan->ToString(),
            partial.checkpoint->universal_plan->ToString());
  ASSERT_TRUE(back.backchase.has_value());
  EXPECT_EQ(back.backchase->Serialize(),
            partial.checkpoint->backchase->Serialize());
  EXPECT_FALSE(back.chase.has_value());
}

TEST(CandBCheckpointTest, ChasePhaseCheckpointFromRealRunRoundTrips) {
  CandBOptions options;
  options.context.budget.max_chase_steps = 2;
  CandBResult partial = Unwrap(
      ChaseAndBackchase(StepHungryP(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), options),
      "step-budgeted C&B");
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.checkpoint.has_value());
  ASSERT_EQ(partial.checkpoint->phase, CandBCheckpoint::kChasePhase);
  ASSERT_TRUE(partial.checkpoint->chase.has_value());

  std::string text = partial.checkpoint->Serialize();
  CandBCheckpoint back = Unwrap(CandBCheckpoint::Deserialize(text),
                                "CandBCheckpoint::Deserialize");
  EXPECT_EQ(back.Serialize(), text);
  EXPECT_EQ(back.phase, CandBCheckpoint::kChasePhase);
  ASSERT_TRUE(back.chase.has_value());
  EXPECT_EQ(back.chase->Serialize(), partial.checkpoint->chase->Serialize());
  EXPECT_FALSE(back.universal_plan.has_value());
  EXPECT_FALSE(back.backchase.has_value());
}

TEST(CandBCheckpointTest, ParkedCheckpointResumesAcrossDeserialization) {
  // Park an interrupted C&B as text, reload it, resume: the finished result
  // must match an uninterrupted run — the round trip a deadline-bound
  // service would do across processes.
  CandBOptions clean;
  std::string reference;
  {
    CandBResult full = Unwrap(
        ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                          Example41Schema(), clean),
        "clean C&B");
    reference = CanonicalQueryKey(full.universal_plan) + "|" +
                std::to_string(full.reformulations.size()) + "|" +
                std::to_string(full.candidates_examined);
  }
  CandBOptions budgeted;
  budgeted.context.budget.max_candidates = 4;
  CandBResult partial = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), budgeted),
      "budgeted C&B");
  ASSERT_FALSE(partial.complete);
  CandBCheckpoint parked =
      Unwrap(CandBCheckpoint::Deserialize(partial.checkpoint->Serialize()),
             "CandBCheckpoint::Deserialize");
  CandBOptions resumed_options;
  resumed_options.resume = &parked;
  CandBResult finished = Unwrap(
      ChaseAndBackchase(Example41Q1(), Example41Sigma(), Semantics::kSet,
                        Example41Schema(), resumed_options),
      "resumed C&B");
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(CanonicalQueryKey(finished.universal_plan) + "|" +
                std::to_string(finished.reformulations.size()) + "|" +
                std::to_string(finished.candidates_examined),
            reference);
}

TEST(CandBCheckpointTest, DeserializeRejectsMalformedInput) {
  EXPECT_FALSE(CandBCheckpoint::Deserialize("").ok());
  EXPECT_FALSE(CandBCheckpoint::Deserialize("sqleq-candb-checkpoint v1\n").ok());
  EXPECT_FALSE(
      CandBCheckpoint::Deserialize(
          "sqleq-candb-checkpoint v1\nphase banana\nend\n")
          .ok());
  EXPECT_FALSE(
      CandBCheckpoint::Deserialize(
          "sqleq-candb-checkpoint v1\nphase backchase\nbackchase-begin\nend\n")
          .ok());
}

}  // namespace
}  // namespace sqleq
