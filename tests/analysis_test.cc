// Unit tests for the Σ-lint static analyzer (src/analysis) and the engine
// pre-flights built on it: every diagnostic code fires on its documented
// minimal trigger, and error-severity findings make EquivalenceEngine /
// ChaseAndBackchase refuse the input with a named diagnostic instead of
// spending their chase budget.
#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>

#include "analysis/diagnostic.h"
#include "equivalence/engine.h"
#include "ir/parser.h"
#include "reformulation/candb.h"
#include "test_util.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

using testing::Q;
using testing::Sigma;

bool HasCode(const AnalysisReport& report, const std::string& code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

const Diagnostic* Find(const AnalysisReport& report, const std::string& code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// --- dependency-set checks ---

TEST(AnalyzeDependencies, Example41SigmaHasNoErrors) {
  // σ1/σ4 trip the Def 4.1 warning (their heads split on the universal X) —
  // the paper's own regularization examples — but nothing is error-severity.
  AnalysisReport report = AnalyzeDependencies(
      testing::Example41Schema(), testing::Example41Sigma(), AnalyzeOptions());
  EXPECT_FALSE(report.HasErrors());
}

TEST(AnalyzeDependencies, FullyRegularSigmaHasNoFindings) {
  Schema schema;
  schema.Relation("p", 2).Relation("r", 1);
  AnalysisReport report =
      AnalyzeDependencies(schema, Sigma({"p(X, Y) -> r(X)."}), AnalyzeOptions());
  EXPECT_EQ(report.ToString(), "no findings");
}

TEST(AnalyzeDependencies, NonTerminatingSigmaIsAnError) {
  AnalysisReport report =
      AnalyzeDependencies(Schema(), Sigma({"e(X, Y) -> e(Y, Z)."}));
  const Diagnostic* d = Find(report, "chase-nontermination");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->subject, "sigma");
  // The message carries the special-edge cycle witness.
  EXPECT_NE(d->message.find("=>*"), std::string::npos) << d->message;
  EXPECT_TRUE(report.HasErrors());
}

TEST(AnalyzeDependencies, StratifiedButNotWeaklyAcyclicIsInfoOnly) {
  AnalysisReport report = AnalyzeDependencies(Schema(), Sigma({
      "p(X, 1) -> q(X, Z, 2).",
      "q(X, Y, 3) -> p(Y, 1).",
  }));
  EXPECT_FALSE(report.HasErrors());
  const Diagnostic* d = Find(report, "sigma-not-weakly-acyclic");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kInfo);
}

TEST(AnalyzeDependencies, ConstantClashEgdIsAWarning) {
  AnalysisReport report = AnalyzeDependencies(Schema(), Sigma({"p(X) -> 1 = 2."}));
  const Diagnostic* d = Find(report, "egd-constant-contradiction");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(report.HasErrors());
}

TEST(AnalyzeDependencies, UnregularizedTgdIsAWarning) {
  // r(X,Z1) and s(X,Z2) share only the universal X: Def 4.1 nonshared
  // partition into two components.
  AnalysisReport report =
      AnalyzeDependencies(Schema(), Sigma({"p(X, Y) -> r(X, Z1), s(X, Z2)."}));
  const Diagnostic* d = Find(report, "tgd-unregularized");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("2 components"), std::string::npos) << d->message;
}

TEST(AnalyzeDependencies, WarningsEscalateUnderStrictMode) {
  AnalyzeOptions opts;
  opts.warnings_as_errors = true;
  AnalysisReport report =
      AnalyzeDependencies(Schema(), Sigma({"p(X, Y) -> r(X, Z1), s(X, Z2)."}), opts);
  const Diagnostic* d = Find(report, "tgd-unregularized");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_TRUE(report.HasErrors());
}

TEST(AnalyzeDependencies, SchemaDriftInDependencies) {
  Schema schema;
  schema.Relation("p", 2).Relation("r", 1);
  AnalysisReport report = AnalyzeDependencies(schema, Sigma({
      "p(X, Y) -> nosuch(X).",   // unknown relation in head
      "p(X, Y, W) -> r(X).",     // p used at arity 3
  }));
  EXPECT_TRUE(HasCode(report, "unknown-relation"));
  EXPECT_TRUE(HasCode(report, "arity-mismatch"));
}

TEST(AnalyzeDependencies, EmptySchemaSkipsSchemaChecks) {
  AnalysisReport report = AnalyzeDependencies(Schema(), Sigma({"p(X, Y) -> r(X)."}));
  EXPECT_FALSE(HasCode(report, "unknown-relation"));
}

TEST(AnalyzeDependencies, ImpliedDependencyFlaggedOnlyWithImplicationCheck) {
  // The second dependency is the first one weakened (p(X,X) ⊆ p(X,Y)), so
  // Σ \ {σ2} implies σ2.
  DependencySet sigma = Sigma({
      "p(X, Y) -> r(X).",
      "p(X, X) -> r(X).",
  });
  AnalysisReport preflight = AnalyzeDependencies(Schema(), sigma);
  EXPECT_FALSE(HasCode(preflight, "dependency-implied"));

  AnalysisReport full =
      AnalyzeDependencies(Schema(), sigma, AnalyzeOptions::Full());
  const Diagnostic* d = Find(full, "dependency-implied");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->subject, "dependency sigma2");
}

TEST(AnalyzeDependencies, ImpliedEgdDetected) {
  DependencySet sigma = Sigma({
      "s(X, Y), s(X, Z) -> Y = Z.",
      "s(a, Y), s(a, Z) -> Y = Z.",  // instance of the key egd
  });
  AnalysisReport full =
      AnalyzeDependencies(Schema(), sigma, AnalyzeOptions::Full());
  const Diagnostic* d = Find(full, "dependency-implied");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->subject, "dependency sigma2");
}

TEST(AnalyzeDependencies, UnsatisfiableBodyDetected) {
  // σ2's body requires q(X, 1) and q-tuples force their second column to 2
  // via σ1's egd... simpler: chase of σ2's body fires σ1 equating 1 = 2.
  DependencySet sigma = Sigma({
      "q(X, Y) -> Y = 2.",
      "q(X, 1) -> r(X).",
  });
  AnalysisReport full =
      AnalyzeDependencies(Schema(), sigma, AnalyzeOptions::Full());
  const Diagnostic* d = Find(full, "dependency-unsatisfiable-body");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->subject, "dependency sigma2");
}

TEST(AnalyzeDependencies, ImplicationCheckBudgetYieldsIncompleteNote) {
  AnalyzeOptions opts = AnalyzeOptions::Full();
  opts.budget.max_chase_steps = 1;
  DependencySet sigma = Sigma({
      "p(X, Y) -> q(X, Z).",
      "q(X, Y) -> r(X, W).",
      "r(X, Y) -> t(X, V).",
      "p(X, Y), t(X, W) -> u(X).",
  });
  AnalysisReport report = AnalyzeDependencies(Schema(), sigma, opts);
  EXPECT_TRUE(HasCode(report, "analysis-incomplete"));
  EXPECT_FALSE(report.HasErrors());
}

TEST(AnalyzeDependencies, ImplicationBudgetIsPerDependency) {
  // Regression pin: every dependency's implication check gets opts.budget
  // AFRESH. A slow check early in Σ (the chain below burns through two
  // chase steps immediately) must not starve the checks after it — the
  // cheap duplicate pair at the END of Σ is still detected as implied,
  // which would be impossible if the budget drained across dependencies.
  AnalyzeOptions opts = AnalyzeOptions::Full();
  opts.budget.max_chase_steps = 2;
  DependencySet sigma = Sigma({
      "p(X, Y) -> q(X, Z).",
      "q(X, Y) -> r(X, W).",
      "r(X, Y) -> t(X, V).",
      "p(X, Y), t(X, W) -> u(X).",
      "s(X, Y) -> v(X).",
      "s(A, B) -> v(A).",
  });
  AnalysisReport report = AnalyzeDependencies(Schema(), sigma, opts);
  EXPECT_TRUE(HasCode(report, "analysis-incomplete"));
  const Diagnostic* implied = Find(report, "dependency-implied");
  ASSERT_NE(implied, nullptr)
      << "late cheap checks were starved by an early slow one:\n"
      << report.ToString();
  EXPECT_EQ(implied->subject.rfind("dependency sigma", 0), 0u);
  EXPECT_FALSE(report.HasErrors());
}

// --- query checks ---

TEST(AnalyzeQuery, UnsafeHeadViaWithBody) {
  // ConjunctiveQuery::Create enforces safety, so break it after the fact.
  ConjunctiveQuery q = Q("Q(X, Y) :- p(X, Y), r(Y).");
  ConjunctiveQuery unsafe = q.WithBody({q.body()[1]});  // drop p(X, Y)
  AnalysisReport report = AnalyzeQuery(Schema(), unsafe);
  const Diagnostic* d = Find(report, "query-unsafe-head");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->subject, "query Q");
  EXPECT_NE(d->message.find("X"), std::string::npos);
}

TEST(AnalyzeQuery, UnsafePartsFromLenientParser) {
  Result<ParsedQueryParts> parts = ParseQueryParts("Q(X, Y) :- p(X, Z).");
  ASSERT_TRUE(parts.ok());
  AnalysisReport report =
      AnalyzeQueryParts(Schema(), parts->name, parts->head, parts->body, {});
  EXPECT_TRUE(HasCode(report, "query-unsafe-head"));
}

TEST(AnalyzeQuery, EmptyBodyIsAnError) {
  ConjunctiveQuery q = Q("Q(X) :- p(X).").WithBody({});
  AnalysisReport report = AnalyzeQuery(Schema(), q);
  EXPECT_TRUE(HasCode(report, "query-empty-body"));
}

TEST(AnalyzeQuery, SchemaDriftInQueryBody) {
  Schema schema;
  schema.Relation("p", 2);
  AnalysisReport report = AnalyzeQuery(schema, Q("Q(X) :- p(X, Y), ghost(X)."));
  EXPECT_TRUE(HasCode(report, "unknown-relation"));
  AnalysisReport arity = AnalyzeQuery(schema, Q("Q(X) :- p(X)."));
  EXPECT_TRUE(HasCode(arity, "arity-mismatch"));
}

TEST(AnalyzeProgram, CombinesSigmaAndQueryFindings) {
  Schema schema;
  schema.Relation("p", 2);
  AnalysisReport report = AnalyzeProgram(
      schema, Sigma({"p(X, Y) -> p(Y, Z)."}),
      {Q("Q1(X) :- p(X, Y)."), Q("Q2(X) :- p(X, X), missing(X).")}, {});
  EXPECT_TRUE(HasCode(report, "chase-nontermination"));
  EXPECT_TRUE(HasCode(report, "unknown-relation"));
  EXPECT_GE(report.CountOf(Severity::kError), 2u);
}

// --- report plumbing ---

TEST(Diagnostics, ToStringAndStatusShape) {
  Diagnostic d{"chase-nontermination", Severity::kError, "cycle found", "sigma",
               "drop it"};
  EXPECT_EQ(d.ToString(),
            "error[chase-nontermination] sigma: cycle found (fix: drop it)");
  AnalysisReport report;
  report.diagnostics.push_back(d);
  Status status = ReportToStatus(report);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rejected by sigma-lint"), std::string::npos);
  EXPECT_NE(status.message().find("chase-nontermination"), std::string::npos);
}

TEST(Diagnostics, WarningsDoNotRejectViaStatus) {
  AnalysisReport report;
  report.diagnostics.push_back(Diagnostic{"tgd-unregularized", Severity::kWarning,
                                          "msg", "dependency #1", ""});
  EXPECT_TRUE(ReportToStatus(report).ok());
}

// --- engine pre-flights refuse error-severity inputs ---

TEST(Preflight, EngineRefusesNonTerminatingSigma) {
  EquivalenceEngine engine;
  ConjunctiveQuery q1 = Q("Q1(X) :- e(X, Y).");
  ConjunctiveQuery q2 = Q("Q2(X) :- e(X, Y), e(Y, Z).");
  EquivRequest request{Semantics::kSet, Sigma({"e(X, Y) -> e(Y, Z)."}),
                       Schema()};
  Result<EquivVerdict> verdict = engine.Equivalent(q1, q2, request);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.status().message().find("chase-nontermination"),
            std::string::npos)
      << verdict.status().message();
}

TEST(Preflight, EngineRefusesUnsafeQuery) {
  EquivalenceEngine engine;
  ConjunctiveQuery q1 = Q("Q1(X, Y) :- p(X, Y), r(Y).");
  ConjunctiveQuery unsafe = q1.WithBody({q1.body()[1]});
  EquivRequest request{Semantics::kSet, {}, Schema()};
  Result<EquivVerdict> verdict = engine.Equivalent(q1, unsafe, request);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.status().message().find("query-unsafe-head"),
            std::string::npos);
}

TEST(Preflight, StrictModeRefusesDef41Violation) {
  // The default pre-flight lets an unregularized tgd through (SoundChase
  // regularizes Σ itself); warnings_as_errors makes the engine refuse it.
  EquivalenceEngine engine;
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");
  EquivRequest request{Semantics::kBagSet,
                       Sigma({"p(X, Y) -> r(X, Z1), s(X, Z2)."}), Schema()};
  EXPECT_TRUE(engine.Equivalent(q, q, request).ok());

  request.analyze.warnings_as_errors = true;
  Result<EquivVerdict> strict = engine.Equivalent(q, q, request);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("tgd-unregularized"), std::string::npos)
      << strict.status().message();
}

TEST(Preflight, EveryEnginePreflightCountsDiagnostics) {
  // The equivalence and C&B pre-flights share one helper, so both count
  // their findings in the call's registry.
  const std::string counter =
      std::string(metric::kAnalysisDiagPrefix) + "tgd-unregularized";
  DependencySet sigma = Sigma({"p(X, Y) -> r(X, Z1), s(X, Z2)."});
  ConjunctiveQuery q = Q("Q(X) :- p(X, Y).");

  MetricsRegistry equiv_metrics;
  EquivalenceEngine engine;
  EquivRequest request{Semantics::kSet, sigma, Schema()};
  request.context.metrics = &equiv_metrics;
  ASSERT_TRUE(engine.Equivalent(q, q, request).ok());
  EXPECT_GT(equiv_metrics.counter(counter).value(), 0u);

  MetricsRegistry candb_metrics;
  CandBOptions options;
  options.context.metrics = &candb_metrics;
  ASSERT_TRUE(ChaseAndBackchase(q, sigma, Semantics::kSet, Schema(), options).ok());
  EXPECT_GT(candb_metrics.counter(counter).value(), 0u);
}

TEST(Preflight, DisablingAnalyzeSkipsTheGate) {
  // With the gate off the engine falls back to its chase budget, which the
  // non-terminating Σ exhausts: a ResourceExhausted error, not a lint one.
  EquivalenceEngine engine;
  ConjunctiveQuery q = Q("Q(X) :- e(X, Y).");
  EquivRequest request{Semantics::kSet, Sigma({"e(X, Y) -> e(Y, Z)."}),
                       Schema()};
  request.analyze.enabled = false;
  request.context.budget.max_chase_steps = 50;
  Result<EquivVerdict> verdict = engine.Equivalent(q, q, request);
  // Anytime contract: the exhausted chase budget yields kUnknown (with no
  // lint diagnostic in sight), not a lint rejection.
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->verdict, Verdict::kUnknown);
  ASSERT_TRUE(verdict->exhaustion.has_value());
  EXPECT_EQ(verdict->exhaustion->limit, "max_chase_steps");
  EXPECT_EQ(verdict->exhaustion->progress.find("sigma-lint"), std::string::npos)
      << verdict->exhaustion->progress;
}

TEST(Preflight, CandBRefusesNonTerminatingSigma) {
  ConjunctiveQuery q = Q("Q(X) :- e(X, Y).");
  Result<CandBResult> result = ChaseAndBackchase(
      q, Sigma({"e(X, Y) -> e(Y, Z)."}), Semantics::kSet, Schema());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("chase-nontermination"),
            std::string::npos);
}

TEST(Preflight, StratifiedSigmaIsAcceptedDespiteFailingWeakAcyclicity) {
  // Constant-severed firing cycle: not weakly acyclic, but stratified — the
  // gate must let it through (info finding only).
  EquivalenceEngine engine;
  ConjunctiveQuery q = Q("Q(X) :- p(X, 1).");
  EquivRequest request{Semantics::kSet,
                       Sigma({
                           "p(X, 1) -> q(X, Z, 2).",
                           "q(X, Y, 3) -> p(Y, 1).",
                       }),
                       Schema()};
  EXPECT_TRUE(engine.Equivalent(q, q, request).ok());
}

TEST(Preflight, RepeatCallsOnOneContextGateAndCountLikeTheFirst) {
  // The Σ half of the pre-flight is analyzed once per chase context and
  // replayed; every call on the context must still gate and count like a
  // fresh AnalyzeProgram. The fixtures share one engine, so the strict and
  // the default unregularized fixture meet the same context.
  struct Fixture {
    std::string name;
    DependencySet sigma;
    Schema schema;
    ConjunctiveQuery q;
    bool strict = false;
  };
  Schema only_p;
  only_p.Relation("p", 2);
  const std::vector<Fixture> fixtures = {
      {"non-terminating", Sigma({"e(X, Y) -> e(Y, Z)."}), Schema(),
       Q("Q(X) :- e(X, Y).")},
      {"unregularized, strict", Sigma({"p(X, Y) -> r(X, Z1), s(X, Z2)."}), Schema(),
       Q("Q(X) :- p(X, Y)."), true},
      {"unregularized", Sigma({"p(X, Y) -> r(X, Z1), s(X, Z2)."}), Schema(),
       Q("Q(X) :- p(X, Y).")},
      {"egd constant clash", Sigma({"p(X) -> 1 = 2."}), Schema(), Q("Q(X) :- p(X).")},
      {"unknown relation", Sigma({"p(X, Y) -> r(X)."}), only_p, Q("Q(X) :- p(X, Y).")},
      {"stratified, not weakly acyclic",
       Sigma({"p(X, 1) -> q(X, Z, 2).", "q(X, Y, 3) -> p(Y, 1)."}), Schema(),
       Q("Q(X) :- p(X, 1).")},
  };
  auto diag_counts = [](const MetricsRegistry& metrics) {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] : metrics.Snapshot().counters) {
      if (name.rfind(metric::kAnalysisDiagPrefix, 0) == 0) out[name] = value;
    }
    return out;
  };
  // The Status and counts of a fresh analysis of `queries`.
  auto fresh = [&](const Fixture& f, const std::vector<ConjunctiveQuery>& queries) {
    MetricsRegistry metrics;
    AnalyzeOptions opts;
    opts.warnings_as_errors = f.strict;
    opts.metrics = &metrics;
    Status status = ReportToStatus(AnalyzeProgram(f.schema, f.sigma, queries, opts));
    return std::make_pair(status, diag_counts(metrics));
  };
  // A call the pre-flight passes must not be a lint rejection, and must
  // answer the same every time.
  auto expect_gated_like = [](const Status& got, const Status& expected,
                              const Status& first, const std::string& where) {
    if (!expected.ok()) {
      EXPECT_EQ(got.ToString(), expected.ToString()) << where;
    } else {
      EXPECT_EQ(got.message().find("sigma-lint"), std::string::npos) << where;
      EXPECT_EQ(got.ToString(), first.ToString()) << where;
    }
  };

  EquivalenceEngine engine;
  for (const Fixture& f : fixtures) {
    const auto [equiv_status, equiv_counts] = fresh(f, {f.q, f.q});
    const auto [candb_status, candb_counts] = fresh(f, {f.q});
    EXPECT_FALSE(equiv_counts.empty()) << f.name << ": the fixture finds nothing";
    std::optional<Status> first_equiv, first_candb;
    for (int call = 0; call < 3; ++call) {
      const std::string where = f.name + ", call " + std::to_string(call);

      MetricsRegistry equiv_metrics;
      EquivRequest request{Semantics::kSet, f.sigma, f.schema};
      request.analyze.warnings_as_errors = f.strict;
      request.context.metrics = &equiv_metrics;
      Result<EquivVerdict> verdict = engine.Equivalent(f.q, f.q, request);
      if (!first_equiv.has_value()) first_equiv = verdict.status();
      expect_gated_like(verdict.status(), equiv_status, *first_equiv,
                        where + " (Equivalent)");
      EXPECT_EQ(diag_counts(equiv_metrics), equiv_counts) << where << " (Equivalent)";

      MetricsRegistry candb_metrics;
      CandBOptions options;
      options.analyze.warnings_as_errors = f.strict;
      options.context.metrics = &candb_metrics;
      Result<CandBResult> result =
          ChaseAndBackchase(engine, f.q, f.sigma, Semantics::kSet, f.schema, options);
      if (!first_candb.has_value()) first_candb = result.status();
      expect_gated_like(result.status(), candb_status, *first_candb,
                        where + " (ChaseAndBackchase)");
      EXPECT_EQ(diag_counts(candb_metrics), candb_counts)
          << where << " (ChaseAndBackchase)";
    }
  }
}

TEST(SigmaPreflight, MatchesAnalyzeProgramUnderEveryOptionSet) {
  // The replayed Σ half filters by the call's switches, escalates and runs
  // the chase-based checks as a fresh AnalyzeProgram does.
  Schema schema;
  schema.Relation("p", 2).Relation("r", 1);
  DependencySet sigma = Sigma({
      "e(X, Y) -> e(Y, Z).",
      "p(X, Y) -> r(X), s(X, Z2).",
      "p(X, Y), p(X, Z) -> 1 = 2.",
      "p(X, Y) -> r(X).",
      "p(X, Y) -> q(X, Y, Y, Z).",
  });
  std::vector<ConjunctiveQuery> queries = {Q("Q(X, Y) :- p(X, Y), t(X)."),
                                           Q("P(X, Y) :- p(X, Y), p(Y, X).")};
  ConjunctiveQuery unsafe = queries[0].WithBody({queries[0].body()[1]});
  queries.push_back(unsafe);
  const std::vector<const ConjunctiveQuery*> pointers = {&queries[0], &queries[1],
                                                         &queries[2]};
  SigmaPreflight preflight(schema, sigma);
  bool AnalyzeOptions::*const switches[] = {
      &AnalyzeOptions::check_termination,  &AnalyzeOptions::check_safety,
      &AnalyzeOptions::check_schema,       &AnalyzeOptions::check_regularization,
      &AnalyzeOptions::check_satisfiability, &AnalyzeOptions::check_implication,
      &AnalyzeOptions::check_slicing,      &AnalyzeOptions::warnings_as_errors};
  for (size_t i = 0; i <= std::size(switches); ++i) {
    // Preflight() with one switch flipped (i == size: Preflight() itself).
    AnalyzeOptions opts = AnalyzeOptions::Preflight();
    if (i < std::size(switches)) opts.*switches[i] = !(opts.*switches[i]);
    MetricsRegistry expected_metrics, got_metrics;
    opts.metrics = &expected_metrics;
    AnalysisReport expected = AnalyzeProgram(schema, sigma, queries, opts);
    opts.metrics = &got_metrics;
    AnalysisReport got = preflight.Analyze(pointers, opts);
    EXPECT_EQ(got.ToString(), expected.ToString()) << "switch " << i;
    EXPECT_EQ(got_metrics.Snapshot().counters, expected_metrics.Snapshot().counters)
        << "switch " << i;
  }
}

}  // namespace
}  // namespace sqleq
