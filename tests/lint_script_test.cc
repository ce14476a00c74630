// Unit tests for the script-level Σ-lint (src/shell/lint.h): lenient replay
// of shell scripts into diagnostics, plus the LINT shell command.
#include "shell/lint.h"

#include <gtest/gtest.h>

#include "shell/engine.h"
#include "test_util.h"

namespace sqleq {
namespace {

using shell::LintResult;
using shell::LintScript;

bool HasCode(const LintResult& result, const std::string& code) {
  for (const Diagnostic& d : result.report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

const Diagnostic* Find(const LintResult& result, const std::string& code) {
  for (const Diagnostic& d : result.report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

TEST(LintScript, CleanScriptHasNoErrors) {
  LintResult result = LintScript(R"(
    CREATE TABLE p (a INT, b INT, PRIMARY KEY (a, b));
    CREATE TABLE r (a INT, PRIMARY KEY (a));
    DEP p(X, Y) -> r(X);
    VIEW v(X) :- p(X, Y);
    QUERY q(X) :- p(X, Y), r(X);
    EQUIV q v UNDER S;
    MINIMIZE q;
    REWRITE q;
    LINT STRICT;
    SHOW SIGMA
  )");
  EXPECT_FALSE(result.HasErrors()) << result.ToString();
  EXPECT_EQ(result.statements, 10u);
}

TEST(LintScript, SetTargetsMatchTheShell) {
  // The shell's SET targets lint clean; THREADS is not one of them.
  LintResult clean = LintScript("SET BUDGET 100 50; SET RETRY 3 2; SET RETRY OFF");
  EXPECT_FALSE(clean.HasErrors()) << clean.ToString();
  EXPECT_TRUE(HasCode(LintScript("SET THREADS 4"), "parse-error"));
}

TEST(LintScript, LineCommentsAreIgnored) {
  LintResult result = LintScript(
      "-- a full-line comment\n"
      "CREATE TABLE p (a INT, PRIMARY KEY (a));  -- trailing comment\n"
      "QUERY q(X) :- p(X)");
  EXPECT_FALSE(result.HasErrors()) << result.ToString();
}

TEST(LintScript, NonTerminatingSigmaFlagged) {
  LintResult result = LintScript(
      "CREATE TABLE e (a INT, b INT, PRIMARY KEY (a, b));"
      "DEP e(X, Y) -> e(Y, Z)");
  EXPECT_TRUE(HasCode(result, "chase-nontermination"));
  EXPECT_TRUE(result.HasErrors());
}

TEST(LintScript, UnsafeQueryFlaggedNotFatal) {
  // The shell's QUERY statement would reject this outright; the linter keeps
  // going and diagnoses it with the analyzer's code.
  LintResult result = LintScript(
      "CREATE TABLE p (a INT, b INT, PRIMARY KEY (a, b));"
      "QUERY q(X, Y) :- p(X, Z);"
      "EVAL q");
  const Diagnostic* d = Find(result, "query-unsafe-head");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->subject, "query q");
  // q still counts as defined: no unknown-query for the EVAL.
  EXPECT_FALSE(HasCode(result, "unknown-query"));
}

TEST(LintScript, UnknownQueryReference) {
  LintResult result = LintScript(
      "CREATE TABLE p (a INT, PRIMARY KEY (a));"
      "QUERY q(X) :- p(X);"
      "EQUIV q nonesuch");
  const Diagnostic* d = Find(result, "unknown-query");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("nonesuch"), std::string::npos);
}

TEST(LintScript, ParseErrorsDoNotStopTheScan) {
  LintResult result = LintScript(
      "FROBNICATE everything;"
      "CREATE TABLE p (a INT, PRIMARY KEY (a));"
      "QUERY q(X) :- p(X);"
      "EVAL q");
  EXPECT_TRUE(HasCode(result, "parse-error"));
  // The statements after the bad one were still processed.
  EXPECT_FALSE(HasCode(result, "unknown-query"));
  EXPECT_EQ(result.statements, 4u);
}

TEST(LintScript, InsertChecksTableAndArity) {
  LintResult result = LintScript(
      "CREATE TABLE p (a INT, b INT, PRIMARY KEY (a, b));"
      "INSERT INTO p VALUES (1, 2);"
      "INSERT INTO p VALUES (3);"
      "INSERT INTO ghost VALUES (1)");
  EXPECT_TRUE(HasCode(result, "arity-mismatch"));
  EXPECT_TRUE(HasCode(result, "unknown-relation"));
}

TEST(LintScript, SqlQueriesTranslateAgainstAccumulatedCatalog) {
  LintResult result = LintScript(
      "CREATE TABLE emp (id INT PRIMARY KEY, dept INT);"
      "QUERY a := SELECT e.id FROM emp e;"
      "QUERY b := SELECT nope FROM missing;"
      "EVAL a");
  EXPECT_TRUE(HasCode(result, "parse-error"));  // the bad SELECT
  EXPECT_FALSE(HasCode(result, "unknown-query"));  // a is defined
}

TEST(LintScript, RewriteWithoutViewsFlagged) {
  LintResult result = LintScript(
      "CREATE TABLE p (a INT, PRIMARY KEY (a));"
      "QUERY q(X) :- p(X);"
      "REWRITE q");
  EXPECT_TRUE(HasCode(result, "parse-error"));
}

TEST(LintScript, StrictModeEscalatesWarnings) {
  const char* script =
      "CREATE TABLE p (a INT, b INT, PRIMARY KEY (a, b));"
      "CREATE TABLE r (a INT, b INT, PRIMARY KEY (a, b));"
      "CREATE TABLE s (a INT, b INT, PRIMARY KEY (a, b));"
      "DEP p(X, Y) -> r(X, Z1), s(X, Z2)";  // Def 4.1 violation: warning
  LintResult lenient = LintScript(script);
  EXPECT_FALSE(lenient.HasErrors()) << lenient.ToString();
  EXPECT_EQ(lenient.report.CountOf(Severity::kWarning), 1u);

  AnalyzeOptions strict = AnalyzeOptions::Full();
  strict.warnings_as_errors = true;
  LintResult escalated = LintScript(script, strict);
  EXPECT_TRUE(escalated.HasErrors());
}

TEST(LintScript, SummaryLineCountsBySeverity) {
  LintResult result = LintScript("DEP e(X, Y) -> e(Y, Z)");
  std::string text = result.ToString();
  EXPECT_NE(text.find("lint: 1 error(s), 0 warning(s), 0 note(s)"),
            std::string::npos)
      << text;
}

TEST(LintScript, EmptyScriptIsClean) {
  LintResult result = LintScript("   \n  ;;  \n");
  EXPECT_FALSE(result.HasErrors());
  EXPECT_EQ(result.statements, 0u);
  EXPECT_NE(result.ToString().find("no findings"), std::string::npos);
}

// --- the LINT shell command ---

TEST(ShellLint, ReportsSessionFindings) {
  shell::ScriptEngine engine;
  ASSERT_TRUE(engine.Run("CREATE TABLE e (a INT, b INT, PRIMARY KEY (a, b));").ok());
  ASSERT_TRUE(engine.Execute("DEP e(X, Y) -> e(Y, Z)").ok());
  Result<std::string> out = engine.Execute("LINT");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("chase-nontermination"), std::string::npos) << *out;
  EXPECT_NE(out->find("lint: 1 error(s)"), std::string::npos) << *out;
}

TEST(ShellLint, CleanSessionReportsNoFindings) {
  shell::ScriptEngine engine;
  ASSERT_TRUE(engine.Run("CREATE TABLE p (a INT, PRIMARY KEY (a));"
                         "QUERY q(X) :- p(X);")
                  .ok());
  Result<std::string> out = engine.Execute("LINT");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("no findings"), std::string::npos) << *out;
  EXPECT_NE(out->find("lint: 0 error(s)"), std::string::npos) << *out;
}

TEST(ShellLint, StrictEscalatesAndRejectsBadArgs) {
  shell::ScriptEngine engine;
  ASSERT_TRUE(engine.Run("CREATE TABLE p (a INT, b INT, PRIMARY KEY (a, b));"
                         "CREATE TABLE r (a INT, b INT, PRIMARY KEY (a, b));"
                         "CREATE TABLE s (a INT, b INT, PRIMARY KEY (a, b));"
                         "DEP p(X, Y) -> r(X, Z1), s(X, Z2);")
                  .ok());
  Result<std::string> relaxed = engine.Execute("LINT");
  ASSERT_TRUE(relaxed.ok());
  EXPECT_NE(relaxed->find("warning[tgd-unregularized]"), std::string::npos)
      << *relaxed;
  Result<std::string> strict = engine.Execute("LINT STRICT");
  ASSERT_TRUE(strict.ok());
  EXPECT_NE(strict->find("error[tgd-unregularized]"), std::string::npos) << *strict;
  EXPECT_FALSE(engine.Execute("LINT LOUDLY").ok());
}

TEST(ShellLint, EngineCommandsRefuseLintErrors) {
  // The same diagnostics gate EQUIV: a non-stratified Σ is refused by name
  // instead of exhausting the chase budget.
  shell::ScriptEngine engine;
  ASSERT_TRUE(engine.Run("CREATE TABLE e (a INT, b INT, PRIMARY KEY (a, b));"
                         "DEP e(X, Y) -> e(Y, Z);"
                         "QUERY q(X) :- e(X, Y);")
                  .ok());
  Result<std::string> out = engine.Execute("EQUIV q q");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("chase-nontermination"), std::string::npos)
      << out.status().message();
}

}  // namespace
}  // namespace sqleq
