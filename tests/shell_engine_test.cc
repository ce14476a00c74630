// Unit/integration tests for the script engine behind sqleq_cli.
#include "shell/engine.h"

#include <gtest/gtest.h>

#include "util/fault.h"

namespace sqleq {
namespace shell {
namespace {

std::string Must(Result<std::string> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

const char kSetup[] = R"(
  CREATE TABLE dept (id INT PRIMARY KEY, mgr INT);
  CREATE TABLE emp (id INT PRIMARY KEY, dept INT,
                    FOREIGN KEY (dept) REFERENCES dept (id));
  CREATE TABLE clicks (cid INT, page TEXT);
  INSERT INTO dept VALUES (10, 7), (11, 8);
  INSERT INTO emp VALUES (1, 10), (2, 11);
  INSERT INTO clicks VALUES (1, 'home');
  INSERT INTO clicks VALUES (1, 'home');
)";

TEST(ShellEngine, CreateAndInsert) {
  ScriptEngine engine;
  std::string out = Must(engine.Run(kSetup));
  EXPECT_NE(out.find("created table dept"), std::string::npos);
  EXPECT_NE(out.find("inserted 2 row(s) into emp"), std::string::npos);
  EXPECT_TRUE(engine.catalog().schema.HasRelation("emp"));
  EXPECT_EQ(engine.database().TotalSize(), 6u);
}

TEST(ShellEngine, CreateAfterInsertKeepsData) {
  ScriptEngine engine;
  Must(engine.Run("CREATE TABLE a (x INT); INSERT INTO a VALUES (1);"));
  Must(engine.Execute("CREATE TABLE b (y INT)"));
  RelationInstance a = std::move(engine.database().GetRelation("a")).value();
  EXPECT_EQ(a.TotalSize(), 1u);
}

TEST(ShellEngine, FailedInsertLeavesStateUnchanged) {
  ScriptEngine engine;
  Must(engine.Run("CREATE TABLE a (x INT PRIMARY KEY); INSERT INTO a VALUES (1);"));
  // Second row duplicates the key; the whole INSERT must be rolled back.
  Result<std::string> r = engine.Execute("INSERT INTO a VALUES (2), (1)");
  EXPECT_FALSE(r.ok());
  RelationInstance a = std::move(engine.database().GetRelation("a")).value();
  EXPECT_EQ(a.TotalSize(), 1u);
  EXPECT_FALSE(a.Contains(IntTuple({2})));
}

TEST(ShellEngine, QueryFromSqlDerivesSemantics) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  Must(engine.Execute("QUERY q1 := SELECT id FROM emp"));
  Must(engine.Execute("QUERY q2 := SELECT cid FROM clicks"));
  Must(engine.Execute("QUERY q3 := SELECT DISTINCT cid FROM clicks"));
  EXPECT_EQ(std::move(engine.GetQuery("q1")).value().semantics, Semantics::kBagSet);
  EXPECT_EQ(std::move(engine.GetQuery("q2")).value().semantics, Semantics::kBag);
  EXPECT_EQ(std::move(engine.GetQuery("q3")).value().semantics, Semantics::kSet);
}

TEST(ShellEngine, QueryFromDatalog) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  std::string out = Must(engine.Execute("QUERY qd(X) :- emp(X, D), clicks(X, P)"));
  EXPECT_NE(out.find("defined qd"), std::string::npos);
  // clicks is bag valued → bag semantics.
  EXPECT_EQ(std::move(engine.GetQuery("qd")).value().semantics, Semantics::kBag);
}

TEST(ShellEngine, EvalUsesRecordedSemantics) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  Must(engine.Execute("QUERY q := SELECT cid FROM clicks"));
  std::string bag_out = Must(engine.Execute("EVAL q"));
  EXPECT_NE(bag_out.find("{{(1), (1)}}"), std::string::npos) << bag_out;
  std::string set_out = Must(engine.Execute("EVAL q UNDER S"));
  EXPECT_NE(set_out.find("{{(1)}}"), std::string::npos) << set_out;
}

TEST(ShellEngine, EquivUsesDdlSigma) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  Must(engine.Execute(
      "QUERY a := SELECT e.id FROM emp e, dept d WHERE e.dept = d.id"));
  Must(engine.Execute("QUERY b := SELECT id FROM emp"));
  EXPECT_NE(Must(engine.Execute("EQUIV a b")).find("a == b"), std::string::npos);
  EXPECT_NE(Must(engine.Execute("EQUIV a b UNDER B")).find("a == b"),
            std::string::npos);
}

TEST(ShellEngine, DepAddsUserDependency) {
  ScriptEngine engine;
  Must(engine.Run("CREATE TABLE p (a INT, b INT); CREATE TABLE r (a INT);"));
  Must(engine.Execute("DEP p(X, Y) -> r(X)"));
  Must(engine.Execute("QUERY a(X) :- p(X, Y), r(X)"));
  Must(engine.Execute("QUERY b(X) :- p(X, Y)"));
  EXPECT_NE(Must(engine.Execute("EQUIV a b UNDER S")).find("a == b"),
            std::string::npos);
  // Under bag semantics r is bag valued: NOT equivalent.
  EXPECT_NE(Must(engine.Execute("EQUIV a b UNDER B")).find("a != b"),
            std::string::npos);
}

TEST(ShellEngine, ExplainProducesTraces) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  Must(engine.Execute(
      "QUERY a := SELECT e.id FROM emp e, dept d WHERE e.dept = d.id"));
  Must(engine.Execute("QUERY b := SELECT id FROM emp"));
  std::string out = Must(engine.Execute("EXPLAIN a b"));
  EXPECT_NE(out.find("EQUIVALENT"), std::string::npos);
  EXPECT_NE(out.find("witness"), std::string::npos);
}

TEST(ShellEngine, MinimizeRendersSql) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  Must(engine.Execute(
      "QUERY a := SELECT e.id FROM emp e, dept d WHERE e.dept = d.id"));
  std::string out = Must(engine.Execute("MINIMIZE a"));
  EXPECT_NE(out.find("SELECT t0.id FROM emp t0"), std::string::npos) << out;
}

TEST(ShellEngine, RewriteUsesRegisteredViews) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  Must(engine.Execute("VIEW v_ed(E, M) :- emp(E, D), dept(D, M)"));
  Must(engine.Execute(
      "QUERY a := SELECT e.id, d.mgr FROM emp e, dept d WHERE e.dept = d.id"));
  std::string out = Must(engine.Execute("REWRITE a"));
  EXPECT_NE(out.find("v_ed"), std::string::npos) << out;
}

TEST(ShellEngine, RewriteWithoutViewsFails) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  Must(engine.Execute("QUERY a := SELECT id FROM emp"));
  EXPECT_FALSE(engine.Execute("REWRITE a").ok());
}

TEST(ShellEngine, ShowCommands) {
  ScriptEngine engine;
  Must(engine.Run(kSetup));
  Must(engine.Execute("QUERY a := SELECT id FROM emp"));
  EXPECT_NE(Must(engine.Execute("SHOW SCHEMA")).find("emp"), std::string::npos);
  EXPECT_NE(Must(engine.Execute("SHOW SIGMA")).find("fk_emp_dept"),
            std::string::npos);
  EXPECT_NE(Must(engine.Execute("SHOW DATA")).find("clicks"), std::string::npos);
  EXPECT_NE(Must(engine.Execute("SHOW QUERIES")).find("a:"), std::string::npos);
  EXPECT_FALSE(engine.Execute("SHOW NONSENSE").ok());
}

TEST(ShellEngine, ErrorsForUnknownThings) {
  ScriptEngine engine;
  EXPECT_FALSE(engine.Execute("FROBNICATE x").ok());
  EXPECT_FALSE(engine.Execute("EVAL missing").ok());
  EXPECT_FALSE(engine.Execute("EQUIV a").ok());
  EXPECT_FALSE(engine.Execute("EQUIV a b UNDER XY").ok());
  EXPECT_FALSE(engine.Execute("QUERY q := SELECT x FROM missing").ok());
}

TEST(ShellEngine, EmptyStatementsIgnored) {
  ScriptEngine engine;
  EXPECT_EQ(Must(engine.Run(";;  ;")), "");
}

TEST(ShellEngine, Example41EntirelyThroughSql) {
  // The paper's Example 4.1 expressed as DDL + DEP statements: S and T get
  // their set-valuedness and keys from PRIMARY KEY clauses; the four tgds
  // arrive via DEP; the three semantics disagree exactly as in §4.1.
  shell::ScriptEngine engine;
  Result<std::string> out = engine.Run(R"(
    CREATE TABLE p (c0 INT, c1 INT);
    CREATE TABLE r (c0 INT);
    CREATE TABLE s (c0 INT PRIMARY KEY, c1 INT);
    CREATE TABLE t (c0 INT, c1 INT, c2 INT, PRIMARY KEY (c0, c1));
    CREATE TABLE u (c0 INT, c1 INT);
    DEP p(X, Y) -> s(X, Z), t(X, V, W);
    DEP p(X, Y) -> t(X, Y, W);
    DEP p(X, Y) -> r(X);
    DEP p(X, Y) -> u(X, Z), t(X, Y, W);
    QUERY q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U);
    QUERY q4(X) :- p(X, Y);
    EQUIV q1 q4 UNDER S;
    EQUIV q1 q4 UNDER BS;
    EQUIV q1 q4 UNDER B;
    MINIMIZE q1 UNDER B
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The key egds from the PRIMARY KEY clauses stand in for σ7/σ8.
  EXPECT_NE(out->find("q1 == q4  under S"), std::string::npos) << *out;
  EXPECT_NE(out->find("q1 != q4  under BS"), std::string::npos) << *out;
  EXPECT_NE(out->find("q1 != q4  under B"), std::string::npos) << *out;
  // Bag-C&B's Σ-minimal reformulation of q1 keeps p, r, u.
  EXPECT_NE(out->find("FROM p t0, r t1, u t2"), std::string::npos) << *out;
}

TEST(ShellEngine, QueryRedefinitionReplaces) {
  ScriptEngine engine;
  Must(engine.Run("CREATE TABLE p (a INT, b INT);"));
  Must(engine.Execute("QUERY q(X) :- p(X, Y)"));
  Must(engine.Execute("QUERY q(X, Y) :- p(X, Y)"));
  NamedQuery q = std::move(engine.GetQuery("q")).value();
  EXPECT_EQ(q.query.head().size(), 2u);
}

TEST(ShellEngine, SetBudgetAndShowBudget) {
  ScriptEngine engine;
  Must(engine.Execute("SET BUDGET 100 50"));
  EXPECT_EQ(engine.budget().max_chase_steps, 100u);
  EXPECT_EQ(engine.budget().max_candidates, 50u);
  std::string shown = Must(engine.Execute("SHOW BUDGET"));
  EXPECT_NE(shown.find("steps=100"), std::string::npos) << shown;
  EXPECT_NE(shown.find("candidates=50"), std::string::npos) << shown;
  EXPECT_EQ(shown.find("threads"), std::string::npos) << shown;
}

TEST(ShellEngine, SetRejectsBadArguments) {
  ScriptEngine engine;
  EXPECT_FALSE(engine.Execute("SET THREADS 4").ok());  // no such setting
  EXPECT_FALSE(engine.Execute("SET BUDGET 100").ok());
  EXPECT_FALSE(engine.Execute("SET BUDGET 0 10").ok());
  EXPECT_FALSE(engine.Execute("SET BUDGET 10 0").ok());
  EXPECT_FALSE(engine.Execute("SET BUDGET -5 10").ok());
  EXPECT_FALSE(engine.Execute("SET GIZMO 3").ok());
  // A count bigger than size_t is rejected as overflow, not wrapped.
  Result<std::string> overflow =
      engine.Execute("SET BUDGET 99999999999999999999999999 10");
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("overflows"), std::string::npos)
      << overflow.status().ToString();
  // Failed SETs leave the budget at its defaults.
  EXPECT_EQ(engine.budget().max_chase_steps, ResourceBudget{}.max_chase_steps);
}

TEST(ShellEngine, SetRetryConfiguresAndValidatesThePolicy) {
  ScriptEngine engine;
  EXPECT_FALSE(engine.retry().has_value());
  std::string on = Must(engine.Execute("SET RETRY 4 3.5"));
  EXPECT_NE(on.find("4 attempt"), std::string::npos) << on;
  ASSERT_TRUE(engine.retry().has_value());
  EXPECT_EQ(engine.retry()->max_attempts, 4u);
  EXPECT_DOUBLE_EQ(engine.retry()->growth, 3.5);
  std::string shown = Must(engine.Execute("SHOW BUDGET"));
  EXPECT_NE(shown.find("retry"), std::string::npos) << shown;

  EXPECT_FALSE(engine.Execute("SET RETRY 0").ok());
  EXPECT_FALSE(engine.Execute("SET RETRY two").ok());
  EXPECT_FALSE(engine.Execute("SET RETRY 3 0.5").ok());
  EXPECT_FALSE(engine.Execute("SET RETRY 3 fast").ok());
  // Failed SETs leave the policy untouched.
  ASSERT_TRUE(engine.retry().has_value());
  EXPECT_EQ(engine.retry()->max_attempts, 4u);

  Must(engine.Execute("SET RETRY OFF"));
  EXPECT_FALSE(engine.retry().has_value());
}

TEST(ShellEngine, RetryFinishesWhatTheBaseBudgetCannot) {
  ScriptEngine engine;
  Must(engine.Run(R"(
    CREATE TABLE p (a INT, b INT);
    QUERY q(X) :- p(X, Y1), p(X, Y2);
  )"));
  Must(engine.Execute("SET BUDGET 5000 1"));
  // Without retries: a partial result.
  EXPECT_NE(Must(engine.Execute("MINIMIZE q UNDER S")).find("(incomplete:"),
            std::string::npos);
  // With an escalating retry policy the same statement finishes.
  Must(engine.Execute("SET RETRY 4 4"));
  std::string out = Must(engine.Execute("MINIMIZE q UNDER S"));
  EXPECT_EQ(out.find("(incomplete:"), std::string::npos) << out;
  EXPECT_NE(out.find("FROM p"), std::string::npos) << out;
}

TEST(ShellEngine, CancellationAnnotatesEquivAsUnknown) {
  ScriptEngine engine;
  CancellationToken cancel;
  cancel.Cancel();
  engine.set_cancellation(&cancel);
  Must(engine.Run(R"(
    CREATE TABLE p (a INT, b INT);
    QUERY q1(X) :- p(X, Y);
    QUERY q2(X) :- p(X, Y);
  )"));
  std::string out = Must(engine.Execute("EQUIV q1 q2 UNDER S"));
  EXPECT_NE(out.find("??"), std::string::npos) << out;
  EXPECT_NE(out.find("(incomplete: cancelled"), std::string::npos) << out;
  // Clearing the token restores decided verdicts.
  cancel.Reset();
  std::string decided = Must(engine.Execute("EQUIV q1 q2 UNDER S"));
  EXPECT_EQ(decided.find("??"), std::string::npos) << decided;
}

TEST(ShellEngine, BudgetFlowsIntoMinimize) {
  ScriptEngine engine;
  Must(engine.Run(R"(
    CREATE TABLE p (a INT, b INT);
    QUERY q(X) :- p(X, Y1), p(X, Y2);
  )"));
  // A 1-candidate budget cannot finish the 2-atom lattice: the statement
  // still succeeds, reporting a partial result (anytime contract).
  Must(engine.Execute("SET BUDGET 5000 1"));
  std::string partial = Must(engine.Execute("MINIMIZE q UNDER S"));
  EXPECT_NE(partial.find("(incomplete:"), std::string::npos) << partial;
  EXPECT_NE(partial.find("max_candidates"), std::string::npos) << partial;
  // Restoring a roomy budget makes the same MINIMIZE finish.
  Must(engine.Execute("SET BUDGET 5000 1000"));
  EXPECT_NE(Must(engine.Execute("MINIMIZE q UNDER S")).find("FROM p"),
            std::string::npos);
}

}  // namespace
}  // namespace shell
}  // namespace sqleq
