// Differential check of the SQL front-end. TranslateSql must give
// byte-identical TranslatedQuery::ToString() output (semantics included),
// and identical error texts, to the translator it replaced (tokens owning
// their text, a std::map alias table) on every query the sql_* suites
// translate or parse and on generated warehouse and tpch workloads rendered
// by RenderSql under S, B and BS. The outputs are pinned to digests of the
// replaced translator's output; the two were also compared line by line
// before it was deleted.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sql/render.h"
#include "sql/translate.h"
#include "util/crc32.h"
#include "workload/generator.h"

namespace sqleq {
namespace sql {
namespace {

/// The ToString() of a translation, or its error.
std::string Render(const Result<TranslatedQuery>& r) {
  return r.ok() ? r->ToString() : "error: " + r.status().ToString();
}

Catalog Must(Result<Catalog> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *std::move(r) : Catalog{};
}

/// The catalogs of the sql_* suites.
Catalog EmpCatalog() {
  return Must(CatalogFromScript(R"(
    CREATE TABLE dept (id INT PRIMARY KEY, mgr INT);
    CREATE TABLE emp (id INT PRIMARY KEY, dept INT, salary INT,
                      FOREIGN KEY (dept) REFERENCES dept (id));
    CREATE TABLE log (emp INT, action TEXT);
  )"));
}

Catalog LetterCatalog() {
  return Must(CatalogFromScript(R"(
    CREATE TABLE t (a INT, b INT, c INT, d TEXT);
    CREATE TABLE u (a INT, b INT, c INT);
    CREATE TABLE r (a INT PRIMARY KEY, b INT);
    CREATE TABLE t1 (x INT, y INT);
    CREATE TABLE t2 (x INT, y INT);
    CREATE TABLE t3 (y INT);
    CREATE TABLE a (x INT);
  )"));
}

// Every SELECT the sql_* suites parse or translate, plus the alias, literal
// and error shapes the translator distinguishes.
constexpr const char* kEmpQueries[] = {
    "SELECT e.id FROM emp e, dept d WHERE e.dept = d.id AND d.mgr = 7",
    "SELECT e.id FROM emp e, dept d WHERE e.dept = d.id",
    "SELECT DISTINCT id FROM emp",
    "SELECT id FROM emp",
    "SELECT emp FROM log",
    "SELECT id FROM emp WHERE salary = 100",
    "SELECT e1.id FROM emp e1, emp e2 WHERE e1.dept = e2.dept AND e2.dept = 7",
    "SELECT id FROM emp WHERE salary = 1 AND salary = 2",
    "SELECT id FROM emp WHERE 1 = 2",
    "SELECT id FROM emp WHERE 3 = 3 AND salary = 3",
    "SELECT salary FROM emp",
    "SELECT id FROM emp, dept",
    "SELECT nope FROM emp",
    "SELECT zz.id FROM emp",
    "SELECT e.nope FROM emp e",
    "SELECT a FROM missing",
    "SELECT e.id FROM emp e, dept e",
    "SELECT e1.id, e2.id FROM emp e1, emp e2",
    "SELECT dept, SUM(salary) FROM emp GROUP BY dept",
    "SELECT COUNT(*) FROM log",
    "SELECT id, SUM(salary) FROM emp GROUP BY dept",
    "SELECT dept FROM emp GROUP BY dept",
    "SELECT SUM(salary), MAX(salary) FROM emp",
    "SELECT DISTINCT SUM(salary) FROM emp",
    "SELECT MIN(salary), COUNT(*) FROM emp",
    "SELECT dept, COUNT(id) FROM emp GROUP BY dept",
    "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id",
    "SELECT * FROM dept",
    "SELECT * FROM emp e, dept d WHERE e.dept = d.id",
    "SELECT 1, e.id FROM emp e",
    "SELECT 1 AS one, id AS alpha FROM emp",
    "SELECT l.emp FROM log l WHERE l.action = 'login'",
    "SELECT l.emp FROM log l WHERE 'login' = l.action AND l.emp = e.id",
    "SELECT e.id FROM emp e, log l WHERE l.emp = e.id AND e.salary = l.emp",
    "SELECT d.mgr FROM dept d, emp e WHERE e.id = d.mgr AND d.mgr = 5 AND e.dept = 5",
    "SELECT e.id FROM emp e WHERE e.id = 9223372036854775807",
    "SELECT e.id FROM emp e WHERE e.id = -9223372036854775808",
};

constexpr const char* kLetterQueries[] = {
    "SELECT a FROM t",
    "SELECT DISTINCT t.a, u.b FROM t, u",
    "SELECT x.a FROM t AS x, u y",
    "SELECT a FROM t, u WHERE t.a = u.b AND u.c = 5 AND 'x' = t.d",
    "SELECT t.a FROM t, u WHERE t.a = u.b AND u.c = 5 AND 'x' = t.d",
    "SELECT COUNT(*) FROM t",
    "SELECT 1 AS one, a AS alpha FROM t",
    "SELECT a FROM t;",
    "SELECT a.x FROM t1 a INNER JOIN t2 b ON a.x = b.x JOIN t3 c ON b.y = c.y",
    "SELECT a.x FROM t1 a JOIN t2 b ON a.x = b.x, t3 c WHERE c.y = 1",
    "SELECT * FROM t",
    "SELECT x FROM a",
    "SELECT a FROM nope",
    "SELECT zz FROM r",
    "SELECT t9.a FROM r t0",
    "SELECT a FROM r t0 WHERE t0.a = t0.b AND t0.b = 3",
    "SELECT",
    "SELECT FROM r",
    "SELECT * FROM",
    "SELECT a FROM r WHERE",
    "SELECT a, FROM r",
    "SELECT a FROM r t0,",
    "SELECT a FROM r WHERE a =",
    "SELECT a FROM r GROUP BY",
    "SELECT (a FROM r",
    "SELECT 'unterminated FROM r",
    "SELECT a FROM t extra garbage ,",
    "SELECT @x FROM t",
};

// The digest is that of the replaced translator's output (its parser and
// lexer included) on the same queries, one per line, in list order; a
// change here changes a CQ or an error text of some query above.
TEST(SqlTranslateDifferential, SuiteQueries) {
  const Catalog emp = EmpCatalog();
  const Catalog letters = LetterCatalog();
  uint32_t crc = 0;
  size_t translated = 0;
  auto add = [&](std::string_view text, const Catalog& catalog) {
    std::string line = Render(TranslateSql(text, catalog));
    line += '\n';
    crc = Crc32Update(crc, line.data(), line.size());
    ++translated;
  };
  for (const char* text : kEmpQueries) add(text, emp);
  for (const char* text : kLetterQueries) add(text, letters);
  EXPECT_EQ(translated, 65u);
  EXPECT_EQ(crc, 1879310656u);
}

// Integer literals past the int64 range, which the replaced translator did
// not translate at all (its std::stoll threw).
TEST(SqlTranslateDifferential, OutOfRangeIntegerLiterals) {
  EXPECT_EQ(Render(TranslateSql("SELECT e.id FROM emp e WHERE e.id = 9223372036854775808",
                                EmpCatalog())),
            "error: InvalidArgument: integer literal out of range near offset 36");
  EXPECT_EQ(Render(TranslateSql("SELECT r.a FROM r WHERE r.b = 99999999999999999999",
                                LetterCatalog())),
            "error: InvalidArgument: integer literal out of range near offset 30");
}

/// Translates `num_queries` generated queries of `schema_template`, each
/// rendered under S, B and BS, and returns the CRC-32 of the outputs, one
/// per line.
uint32_t WorkloadDigest(const std::string& schema_template, size_t num_queries,
                        size_t* translated) {
  workload::WorkloadOptions options;
  options.schema_template = schema_template;
  options.seed = 7;
  options.num_queries = num_queries;
  options.max_join_depth = schema_template == "tpch" ? 6 : 4;
  Result<workload::Workload> w = workload::GenerateWorkload(options);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  if (!w.ok()) return 0;
  const Catalog& catalog = w->schema.catalog;
  uint32_t crc = 0;
  *translated = 0;
  for (const workload::WorkloadQuery& item : w->queries) {
    for (Semantics s : {Semantics::kSet, Semantics::kBag, Semantics::kBagSet}) {
      Result<std::string> text = RenderSql(item.query, catalog.schema, s);
      EXPECT_TRUE(text.ok()) << text.status().ToString();
      if (!text.ok()) continue;
      std::string line = Render(TranslateSql(*text, catalog));
      line += '\n';
      crc = Crc32Update(crc, line.data(), line.size());
      ++*translated;
    }
  }
  return crc;
}

// The digests are those of the replaced translator's output on the same
// workloads; a change here changes a CQ some SQL text translates to.
TEST(SqlTranslateDifferential, WarehouseWorkload) {
  size_t translated = 0;
  const uint32_t digest = WorkloadDigest("warehouse", 400, &translated);
  EXPECT_EQ(translated, 1200u);
  EXPECT_EQ(digest, 1558342135u);
}

TEST(SqlTranslateDifferential, TpchWorkload) {
  size_t translated = 0;
  const uint32_t digest = WorkloadDigest("tpch", 400, &translated);
  EXPECT_EQ(translated, 1200u);
  EXPECT_EQ(digest, 2120630354u);
}

}  // namespace
}  // namespace sql
}  // namespace sqleq
