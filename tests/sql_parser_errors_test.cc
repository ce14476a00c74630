// Error-path hardening for the SQL front end: malformed inputs must come
// back as Status values — never crash, hang, or return a half-built AST.
// Runs under the asan/ubsan presets (see tests/CMakeLists.txt labels).
#include <gtest/gtest.h>

#include <cstdint>

#include <string>
#include <vector>

#include "sql/sql_parser.h"
#include "sql/translate.h"
#include "test_util.h"

namespace sqleq {
namespace {

sql::Catalog TestCatalog() {
  sql::Catalog catalog;
  catalog.schema.AddRelation("r", 2);
  catalog.schema.AddRelation("s", 1);
  return catalog;
}

TEST(SqlParserErrors, MalformedSelects) {
  const std::vector<std::string> inputs = {
      "",
      ";",
      "SELECT",
      "SELECT FROM r",
      "SELECT * FROM",
      "SELECT a FROM r WHERE",
      "SELECT a, FROM r",
      "SELECT a FROM r t0,",
      "SELECT a FROM r WHERE a =",
      "SELECT a FROM r WHERE a = b AND",
      "SELECT a FROM r GROUP",
      "SELECT a FROM r GROUP BY",
      "SELECT (a FROM r",
      "SELECT a FROM r WHERE (a = b",
      "SELECT 'unterminated FROM r",
  };
  for (const std::string& text : inputs) {
    EXPECT_FALSE(sql::ParseSelect(text).ok()) << "accepted: " << text;
  }
}

TEST(SqlParserErrors, MalformedCreateTables) {
  const std::vector<std::string> inputs = {
      "CREATE",
      "CREATE TABLE",
      "CREATE TABLE t",
      "CREATE TABLE t (",
      "CREATE TABLE t ()",
      "CREATE TABLE t (a)",             // missing type
      "CREATE TABLE t (a INT",          // unclosed
      "CREATE TABLE t (a INT,)",
      "CREATE TABLE t (a INT, PRIMARY)",
      "CREATE TABLE t (a INT, PRIMARY KEY)",
      "CREATE TABLE t (a INT, FOREIGN KEY (a))",   // missing REFERENCES
      "CREATE TABLE (a INT)",
  };
  for (const std::string& text : inputs) {
    EXPECT_FALSE(sql::ParseCreateTable(text).ok()) << "accepted: " << text;
  }
  // And the dispatcher rejects non-CREATE input outright.
  EXPECT_FALSE(sql::ParseCreateTable("SELECT a FROM r").ok());
}

TEST(SqlParserErrors, ApplyCreateTableRejectsSemanticErrors) {
  // These parse (column-level validation is deferred) but must fail apply.
  const std::vector<std::string> inputs = {
      "CREATE TABLE t (a INT, a INT)",            // duplicate column
      "CREATE TABLE t (a INT, PRIMARY KEY (b))",  // unknown key column
      "CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES nope (x))",
  };
  for (const std::string& text : inputs) {
    sql::Catalog catalog = TestCatalog();
    sql::CreateTableStatement stmt =
        testing::Unwrap(sql::ParseCreateTable(text), text.c_str());
    EXPECT_FALSE(sql::ApplyCreateTable(stmt, &catalog).ok()) << "applied: " << text;
  }
  // Re-creating an existing relation is also an apply-time error.
  sql::Catalog catalog = TestCatalog();
  sql::CreateTableStatement stmt =
      testing::Unwrap(sql::ParseCreateTable("CREATE TABLE r (a INT)"));
  EXPECT_FALSE(sql::ApplyCreateTable(stmt, &catalog).ok());
}

TEST(SqlParserErrors, MalformedInserts) {
  const std::vector<std::string> inputs = {
      "INSERT",
      "INSERT INTO",
      "INSERT INTO t",
      "INSERT INTO t VALUES",
      "INSERT INTO t VALUES (",
      "INSERT INTO t VALUES ()",
      "INSERT INTO t VALUES (1,)",
      "INSERT INTO t VALUES (1) (2",
      "INSERT t VALUES (1)",
      "INSERT INTO t VALUES (1), ",
  };
  for (const std::string& text : inputs) {
    EXPECT_FALSE(sql::ParseInsert(text).ok()) << "accepted: " << text;
  }
}

TEST(SqlParserErrors, MalformedStatementsAndScripts) {
  EXPECT_FALSE(sql::ParseStatement("DROP TABLE r").ok());
  EXPECT_FALSE(sql::ParseStatement("UPDATE r SET a = 1").ok());
  EXPECT_FALSE(sql::ParseStatement("garbage ; more garbage").ok());
  EXPECT_FALSE(sql::ParseScript("CREATE TABLE t (a INT); SELECT FROM").ok());
  EXPECT_FALSE(sql::ParseScript("SELECT a FROM r; ; DROP").ok());
}

TEST(SqlParserErrors, TranslateRejectsSemanticNonsense) {
  sql::Catalog catalog = TestCatalog();
  // Unknown relation / column; ambiguous column; bad alias references.
  EXPECT_FALSE(sql::TranslateSql("SELECT a FROM nope", catalog, "q").ok());
  EXPECT_FALSE(sql::TranslateSql("SELECT zz FROM r", catalog, "q").ok());
  EXPECT_FALSE(
      sql::TranslateSql("SELECT t9.a FROM r t0", catalog, "q").ok());
}

TEST(SqlParserErrors, IntegerLiteralsAtTheInt64Bounds) {
  sql::Catalog catalog = TestCatalog();
  Result<sql::TranslatedQuery> max = sql::TranslateSql(
      "SELECT t0.c0 FROM r t0 WHERE t0.c1 = 9223372036854775807", catalog);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->cq->body()[0].args()[1], Term::Int(INT64_MAX));
  Result<sql::TranslatedQuery> min = sql::TranslateSql(
      "SELECT t0.c0 FROM r t0 WHERE t0.c1 = -9223372036854775808", catalog);
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_EQ(min->cq->body()[0].args()[1], Term::Int(INT64_MIN));
  // One past either bound, in WHERE, in the SELECT list and in INSERT.
  for (const char* text : {"SELECT t0.c0 FROM r t0 WHERE t0.c1 = 9223372036854775808",
                           "SELECT t0.c0 FROM r t0 WHERE t0.c1 = -9223372036854775809"}) {
    Result<sql::SelectStatement> stmt = sql::ParseSelect(text);
    ASSERT_FALSE(stmt.ok()) << text;
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(stmt.status().message(), "integer literal out of range near offset 37");
  }
  EXPECT_EQ(sql::ParseSelect("SELECT 99999999999999999999 FROM r").status().message(),
            "integer literal out of range near offset 7");
  EXPECT_FALSE(sql::ParseInsert("INSERT INTO r VALUES (1, 99999999999999999999)").ok());
}

TEST(SqlParserErrors, DeepNestingDoesNotOverflow) {
  // A pathological WHERE chain; the parser must fail (or succeed) finitely.
  std::string text = "SELECT a FROM r t0 WHERE ";
  for (int i = 0; i < 2000; ++i) text += "(";
  text += "t0.a = 1";
  Result<sql::SelectStatement> result = sql::ParseSelect(text);
  EXPECT_FALSE(result.ok());  // unbalanced parens
}

}  // namespace
}  // namespace sqleq
