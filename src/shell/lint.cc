#include "shell/lint.h"

#include <cctype>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraints/dependency.h"
#include "ir/parser.h"
#include "ir/query.h"
#include "sql/sql_parser.h"
#include "sql/translate.h"
#include "util/string_util.h"
#include "util/telemetry.h"

namespace sqleq {
namespace shell {
namespace {

/// First whitespace-delimited word of `s`, and the remainder.
std::pair<std::string, std::string_view> SplitKeyword(std::string_view s) {
  s = Trim(s);
  size_t i = 0;
  while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return {std::string(s.substr(0, i)), Trim(s.substr(i))};
}

bool IsSemanticsName(std::string_view name) {
  return EqualsIgnoreCase(name, "S") || EqualsIgnoreCase(name, "SET") ||
         EqualsIgnoreCase(name, "B") || EqualsIgnoreCase(name, "BAG") ||
         EqualsIgnoreCase(name, "BS") || EqualsIgnoreCase(name, "BAGSET");
}

/// Everything the lenient replay of the declaration statements accumulates.
struct ScriptState {
  sql::Catalog catalog;
  std::vector<ParsedQueryParts> queries;   // QUERY + VIEW definitions, in order
  std::set<std::string> known_names;       // names EVAL/EQUIV/... may reference
  size_t views = 0;
  int dep_counter = 0;
  AnalysisReport report;
  MetricsRegistry* metrics = nullptr;  // analysis.diag.<code> counters
};

void Emit(ScriptState* st, std::string code, Severity severity, std::string subject,
          std::string message, std::string fix_hint = "") {
  if (st->metrics != nullptr) {
    st->metrics->counter(metric::kAnalysisDiagPrefix + code).Add();
  }
  st->report.diagnostics.push_back(Diagnostic{std::move(code), severity,
                                              std::move(message), std::move(subject),
                                              std::move(fix_hint)});
}

std::string StatementSubject(size_t number, const std::string& keyword) {
  return "statement " + std::to_string(number) + " (" + keyword + ")";
}

/// Extracts the referenced names from "a b UNDER BS"-shaped arguments.
/// Reports a parse-error for an unknown semantics token; returns the names.
std::vector<std::string> ArgNames(ScriptState* st, const std::string& subject,
                                  std::string_view rest) {
  std::vector<std::string> names;
  std::string_view remaining = Trim(rest);
  while (!remaining.empty()) {
    auto [word, tail] = SplitKeyword(remaining);
    if (EqualsIgnoreCase(word, "UNDER")) {
      auto [sem, tail2] = SplitKeyword(tail);
      if (!IsSemanticsName(sem)) {
        Emit(st, "parse-error", Severity::kError, subject,
             "unknown semantics '" + sem + "'", "use UNDER S, B, or BS");
      }
      remaining = tail2;
      continue;
    }
    names.push_back(word);
    remaining = tail;
  }
  return names;
}

void CheckReferences(ScriptState* st, const std::string& subject,
                     std::string_view rest, size_t expected, const char* usage) {
  std::vector<std::string> names = ArgNames(st, subject, rest);
  if (names.size() != expected) {
    Emit(st, "parse-error", Severity::kError, subject,
         "expected " + std::to_string(expected) + " query name(s), got " +
             std::to_string(names.size()),
         usage);
    return;
  }
  for (const std::string& name : names) {
    if (st->known_names.count(name) == 0) {
      Emit(st, "unknown-query", Severity::kError, subject,
           "'" + name + "' is not defined by any QUERY or VIEW statement",
           "define it earlier in the script with QUERY or VIEW");
    }
  }
}

void LintCreate(ScriptState* st, const std::string& subject,
                std::string_view statement) {
  Result<sql::CreateTableStatement> stmt = sql::ParseCreateTable(statement);
  if (!stmt.ok()) {
    Emit(st, "parse-error", Severity::kError, subject,
         std::string(stmt.status().message()));
    return;
  }
  Status applied = sql::ApplyCreateTable(*stmt, &st->catalog);
  if (!applied.ok()) {
    Emit(st, "parse-error", Severity::kError, subject,
         std::string(applied.message()));
  }
}

void LintInsert(ScriptState* st, const std::string& subject,
                std::string_view statement) {
  Result<sql::InsertStatement> stmt = sql::ParseInsert(statement);
  if (!stmt.ok()) {
    Emit(st, "parse-error", Severity::kError, subject,
         std::string(stmt.status().message()));
    return;
  }
  // The linter loads no data; only the table reference and row widths are
  // checked here.
  if (!st->catalog.schema.HasRelation(stmt->table)) {
    Emit(st, "unknown-relation", Severity::kError, subject,
         "INSERT into '" + stmt->table + "', which no CREATE TABLE declares",
         "add a CREATE TABLE " + stmt->table + " statement first");
    return;
  }
  size_t arity = st->catalog.schema.ArityOf(stmt->table);
  for (const auto& row : stmt->rows) {
    if (row.size() != arity) {
      Emit(st, "arity-mismatch", Severity::kError, subject,
           "row of width " + std::to_string(row.size()) + " inserted into '" +
               stmt->table + "' of arity " + std::to_string(arity));
    }
  }
}

void LintDep(ScriptState* st, const std::string& subject, std::string_view rest) {
  Result<std::vector<Dependency>> deps =
      ParseDependency(rest, "user" + std::to_string(++st->dep_counter));
  if (!deps.ok()) {
    Emit(st, "parse-error", Severity::kError, subject,
         std::string(deps.status().message()));
    return;
  }
  for (Dependency& dep : *deps) st->catalog.sigma.push_back(std::move(dep));
}

void LintQueryDefinition(ScriptState* st, const std::string& subject,
                         std::string_view rest, bool is_view) {
  rest = Trim(rest);
  size_t assign = is_view ? std::string_view::npos : rest.find(":=");
  if (assign != std::string_view::npos) {
    // QUERY <name> := SELECT ...
    std::string name(Trim(rest.substr(0, assign)));
    if (name.empty()) {
      Emit(st, "parse-error", Severity::kError, subject,
           "query name may not be empty");
      return;
    }
    Result<sql::TranslatedQuery> translated =
        sql::TranslateSql(Trim(rest.substr(assign + 2)), st->catalog, name);
    if (!translated.ok()) {
      Emit(st, "parse-error", Severity::kError, subject,
           std::string(translated.status().message()));
      return;
    }
    if (translated->is_aggregate) {
      Emit(st, "parse-error", Severity::kError, subject,
           "aggregate queries are not supported in QUERY",
           "use the AggregateCandB API directly");
      return;
    }
    st->queries.push_back(ParsedQueryParts{name, translated->cq->head(),
                                           translated->cq->body()});
    st->known_names.insert(name);
    return;
  }
  // Datalog text; the lenient parse keeps unsafe heads and empty bodies for
  // the analyzer to diagnose instead of dying here.
  Result<ParsedQueryParts> parts = ParseQueryParts(rest);
  if (!parts.ok()) {
    Emit(st, "parse-error", Severity::kError, subject,
         std::string(parts.status().message()));
    return;
  }
  if (parts->name.empty()) {
    Emit(st, "parse-error", Severity::kError, subject,
         "query name may not be empty");
    return;
  }
  st->known_names.insert(parts->name);
  if (is_view) ++st->views;
  st->queries.push_back(*std::move(parts));
}

void LintSet(ScriptState* st, const std::string& subject, std::string_view rest) {
  auto [what, tail] = SplitKeyword(rest);
  (void)tail;
  if (!EqualsIgnoreCase(what, "BUDGET") && !EqualsIgnoreCase(what, "RETRY")) {
    Emit(st, "parse-error", Severity::kError, subject,
         "unknown SET target '" + what + "'",
         "use SET BUDGET <chase-steps> <candidates> or SET RETRY <attempts> [<growth>]");
  }
}

void LintShow(ScriptState* st, const std::string& subject, std::string_view rest) {
  auto [what, tail] = SplitKeyword(rest);
  bool known = EqualsIgnoreCase(what, "SCHEMA") || EqualsIgnoreCase(what, "SIGMA") ||
               EqualsIgnoreCase(what, "QUERIES") || EqualsIgnoreCase(what, "DATA") ||
               EqualsIgnoreCase(what, "BUDGET");
  if (!known || !Trim(tail).empty()) {
    Emit(st, "parse-error", Severity::kError, subject,
         "usage: SHOW SCHEMA|SIGMA|QUERIES|DATA|BUDGET");
  }
}

void LintStatement(ScriptState* st, size_t number, std::string_view statement) {
  auto [keyword, rest] = SplitKeyword(statement);
  const std::string subject = StatementSubject(number, keyword);
  if (EqualsIgnoreCase(keyword, "CREATE")) return LintCreate(st, subject, statement);
  if (EqualsIgnoreCase(keyword, "INSERT")) return LintInsert(st, subject, statement);
  if (EqualsIgnoreCase(keyword, "DEP")) return LintDep(st, subject, rest);
  if (EqualsIgnoreCase(keyword, "VIEW")) {
    return LintQueryDefinition(st, subject, rest, /*is_view=*/true);
  }
  if (EqualsIgnoreCase(keyword, "QUERY")) {
    return LintQueryDefinition(st, subject, rest, /*is_view=*/false);
  }
  if (EqualsIgnoreCase(keyword, "EVAL")) {
    return CheckReferences(st, subject, rest, 1, "usage: EVAL <query> [UNDER S|B|BS]");
  }
  if (EqualsIgnoreCase(keyword, "EQUIV") || EqualsIgnoreCase(keyword, "EXPLAIN")) {
    if (EqualsIgnoreCase(keyword, "EXPLAIN")) {
      auto [mode, tail] = SplitKeyword(rest);
      if (EqualsIgnoreCase(mode, "SLICE")) {
        // EXPLAIN SLICE <query> — one name, no semantics clause.
        return CheckReferences(st, subject, tail, 1,
                               "usage: EXPLAIN SLICE <query>");
      }
    }
    return CheckReferences(st, subject, rest, 2,
                           "usage: EQUIV|EXPLAIN <q1> <q2> [UNDER S|B|BS]");
  }
  if (EqualsIgnoreCase(keyword, "MINIMIZE")) {
    return CheckReferences(st, subject, rest, 1,
                           "usage: MINIMIZE <query> [UNDER S|B|BS]");
  }
  if (EqualsIgnoreCase(keyword, "REWRITE")) {
    if (st->views == 0) {
      Emit(st, "parse-error", Severity::kError, subject,
           "REWRITE with no views registered", "add VIEW statements first");
    }
    return CheckReferences(st, subject, rest, 1,
                           "usage: REWRITE <query> [UNDER S|B|BS]");
  }
  if (EqualsIgnoreCase(keyword, "LINT")) {
    auto [mode, tail] = SplitKeyword(rest);
    if ((!mode.empty() && !EqualsIgnoreCase(mode, "STRICT")) || !Trim(tail).empty()) {
      Emit(st, "parse-error", Severity::kError, subject, "usage: LINT [STRICT]");
    }
    return;
  }
  if (EqualsIgnoreCase(keyword, "SET")) return LintSet(st, subject, rest);
  if (EqualsIgnoreCase(keyword, "SHOW")) return LintShow(st, subject, rest);
  Emit(st, "parse-error", Severity::kError, subject,
       "unknown command '" + keyword + "'");
}

}  // namespace

std::string LintSummaryLine(const AnalysisReport& report) {
  return "lint: " + std::to_string(report.CountOf(Severity::kError)) +
         " error(s), " + std::to_string(report.CountOf(Severity::kWarning)) +
         " warning(s), " + std::to_string(report.CountOf(Severity::kInfo)) +
         " note(s)";
}

std::string LintResult::ToString() const {
  std::string out = report.ToString();
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += LintSummaryLine(report) + "\n";
  return out;
}

LintResult LintScript(std::string_view script, const AnalyzeOptions& opts) {
  std::string stripped = StripLineComments(script);
  script = stripped;
  ScriptState state;
  state.metrics = opts.metrics;
  size_t number = 0;
  size_t start = 0;
  while (start <= script.size()) {
    size_t end = script.find(';', start);
    if (end == std::string_view::npos) end = script.size();
    std::string_view piece = Trim(script.substr(start, end - start));
    if (!piece.empty()) LintStatement(&state, ++number, piece);
    if (end == script.size()) break;
    start = end + 1;
  }

  state.report.Merge(AnalyzeDependencies(state.catalog.schema, state.catalog.sigma,
                                         opts));
  for (const ParsedQueryParts& q : state.queries) {
    state.report.Merge(AnalyzeQueryParts(state.catalog.schema, q.name, q.head,
                                         q.body, opts));
  }
  if (opts.check_slicing) {
    std::vector<QueryBodyRef> bodies;
    bodies.reserve(state.queries.size());
    for (const ParsedQueryParts& q : state.queries) {
      bodies.push_back(QueryBodyRef{q.name, q.body});
    }
    state.report.Merge(AnalyzeSigmaSlicing(state.catalog.schema,
                                           state.catalog.sigma, bodies, opts));
  }

  LintResult result;
  result.report = std::move(state.report);
  result.statements = number;
  return result;
}

}  // namespace shell
}  // namespace sqleq
