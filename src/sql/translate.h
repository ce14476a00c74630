// SQL ↔ paper-formalism translation (§1, §2.2):
//   * CREATE TABLE → schema entry + Σ (key egds; PRIMARY KEY/UNIQUE make
//     the stored relation set valued, per the SQL-standard reading the
//     paper adopts; FOREIGN KEY → inclusion tgd);
//   * SELECT → ConjunctiveQuery or AggregateQuery plus the SQL-mandated
//     evaluation semantics: DISTINCT → set; no DISTINCT over all-set-valued
//     tables → bag-set; any bag-valued base table → bag.
#ifndef SQLEQ_SQL_TRANSLATE_H_
#define SQLEQ_SQL_TRANSLATE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "constraints/dependency.h"
#include "db/eval.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "sql/ast.h"
#include "util/status.h"

namespace sqleq {
namespace sql {

/// Accumulated DDL state: the schema plus the dependencies its constraints
/// induce.
struct Catalog {
  Schema schema;
  DependencySet sigma;
};

/// Applies one CREATE TABLE to the catalog.
Status ApplyCreateTable(const CreateTableStatement& stmt, Catalog* catalog);

/// Applies one INSERT to `db`. Fails on unknown table, arity mismatch, or a
/// duplicate row into a set-valued (keyed) table.
Status ApplyInsert(const InsertStatement& stmt, Database* db);

/// Runs a whole script (CREATE TABLE / INSERT) into a fresh catalog and
/// instance.
struct LoadedDatabase {
  Catalog catalog;
  Database database;
};
Result<LoadedDatabase> LoadScript(std::string_view script);

/// Builds a catalog from a ';'-separated DDL script.
Result<Catalog> CatalogFromScript(std::string_view ddl);

/// A translated SELECT.
struct TranslatedQuery {
  bool is_aggregate = false;
  std::optional<ConjunctiveQuery> cq;        // when !is_aggregate
  std::optional<AggregateQuery> aggregate;   // when is_aggregate
  Semantics semantics = Semantics::kBagSet;

  std::string ToString() const;
};

/// Translates a SELECT against `catalog.schema`. `name` names the resulting
/// query. GROUP BY queries must select exactly the grouping columns plus
/// one aggregate; non-grouped aggregates are 0-ary-grouping aggregates.
/// Column `col` of the table reference `alias` becomes the variable
/// `V_<alias>#<col>`: query-local and injective in (alias, column), not
/// fresh, so translating the same text twice yields the same names.
Result<TranslatedQuery> TranslateSelect(const SelectStatement& stmt,
                                        const Catalog& catalog,
                                        const std::string& name = "Q");

/// Convenience: parse + translate.
Result<TranslatedQuery> TranslateSql(std::string_view select_text, const Catalog& catalog,
                                     const std::string& name = "Q");

}  // namespace sql
}  // namespace sqleq

#endif  // SQLEQ_SQL_TRANSLATE_H_
