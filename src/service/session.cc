#include "service/session.h"

#include <utility>
#include <variant>
#include <vector>

#include "constraints/dependency.h"
#include "ir/parser.h"
#include "sql/sql_parser.h"
#include "util/string_util.h"

namespace sqleq {
namespace service {

Status Session::ApplyDdl(std::string_view script) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts, sql::ParseScript(script));
  // Stage into a copy: a failing statement must leave the session unchanged.
  sql::Catalog staged = catalog_;
  for (const sql::Statement& stmt : stmts) {
    const auto* create = std::get_if<sql::CreateTableStatement>(&stmt);
    if (create == nullptr) {
      return Status::InvalidArgument(
          "service ddl accepts only CREATE TABLE statements");
    }
    SQLEQ_RETURN_IF_ERROR(sql::ApplyCreateTable(*create, &staged));
  }
  catalog_ = std::move(staged);
  CatalogChanged();
  return Status::OK();
}

Status Session::AddRelation(const std::string& name, size_t arity, bool set_valued) {
  SQLEQ_RETURN_IF_ERROR(catalog_.schema.AddRelation(name, arity, {}, set_valued));
  CatalogChanged();
  return Status::OK();
}

Result<size_t> Session::AddDependency(std::string_view text, std::string label) {
  if (label.empty()) label = "sigma" + std::to_string(++dep_counter_);
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Dependency> deps,
                         ParseDependency(text, std::move(label)));
  for (Dependency& dep : deps) catalog_.sigma.push_back(std::move(dep));
  CatalogChanged();
  return deps.size();
}

void Session::CatalogChanged() { contexts_ = {}; }

std::shared_ptr<ChaseContext> Session::ContextIn(EquivalenceEngine& engine,
                                                Semantics semantics) {
  std::weak_ptr<ChaseContext>& held = contexts_[static_cast<size_t>(semantics)];
  std::shared_ptr<ChaseContext> context = held.lock();
  if (context == nullptr) {
    context = engine.ContextFor(semantics, catalog_.sigma, catalog_.schema);
    held = context;
  }
  return context;
}

Result<ConjunctiveQuery> Session::ResolveQuery(std::string_view text,
                                               const std::string& name) const {
  std::string_view trimmed = Trim(text);
  if (StartsWithIgnoreCase(trimmed, "SELECT")) {
    SQLEQ_ASSIGN_OR_RETURN(sql::TranslatedQuery translated,
                           sql::TranslateSql(trimmed, catalog_, name));
    if (translated.is_aggregate) {
      return Status::Unsupported(
          "aggregate queries are outside the service protocol (CQ-only)");
    }
    return *std::move(translated.cq);
  }
  SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, ParseQuery(trimmed));
  return q.WithName(name);
}

}  // namespace service
}  // namespace sqleq
