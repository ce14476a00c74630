#include "sql/translate.h"

#include <map>
#include <unordered_map>

#include "constraints/builders.h"
#include "sql/sql_parser.h"
#include "util/string_util.h"

namespace sqleq {
namespace sql {
namespace {

/// Union-find over terms for WHERE-equality resolution; constants win as
/// representatives, and two distinct constants in one class are a
/// contradiction.
class TermUnionFind {
 public:
  Term Find(Term t) {
    auto it = parent_.find(t);
    if (it == parent_.end() || it->second == t) return t;
    Term root = Find(it->second);
    parent_[t] = root;
    return root;
  }

  Status Union(Term a, Term b) {
    Term ra = Find(a);
    Term rb = Find(b);
    if (ra == rb) return Status::OK();
    if (ra.IsConstant() && rb.IsConstant()) {
      return Status::Unsupported("contradictory WHERE clause: " + ra.ToString() +
                                 " = " + rb.ToString() +
                                 " (the always-empty query is outside the CQ class)");
    }
    if (ra.IsConstant()) std::swap(ra, rb);
    parent_[ra] = rb;  // ra is a variable; rb may be a constant
    return Status::OK();
  }

 private:
  TermMap parent_;
};

struct FromEntry {
  std::string table;
  RelationInfo info;
  std::vector<Term> vars;
};

}  // namespace

Status ApplyCreateTable(const CreateTableStatement& stmt, Catalog* catalog) {
  std::vector<std::string> attributes;
  std::unordered_map<std::string, size_t> position;
  for (const ColumnDef& col : stmt.columns) {
    if (position.count(col.name) > 0) {
      return Status::InvalidArgument("duplicate column '" + col.name + "' in table '" +
                                     stmt.table + "'");
    }
    position.emplace(col.name, attributes.size());
    attributes.push_back(col.name);
  }
  size_t arity = attributes.size();
  if (arity == 0) {
    return Status::InvalidArgument("table '" + stmt.table + "' has no columns");
  }

  // Gather key column sets (column-level and table-level).
  std::vector<std::vector<size_t>> keys;
  for (const ColumnDef& col : stmt.columns) {
    if (col.primary_key || col.unique) keys.push_back({position.at(col.name)});
  }
  auto resolve = [&position, &stmt](const std::vector<std::string>& names)
      -> Result<std::vector<size_t>> {
    std::vector<size_t> out;
    for (const std::string& n : names) {
      auto it = position.find(n);
      if (it == position.end()) {
        return Status::NotFound("unknown column '" + n + "' in table '" + stmt.table +
                                "'");
      }
      out.push_back(it->second);
    }
    return out;
  };
  std::vector<const TableConstraint*> foreign_keys;
  for (const TableConstraint& c : stmt.constraints) {
    if (c.kind == TableConstraint::Kind::kForeignKey) {
      foreign_keys.push_back(&c);
      continue;
    }
    SQLEQ_ASSIGN_OR_RETURN(std::vector<size_t> cols, resolve(c.columns));
    keys.push_back(std::move(cols));
  }

  // The SQL-standard reading the paper adopts (§1): a stored relation is a
  // set exactly when the CREATE TABLE carries a PRIMARY KEY or UNIQUE clause.
  bool set_valued = !keys.empty();
  SQLEQ_RETURN_IF_ERROR(
      catalog->schema.AddRelation(stmt.table, arity, attributes, set_valued));
  for (const std::vector<size_t>& key : keys) {
    SQLEQ_RETURN_IF_ERROR(catalog->schema.DeclareKey(stmt.table, key));
    if (key.size() < arity) {
      SQLEQ_ASSIGN_OR_RETURN(std::vector<Dependency> egds,
                             MakeKeyEgds(stmt.table, arity, key, "key_" + stmt.table));
      for (Dependency& d : egds) catalog->sigma.push_back(std::move(d));
    }
  }
  for (const TableConstraint* fk : foreign_keys) {
    SQLEQ_ASSIGN_OR_RETURN(std::vector<size_t> src_cols, resolve(fk->columns));
    Result<RelationInfo> target = catalog->schema.GetRelation(fk->ref_table);
    if (!target.ok()) {
      return Status::NotFound("FOREIGN KEY in '" + stmt.table +
                              "' references unknown table '" + fk->ref_table + "'");
    }
    std::vector<size_t> dst_cols;
    for (const std::string& n : fk->ref_columns) {
      bool found = false;
      for (size_t i = 0; i < target->attributes.size(); ++i) {
        if (target->attributes[i] == n) {
          dst_cols.push_back(i);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::NotFound("FOREIGN KEY references unknown column '" + n +
                                "' of table '" + fk->ref_table + "'");
      }
    }
    SQLEQ_ASSIGN_OR_RETURN(
        Dependency fk_dep,
        MakeForeignKey(stmt.table, arity, src_cols, fk->ref_table, target->arity,
                       dst_cols, "fk_" + stmt.table + "_" + fk->ref_table));
    catalog->sigma.push_back(std::move(fk_dep));
  }
  return Status::OK();
}

Status ApplyInsert(const InsertStatement& stmt, Database* db) {
  size_t arity = db->schema().ArityOf(stmt.table);
  if (!db->schema().HasRelation(stmt.table)) {
    return Status::NotFound("INSERT into unknown table '" + stmt.table + "'");
  }
  for (const std::vector<Literal>& row : stmt.rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument("INSERT row with " + std::to_string(row.size()) +
                                     " values into '" + stmt.table + "' (arity " +
                                     std::to_string(arity) + ")");
    }
    Tuple t;
    t.reserve(row.size());
    for (const Literal& lit : row) t.push_back(Term::Const(lit.value));
    SQLEQ_RETURN_IF_ERROR(db->Insert(stmt.table, t));
  }
  return Status::OK();
}

Result<LoadedDatabase> LoadScript(std::string_view script) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(script));
  Catalog catalog;
  bool saw_insert = false;
  for (const Statement& stmt : stmts) {
    if (const auto* create = std::get_if<CreateTableStatement>(&stmt)) {
      if (saw_insert) {
        return Status::InvalidArgument("CREATE TABLE must precede all INSERTs");
      }
      SQLEQ_RETURN_IF_ERROR(ApplyCreateTable(*create, &catalog));
    } else if (std::holds_alternative<InsertStatement>(stmt)) {
      saw_insert = true;
    } else {
      return Status::InvalidArgument("load script may contain only CREATE TABLE and "
                                     "INSERT statements");
    }
  }
  LoadedDatabase out{catalog, Database(catalog.schema)};
  for (const Statement& stmt : stmts) {
    if (const auto* insert = std::get_if<InsertStatement>(&stmt)) {
      SQLEQ_RETURN_IF_ERROR(ApplyInsert(*insert, &out.database));
    }
  }
  return out;
}

Result<Catalog> CatalogFromScript(std::string_view ddl) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(ddl));
  Catalog catalog;
  for (const Statement& stmt : stmts) {
    const auto* create = std::get_if<CreateTableStatement>(&stmt);
    if (create == nullptr) {
      return Status::InvalidArgument("DDL script may contain only CREATE TABLE");
    }
    SQLEQ_RETURN_IF_ERROR(ApplyCreateTable(*create, &catalog));
  }
  return catalog;
}

std::string TranslatedQuery::ToString() const {
  std::string out = is_aggregate ? aggregate->ToString() : cq->ToString();
  out += "  [semantics: ";
  out += SemanticsToString(semantics);
  out += "]";
  return out;
}

Result<TranslatedQuery> TranslateSelect(const SelectStatement& stmt,
                                        const Catalog& catalog,
                                        const std::string& name) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT without FROM is outside the CQ class");
  }
  // FROM: one atom per table reference, one variable "V_<alias>#<col>" per
  // column. Aliases are unique within the SELECT and SQL identifiers never
  // contain '#', so the name is injective in (alias, column); '#' keeps it a
  // Datalog identifier. Two queries may share these names (DESIGN.md §3.8).
  std::map<std::string, FromEntry> aliases;
  std::vector<std::string> alias_order;
  for (const TableRef& ref : stmt.from) {
    SQLEQ_ASSIGN_OR_RETURN(RelationInfo info, catalog.schema.GetRelation(ref.table));
    if (aliases.count(ref.alias) > 0) {
      return Status::InvalidArgument("duplicate table alias '" + ref.alias + "'");
    }
    FromEntry entry{ref.table, info, {}};
    for (const std::string& col : info.attributes) {
      entry.vars.push_back(Term::Var("V_" + ref.alias + "#" + col));
    }
    aliases.emplace(ref.alias, std::move(entry));
    alias_order.push_back(ref.alias);
  }

  auto resolve_column = [&aliases](const ColumnRef& ref) -> Result<Term> {
    if (!ref.qualifier.empty()) {
      auto it = aliases.find(ref.qualifier);
      if (it == aliases.end()) {
        return Status::NotFound("unknown table alias '" + ref.qualifier + "'");
      }
      for (size_t i = 0; i < it->second.info.attributes.size(); ++i) {
        if (it->second.info.attributes[i] == ref.column) return it->second.vars[i];
      }
      return Status::NotFound("table '" + it->second.table + "' has no column '" +
                              ref.column + "'");
    }
    std::optional<Term> found;
    for (const auto& [alias, entry] : aliases) {
      for (size_t i = 0; i < entry.info.attributes.size(); ++i) {
        if (entry.info.attributes[i] == ref.column) {
          if (found.has_value()) {
            return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
          }
          found = entry.vars[i];
        }
      }
    }
    if (!found.has_value()) {
      return Status::NotFound("unknown column '" + ref.column + "'");
    }
    return *found;
  };

  // WHERE: union-find over terms.
  TermUnionFind uf;
  for (const EqualityCondition& cond : stmt.where) {
    auto side_term = [&](const std::variant<ColumnRef, Literal>& side) -> Result<Term> {
      if (const auto* col = std::get_if<ColumnRef>(&side)) return resolve_column(*col);
      return Term::Const(std::get<Literal>(side).value);
    };
    SQLEQ_ASSIGN_OR_RETURN(Term l, side_term(cond.lhs));
    SQLEQ_ASSIGN_OR_RETURN(Term r, side_term(cond.rhs));
    SQLEQ_RETURN_IF_ERROR(uf.Union(l, r));
  }

  // Body atoms with representatives substituted.
  std::vector<Atom> body;
  for (const std::string& alias : alias_order) {
    FromEntry& entry = aliases.at(alias);
    std::vector<Term> args;
    for (Term v : entry.vars) args.push_back(uf.Find(v));
    body.emplace_back(entry.table, std::move(args));
  }

  // SELECT list.
  std::vector<Term> plain_items;
  std::optional<AggregateFunction> agg_fn;
  std::optional<Term> agg_arg;
  if (stmt.select_star) {
    for (const std::string& alias : alias_order) {
      for (Term v : aliases.at(alias).vars) plain_items.push_back(uf.Find(v));
    }
  }
  for (const SelectItem& item : stmt.items) {
    switch (item.kind) {
      case SelectItem::Kind::kColumn: {
        SQLEQ_ASSIGN_OR_RETURN(Term t, resolve_column(item.column));
        plain_items.push_back(uf.Find(t));
        break;
      }
      case SelectItem::Kind::kLiteral:
        plain_items.push_back(Term::Const(item.literal->value));
        break;
      case SelectItem::Kind::kCountStar:
        if (agg_fn.has_value()) {
          return Status::Unsupported("multiple aggregates in one SELECT");
        }
        agg_fn = AggregateFunction::kCountStar;
        break;
      case SelectItem::Kind::kAggregate: {
        if (agg_fn.has_value()) {
          return Status::Unsupported("multiple aggregates in one SELECT");
        }
        if (item.aggregate_function == "SUM") {
          agg_fn = AggregateFunction::kSum;
        } else if (item.aggregate_function == "COUNT") {
          agg_fn = AggregateFunction::kCount;
        } else if (item.aggregate_function == "MAX") {
          agg_fn = AggregateFunction::kMax;
        } else if (item.aggregate_function == "MIN") {
          agg_fn = AggregateFunction::kMin;
        } else {
          return Status::Unsupported("aggregate function " + item.aggregate_function);
        }
        SQLEQ_ASSIGN_OR_RETURN(Term t, resolve_column(item.column));
        agg_arg = uf.Find(t);
        break;
      }
    }
  }

  TranslatedQuery out;
  // Semantics per the SQL standard (§1 of the paper): DISTINCT → set; bags
  // otherwise, with set-valued stored relations → bag-set.
  if (stmt.distinct) {
    out.semantics = Semantics::kSet;
  } else {
    bool all_set_valued = true;
    for (const TableRef& ref : stmt.from) {
      if (!catalog.schema.IsSetValued(ref.table)) {
        all_set_valued = false;
        break;
      }
    }
    out.semantics = all_set_valued ? Semantics::kBagSet : Semantics::kBag;
  }

  if (agg_fn.has_value()) {
    if (stmt.distinct) {
      return Status::Unsupported("SELECT DISTINCT with aggregates");
    }
    // Validate GROUP BY: grouping terms are the resolved GROUP BY columns,
    // and every plain select item must be one of them.
    std::vector<Term> grouping;
    for (const ColumnRef& ref : stmt.group_by) {
      SQLEQ_ASSIGN_OR_RETURN(Term t, resolve_column(ref));
      grouping.push_back(uf.Find(t));
    }
    for (Term t : plain_items) {
      bool in_grouping = false;
      for (Term g : grouping) {
        if (g == t) {
          in_grouping = true;
          break;
        }
      }
      if (!in_grouping) {
        return Status::InvalidArgument(
            "selected column is neither aggregated nor in GROUP BY");
      }
    }
    // Head grouping order follows the SELECT list (paper syntax Q(S̄, α(Y))).
    SQLEQ_ASSIGN_OR_RETURN(AggregateQuery agg,
                           AggregateQuery::Create(name, std::move(plain_items), *agg_fn,
                                                  agg_arg, std::move(body)));
    out.is_aggregate = true;
    out.aggregate = std::move(agg);
    return out;
  }

  if (!stmt.group_by.empty()) {
    return Status::InvalidArgument("GROUP BY without an aggregate");
  }
  SQLEQ_ASSIGN_OR_RETURN(
      ConjunctiveQuery cq,
      ConjunctiveQuery::Create(name, std::move(plain_items), std::move(body)));
  out.is_aggregate = false;
  out.cq = std::move(cq);
  return out;
}

Result<TranslatedQuery> TranslateSql(std::string_view select_text, const Catalog& catalog,
                                     const std::string& name) {
  SQLEQ_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(select_text));
  return TranslateSelect(stmt, catalog, name);
}

}  // namespace sql
}  // namespace sqleq
