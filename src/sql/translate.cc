#include "sql/translate.h"

#include <algorithm>
#include <unordered_map>

#include "constraints/builders.h"
#include "sql/sql_parser.h"
#include "util/string_util.h"

namespace sqleq {
namespace sql {

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

namespace {

/// Appends the variables `V_<alias>#<col>` of `relation`'s columns, in
/// column order, to `out`, interning each.
void AppendColumnTerms(std::string_view alias, const RelationInfo& relation,
                       std::vector<Term>* out) {
  std::string name = "V_";
  name += alias;
  name += '#';
  const size_t prefix = name.size();
  for (const std::string& col : relation.attributes) {
    name.resize(prefix);
    name += col;
    out->push_back(Term::Var(name));
  }
}

/// Union-find over one SELECT's terms for WHERE-equality resolution. Nodes
/// [0, n) are the FROM columns' variables; the constants the WHERE clause
/// names are appended after them. Constants win as representatives, a
/// variable-variable union roots the left class under the right one, and two
/// distinct constants in one class are a contradiction.
class NodeUnionFind {
 public:
  explicit NodeUnionFind(std::vector<Term> vars)
      : terms_(std::move(vars)), parent_(terms_.size()), num_vars_(terms_.size()) {
    for (size_t i = 0; i < parent_.size(); ++i) parent_[i] = i;
  }

  size_t num_vars() const { return num_vars_; }

  size_t ConstantNode(Term c) {
    for (size_t i = num_vars_; i < terms_.size(); ++i) {
      if (terms_[i] == c) return i;
    }
    terms_.push_back(c);
    parent_.push_back(parent_.size());
    return terms_.size() - 1;
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// The representative term of `node`'s class.
  Term Representative(size_t node) { return terms_[Find(node)]; }

  Status Union(size_t a, size_t b) {
    size_t ra = Find(a);
    size_t rb = Find(b);
    if (ra == rb) return Status::OK();
    if (ra >= num_vars_ && rb >= num_vars_) {
      return Status::Unsupported("contradictory WHERE clause: " + terms_[ra].ToString() +
                                 " = " + terms_[rb].ToString() +
                                 " (the always-empty query is outside the CQ class)");
    }
    if (ra >= num_vars_) std::swap(ra, rb);
    parent_[ra] = rb;  // ra is a variable; rb may be a constant
    return Status::OK();
  }

 private:
  std::vector<Term> terms_;
  std::vector<size_t> parent_;
  size_t num_vars_;
};

/// One FROM table reference: its alias, its relation (no copy) and the node
/// of its first column's variable.
struct FromRef {
  std::string_view alias;
  const RelationInfo* relation;
  size_t first;
};

}  // namespace

Result<TranslatedQuery> TranslateSelect(const SelectStatement& stmt,
                                        const Catalog& catalog, const std::string& name) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT without FROM is outside the CQ class");
  }
  // FROM: one atom per table reference, one variable "V_<alias>#<col>" per
  // column. Aliases are unique within the SELECT and SQL identifiers never
  // contain '#', so the name is injective in (alias, column); '#' keeps it a
  // Datalog identifier. Two queries may share these names (DESIGN.md §3.8).
  std::vector<FromRef> from;
  from.reserve(stmt.from.size());
  std::vector<Term> vars;
  for (const TableRef& ref : stmt.from) {
    const RelationInfo* relation = catalog.schema.FindRelation(ref.table);
    if (relation == nullptr) {
      return Status::NotFound("unknown relation '" + ref.table + "'");
    }
    for (const FromRef& seen : from) {
      if (seen.alias == ref.alias) {
        return Status::InvalidArgument("duplicate table alias '" + ref.alias + "'");
      }
    }
    from.push_back({ref.alias, relation, vars.size()});
    AppendColumnTerms(ref.alias, *relation, &vars);
  }
  NodeUnionFind uf(std::move(vars));

  auto resolve_column = [&from](const ColumnRef& ref) -> Result<size_t> {
    if (!ref.qualifier.empty()) {
      for (const FromRef& entry : from) {
        if (entry.alias != ref.qualifier) continue;
        const std::vector<std::string>& attributes = entry.relation->attributes;
        for (size_t i = 0; i < attributes.size(); ++i) {
          if (attributes[i] == ref.column) return entry.first + i;
        }
        return Status::NotFound("table '" + entry.relation->name + "' has no column '" +
                                ref.column + "'");
      }
      return Status::NotFound("unknown table alias '" + ref.qualifier + "'");
    }
    std::optional<size_t> found;
    for (const FromRef& entry : from) {
      const std::vector<std::string>& attributes = entry.relation->attributes;
      for (size_t i = 0; i < attributes.size(); ++i) {
        if (attributes[i] == ref.column) {
          if (found.has_value()) {
            return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
          }
          found = entry.first + i;
        }
      }
    }
    if (!found.has_value()) {
      return Status::NotFound("unknown column '" + ref.column + "'");
    }
    return *found;
  };

  // WHERE: union-find over the column and constant nodes.
  auto side_node = [&](const std::variant<ColumnRef, Literal>& side) -> Result<size_t> {
    if (const auto* col = std::get_if<ColumnRef>(&side)) return resolve_column(*col);
    return uf.ConstantNode(Term::Const(std::get<Literal>(side).value));
  };
  for (const EqualityCondition& cond : stmt.where) {
    SQLEQ_ASSIGN_OR_RETURN(size_t l, side_node(cond.lhs));
    SQLEQ_ASSIGN_OR_RETURN(size_t r, side_node(cond.rhs));
    SQLEQ_RETURN_IF_ERROR(uf.Union(l, r));
  }

  // Body atoms with representatives substituted.
  std::vector<Atom> body;
  body.reserve(from.size());
  for (size_t k = 0; k < from.size(); ++k) {
    const size_t arity = from[k].relation->attributes.size();
    std::vector<Term> args;
    args.reserve(arity);
    for (size_t i = 0; i < arity; ++i) {
      args.push_back(uf.Representative(from[k].first + i));
    }
    body.emplace_back(stmt.from[k].table, std::move(args));
  }

  // SELECT list.
  std::vector<Term> plain_items;
  std::optional<AggregateFunction> agg_fn;
  std::optional<Term> agg_arg;
  if (stmt.select_star) {
    for (size_t node = 0; node < uf.num_vars(); ++node) {
      plain_items.push_back(uf.Representative(node));
    }
  }
  for (const SelectItem& item : stmt.items) {
    switch (item.kind) {
      case SelectItem::Kind::kColumn: {
        SQLEQ_ASSIGN_OR_RETURN(size_t node, resolve_column(item.column));
        plain_items.push_back(uf.Representative(node));
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
        SQLEQ_ASSIGN_OR_RETURN(size_t node, resolve_column(item.column));
        agg_arg = uf.Representative(node);
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
    for (const FromRef& entry : from) {
      all_set_valued = all_set_valued && entry.relation->set_valued;
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
      SQLEQ_ASSIGN_OR_RETURN(size_t node, resolve_column(ref));
      grouping.push_back(uf.Representative(node));
    }
    for (Term t : plain_items) {
      if (std::find(grouping.begin(), grouping.end(), t) == grouping.end()) {
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
