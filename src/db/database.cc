#include "db/database.h"

#include <cassert>

namespace sqleq {

Status Database::Insert(const std::string& name, const Tuple& t, uint64_t count) {
  if (!schema_.HasRelation(name)) {
    return Status::NotFound("unknown relation '" + name + "'");
  }
  size_t arity = schema_.ArityOf(name);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    it = relations_.emplace(name, RelationInstance(name, arity)).first;
  }
  if (schema_.IsSetValued(name) && count > 0) {
    uint64_t existing = it->second.Count(t);
    if (existing + count > 1) {
      return Status::FailedPrecondition(
          "relation '" + name + "' is set valued in all instances; duplicate insert of " +
          TupleToString(t));
    }
  }
  return it->second.Insert(t, count);
}

Database& Database::Add(const std::string& name, std::initializer_list<int64_t> values,
                        uint64_t count) {
  Status s = Insert(name, IntTuple(values), count);
  assert(s.ok() && "Database::Add failed");
  (void)s;
  return *this;
}

Result<RelationInstance> Database::GetRelation(const std::string& name) const {
  if (!schema_.HasRelation(name)) {
    return Status::NotFound("unknown relation '" + name + "'");
  }
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return RelationInstance(name, schema_.ArityOf(name));
  }
  return it->second;
}

RelationInstance* Database::GetMutableRelation(const std::string& name) {
  if (!schema_.HasRelation(name)) return nullptr;
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    it = relations_.emplace(name, RelationInstance(name, schema_.ArityOf(name))).first;
  }
  return &it->second;
}

bool Database::IsSetValued() const {
  for (const auto& [_, rel] : relations_) {
    if (!rel.IsSetValued()) return false;
  }
  return true;
}

Database Database::CoreSet() const {
  Database out(schema_);
  for (const auto& [name, rel] : relations_) {
    out.relations_.emplace(name, rel.CoreSet());
  }
  return out;
}

uint64_t Database::TotalSize() const {
  uint64_t total = 0;
  for (const auto& [_, rel] : relations_) total += rel.TotalSize();
  return total;
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [_, rel] : relations_) {
    if (rel.empty()) continue;
    out += rel.ToString();
    out += '\n';
  }
  return out;
}

Result<CanonicalDatabase> BuildCanonicalDatabase(const ConjunctiveQuery& q,
                                                 const Schema& schema) {
  CanonicalDatabase out;
  // Drop set-valued flags during construction: D(Q) is set valued by
  // definition and duplicate atoms in Q map to a single tuple anyway, but a
  // schema flag must not reject inserting the same tuple twice.
  Schema relaxed = schema;
  for (const std::string& name : schema.RelationNames()) {
    SQLEQ_RETURN_IF_ERROR(relaxed.SetSetValued(name, false));
  }
  out.database = Database(relaxed);
  for (Term v : q.BodyVariables()) {
    // Fresh constants are namespaced with '@' so they cannot collide with
    // user constants (which never render with a leading '@').
    out.assignment.emplace(v, Term::Str("@" + std::string(v.name())));
  }
  for (const Atom& atom : q.body()) {
    if (!schema.HasRelation(atom.predicate())) {
      return Status::NotFound("query atom uses unknown relation '" + atom.predicate() +
                              "'");
    }
    if (schema.ArityOf(atom.predicate()) != atom.arity()) {
      return Status::InvalidArgument("atom " + atom.ToString() +
                                     " disagrees with schema arity " +
                                     std::to_string(schema.ArityOf(atom.predicate())));
    }
    Tuple t;
    t.reserve(atom.arity());
    for (Term arg : atom.args()) t.push_back(ApplyTermMap(out.assignment, arg));
    // Duplicate atoms yield the same ground tuple; keep D(Q) set valued.
    RelationInstance* rel = out.database.GetMutableRelation(atom.predicate());
    if (rel->Count(t) == 0) {
      SQLEQ_RETURN_IF_ERROR(out.database.Insert(atom.predicate(), t));
    }
  }
  return out;
}

Result<CanonicalDatabase> BuildCanonicalDatabase(const ConjunctiveQuery& q) {
  SQLEQ_ASSIGN_OR_RETURN(Schema schema, InferSchema({q}));
  return BuildCanonicalDatabase(q, schema);
}

Result<Schema> InferSchema(const std::vector<ConjunctiveQuery>& queries,
                           const std::vector<Atom>& extra_atoms) {
  Schema schema;
  auto add_atom = [&schema](const Atom& atom) -> Status {
    if (schema.HasRelation(atom.predicate())) {
      if (schema.ArityOf(atom.predicate()) != atom.arity()) {
        return Status::InvalidArgument("predicate '" + atom.predicate() +
                                       "' used with arities " +
                                       std::to_string(schema.ArityOf(atom.predicate())) +
                                       " and " + std::to_string(atom.arity()));
      }
      return Status::OK();
    }
    return schema.AddRelation(atom.predicate(), atom.arity());
  };
  for (const ConjunctiveQuery& q : queries) {
    for (const Atom& atom : q.body()) SQLEQ_RETURN_IF_ERROR(add_atom(atom));
  }
  for (const Atom& atom : extra_atoms) SQLEQ_RETURN_IF_ERROR(add_atom(atom));
  return schema;
}

}  // namespace sqleq
