// Schema: relation symbols with arities, attribute names, and the
// set-valued flags that drive bag-semantics soundness (§4, App. C).
#ifndef SQLEQ_IR_SCHEMA_H_
#define SQLEQ_IR_SCHEMA_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sqleq {

/// Metadata for one relation symbol.
struct RelationInfo {
  std::string name;
  size_t arity = 0;
  /// Attribute names; defaults to "c0".."c{n-1}" when not supplied.
  std::vector<std::string> attributes;
  /// True if the relation is required to be set valued in ALL instances of
  /// the schema (enforceable by a tuple-ID egd, App. C). Under bag-set and
  /// set semantics every relation behaves as set valued regardless.
  bool set_valued = false;
  /// Declared keys, as sets of 0-based attribute positions. Purely
  /// declarative convenience; the corresponding egds are generated by
  /// constraints::MakeKeyEgd and key reasoning uses the egds in Σ.
  std::vector<std::vector<size_t>> declared_keys;

  friend bool operator==(const RelationInfo&, const RelationInfo&) = default;
};

/// A database schema: a finite set of relation symbols and their arities.
class Schema {
 public:
  Schema() = default;

  /// Adds a relation. Fails on duplicate names, zero arity, or an attribute
  /// list whose length disagrees with the arity.
  Status AddRelation(const std::string& name, size_t arity,
                     std::vector<std::string> attributes = {}, bool set_valued = false);

  /// AddRelation() that asserts success.
  Schema& Relation(const std::string& name, size_t arity, bool set_valued = false);

  /// Marks `name` as set valued in all instances. Fails if unknown.
  Status SetSetValued(const std::string& name, bool set_valued);

  /// Declares `positions` as a key of `name`. Fails on unknown relation or
  /// out-of-range positions.
  Status DeclareKey(const std::string& name, std::vector<size_t> positions);

  bool HasRelation(const std::string& name) const;
  Result<RelationInfo> GetRelation(const std::string& name) const;

  /// The relation named `name`, or nullptr if unknown; no copy. Valid until
  /// the schema next changes.
  const RelationInfo* FindRelation(std::string_view name) const;

  /// Arity of `name`; 0 if unknown (use HasRelation to distinguish).
  size_t ArityOf(const std::string& name) const;

  /// True if `name` is known and flagged set valued.
  bool IsSetValued(const std::string& name) const;

  /// All relation infos, ordered by name.
  std::vector<RelationInfo> Relations() const;

  /// All relation names, ordered.
  std::vector<std::string> RelationNames() const;

  size_t size() const { return relations_.size(); }

  std::string ToString() const;

  /// Structural equality over every relation's metadata, and a hash
  /// consistent with it; neither renders the schema.
  friend bool operator==(const Schema&, const Schema&) = default;
  size_t Hash() const;

 private:
  std::map<std::string, RelationInfo, std::less<>> relations_;
};

}  // namespace sqleq

#endif  // SQLEQ_IR_SCHEMA_H_
