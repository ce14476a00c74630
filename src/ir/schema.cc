#include "ir/schema.h"

#include <cassert>
#include <functional>

namespace sqleq {

Status Schema::AddRelation(const std::string& name, size_t arity,
                           std::vector<std::string> attributes, bool set_valued) {
  if (name.empty()) return Status::InvalidArgument("relation name may not be empty");
  if (arity == 0) {
    return Status::InvalidArgument("relation '" + name + "' must have arity >= 1");
  }
  if (relations_.count(name) > 0) {
    return Status::InvalidArgument("duplicate relation '" + name + "'");
  }
  if (!attributes.empty() && attributes.size() != arity) {
    return Status::InvalidArgument("relation '" + name + "': " +
                                   std::to_string(attributes.size()) +
                                   " attribute names for arity " + std::to_string(arity));
  }
  RelationInfo info;
  info.name = name;
  info.arity = arity;
  if (attributes.empty()) {
    for (size_t i = 0; i < arity; ++i) info.attributes.push_back("c" + std::to_string(i));
  } else {
    info.attributes = std::move(attributes);
  }
  info.set_valued = set_valued;
  relations_.emplace(name, std::move(info));
  return Status::OK();
}

Schema& Schema::Relation(const std::string& name, size_t arity, bool set_valued) {
  Status s = AddRelation(name, arity, {}, set_valued);
  assert(s.ok() && "Schema::Relation on invalid input");
  (void)s;
  return *this;
}

Status Schema::SetSetValued(const std::string& name, bool set_valued) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation '" + name + "'");
  }
  it->second.set_valued = set_valued;
  return Status::OK();
}

Status Schema::DeclareKey(const std::string& name, std::vector<size_t> positions) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation '" + name + "'");
  }
  if (positions.empty()) {
    return Status::InvalidArgument("key of '" + name + "' may not be empty");
  }
  for (size_t p : positions) {
    if (p >= it->second.arity) {
      return Status::InvalidArgument("key position " + std::to_string(p) +
                                     " out of range for '" + name + "'");
    }
  }
  it->second.declared_keys.push_back(std::move(positions));
  return Status::OK();
}

bool Schema::HasRelation(const std::string& name) const {
  return relations_.count(name) > 0;
}

Result<RelationInfo> Schema::GetRelation(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation '" + name + "'");
  }
  return it->second;
}

const RelationInfo* Schema::FindRelation(std::string_view name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

size_t Schema::ArityOf(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? 0 : it->second.arity;
}

bool Schema::IsSetValued(const std::string& name) const {
  auto it = relations_.find(name);
  return it != relations_.end() && it->second.set_valued;
}

std::vector<RelationInfo> Schema::Relations() const {
  std::vector<RelationInfo> out;
  out.reserve(relations_.size());
  for (const auto& [_, info] : relations_) out.push_back(info);
  return out;
}

std::vector<std::string> Schema::RelationNames() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, _] : relations_) out.push_back(name);
  return out;
}

size_t Schema::Hash() const {
  std::hash<std::string> hash_string;
  size_t h = relations_.size();
  for (const auto& [_, info] : relations_) {
    h = h * 1000003u + hash_string(info.name);
    h = h * 31u + info.arity * 2u + (info.set_valued ? 1u : 0u);
    for (const std::string& attribute : info.attributes) {
      h = h * 1000003u + hash_string(attribute);
    }
    for (const std::vector<size_t>& key : info.declared_keys) {
      h = h * 1000003u + key.size();
      for (size_t position : key) h = h * 31u + position;
    }
  }
  return h;
}

std::string Schema::ToString() const {
  std::string out;
  for (const auto& [_, info] : relations_) {
    out += info.name;
    out += '(';
    for (size_t i = 0; i < info.attributes.size(); ++i) {
      if (i > 0) out += ", ";
      out += info.attributes[i];
    }
    out += ')';
    if (info.set_valued) out += " [set]";
    for (const auto& key : info.declared_keys) {
      out += " key(";
      for (size_t i = 0; i < key.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(key[i]);
      }
      out += ')';
    }
    out += '\n';
  }
  return out;
}

}  // namespace sqleq
