#include "service/routing.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "chase/chase_cache.h"
#include "ir/parser.h"
#include "service/protocol.h"
#include "util/string_util.h"

namespace sqleq {
namespace service {
namespace {

/// One query's contribution to a request signature. Datalog canonicalizes
/// (so renamed/reordered-but-isomorphic queries share an owner and its warm
/// memo); SQL needs the catalog to translate, which the client does not
/// have, so both sides hash the trimmed raw text instead.
std::string QuerySignature(std::string_view text) {
  std::string_view trimmed = Trim(text);
  Result<ConjunctiveQuery> parsed = ParseQuery(trimmed);
  if (parsed.ok()) return CanonicalQueryKey(*parsed);
  return std::string(trimmed);
}

}  // namespace

Result<std::vector<ShardId>> ParseFleetSpec(std::string_view spec) {
  std::vector<ShardId> shards;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string_view entry = spec.substr(
        start, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - start);
    entry = Trim(entry);
    if (!entry.empty()) {
      ShardId shard;
      if (size_t eq = entry.find('='); eq != std::string_view::npos) {
        shard.name = std::string(Trim(entry.substr(0, eq)));
        entry = Trim(entry.substr(eq + 1));
      } else {
        shard.name = "shard" + std::to_string(shards.size());
      }
      size_t colon = entry.rfind(':');
      if (colon == std::string_view::npos || colon + 1 >= entry.size()) {
        return Status::InvalidArgument(
            "fleet spec entry \"" + std::string(entry) +
            "\" lacks a host:port (expected name=host:port or host:port)");
      }
      shard.host = std::string(entry.substr(0, colon));
      std::string port_text(entry.substr(colon + 1));
      char* end = nullptr;
      long port = std::strtol(port_text.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || port <= 0 || port > 65535) {
        return Status::InvalidArgument("fleet spec entry has a bad port \"" +
                                       port_text + "\"");
      }
      if (shard.name.empty() || shard.host.empty()) {
        return Status::InvalidArgument(
            "fleet spec entry \"" + std::string(entry) +
            "\" has an empty shard name or host");
      }
      shard.port = static_cast<int>(port);
      for (const ShardId& existing : shards) {
        if (existing.name == shard.name) {
          return Status::InvalidArgument("fleet spec repeats shard name \"" +
                                         shard.name + "\"");
        }
      }
      shards.push_back(std::move(shard));
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (shards.empty()) {
    return Status::InvalidArgument("fleet spec names no shards");
  }
  return shards;
}

std::string RenderFleetSpec(const std::vector<ShardId>& shards) {
  std::string out;
  for (const ShardId& shard : shards) {
    if (!out.empty()) out += ",";
    out += shard.name + "=" + shard.host + ":" + std::to_string(shard.port);
  }
  return out;
}

uint64_t FleetHash(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  // Raw FNV-1a barely avalanches the high bits for short, similar inputs
  // ("shard0#0".."shard0#63" differ only low in the state), and ring order
  // is dominated by the high bits — without a finalizer every vnode of a
  // shard collapses into one tight band and one shard owns nearly the whole
  // key space. Murmur3's fmix64 spreads the state before it is ordered.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

HashRing::HashRing(std::vector<ShardId> shards) : shards_(std::move(shards)) {
  ring_.reserve(shards_.size() * kVnodesPerShard);
  for (size_t i = 0; i < shards_.size(); ++i) {
    for (size_t v = 0; v < kVnodesPerShard; ++v) {
      std::string point = shards_[i].name + "#" + std::to_string(v);
      ring_.emplace_back(FleetHash(point), static_cast<uint32_t>(i));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t HashRing::OwnerIndex(std::string_view key) const {
  uint64_t h = FleetHash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<uint64_t, uint32_t>& point, uint64_t hash) {
        return point.first < hash;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

int HashRing::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string CanonicalRequestSignature(const std::string& cmd,
                                      const JsonValue& body) {
  std::string sig = cmd;
  if (cmd == "check") {
    std::string q1 =
        QuerySignature(OptionalString(body, "q1").value_or(""));
    std::string q2 =
        QuerySignature(OptionalString(body, "q2").value_or(""));
    // q1 ≡ q2 and q2 ≡ q1 are the same decision; sort so both spellings
    // land on (and warm) the same shard.
    if (q2 < q1) std::swap(q1, q2);
    sig += "|S:" + OptionalString(body, "semantics").value_or("set");
    sig += "|Q:" + q1 + "|Q:" + q2;
    return sig;
  }
  if (cmd == "reformulate") {
    sig += "|S:" + OptionalString(body, "semantics").value_or("set");
    sig += "|Q:" + QuerySignature(OptionalString(body, "query").value_or(""));
    return sig;
  }
  if (cmd == "lint") {
    if (const JsonValue* list = body.Find("queries");
        list != nullptr && list->is_array()) {
      for (const JsonValue& item : list->array) {
        if (item.is_string()) sig += "|Q:" + QuerySignature(item.string);
      }
    }
    return sig;
  }
  return sig;
}

}  // namespace service
}  // namespace sqleq
