// Fleet routing (docs/fleet.md): which sqleqd shard owns a request. Both
// sides of the wire — FleetClient picking a shard, and a v2 server
// deciding whether to serve or redirect — compute ownership through this
// one module, so they can never disagree.
//
// Ownership is consistent hashing over a virtual-node ring: each shard
// contributes kVnodesPerShard points hashed from "<name>#<i>", a key is
// owned by the first point clockwise of its hash. Adding or removing one
// shard moves only ~1/N of the key space.
//
// Requests are keyed by CanonicalRequestSignature, computed from the raw
// request fields only (never from session state): the client cannot
// translate SQL without the catalog, so both sides canonicalize Datalog
// query text through CanonicalQueryKey and fall back to trimmed raw text
// for anything else. Σ and the schema are deliberately excluded — the
// catalog is replicated to every shard, so it cannot differentiate owners.
#ifndef SQLEQ_SERVICE_ROUTING_H_
#define SQLEQ_SERVICE_ROUTING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace sqleq {
namespace service {

/// One shard's identity and dialing coordinates. `name` is the stable ring
/// identity (hash ownership survives host/port moves); host:port is where
/// to dial it.
struct ShardId {
  std::string name;
  std::string host;
  int port = 0;

  bool operator==(const ShardId& other) const {
    return name == other.name && host == other.host && port == other.port;
  }
};

/// Parses a fleet topology spec: comma-separated shards, each
/// "name=host:port" or bare "host:port" (named shard0, shard1, ... by
/// position). Duplicate names are an error — they would alias ring points.
Result<std::vector<ShardId>> ParseFleetSpec(std::string_view spec);

/// The inverse of ParseFleetSpec: "name=host:port,..." in shard order.
std::string RenderFleetSpec(const std::vector<ShardId>& shards);

/// FNV-1a 64-bit; the fleet's one hash function (ring points and keys).
uint64_t FleetHash(std::string_view s);

/// The consistent-hash ring. Deterministic for a given shard list: every
/// client and server built from the same topology agrees on every owner.
class HashRing {
 public:
  static constexpr size_t kVnodesPerShard = 64;

  HashRing() = default;
  explicit HashRing(std::vector<ShardId> shards);

  /// Index into shards() of the owner of `key`. Requires size() > 0.
  size_t OwnerIndex(std::string_view key) const;
  const ShardId& OwnerFor(std::string_view key) const {
    return shards_[OwnerIndex(key)];
  }

  /// Index of the shard named `name`, or -1.
  int IndexOf(std::string_view name) const;

  const std::vector<ShardId>& shards() const { return shards_; }
  size_t size() const { return shards_.size(); }
  bool empty() const { return shards_.empty(); }

 private:
  std::vector<ShardId> shards_;
  /// (point hash, shard index), sorted by hash. Ties broken by index so the
  /// ring is a pure function of the shard list.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
};

/// The routing key of a request, from raw request fields only. Query text
/// that parses as Datalog is canonicalized (renaming/atom-order-invariant,
/// chase/chase_cache.h); SQL and unparsable text contribute trimmed bytes.
/// check's two queries are sorted so q1/q2 order does not split ownership.
/// Catalog verbs and stats are broadcast, not routed, but still get a
/// stable signature (the verb name) so routing them is well-defined.
std::string CanonicalRequestSignature(const std::string& cmd,
                                      const JsonValue& body);

}  // namespace service
}  // namespace sqleq

#endif  // SQLEQ_SERVICE_ROUTING_H_
