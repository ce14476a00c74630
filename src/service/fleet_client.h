// FleetClient — the pooled, routing-aware top of the client stack
// (docs/fleet.md). Where Connection speaks to one sqleqd, FleetClient
// fronts a whole fleet:
//
//  - consistent-hash routing: expensive requests go to the shard owning
//    their CanonicalRequestSignature (service/routing.h), so warm memos
//    concentrate where repeats land;
//  - catalog replication: relation / ddl / dep requests broadcast to every
//    shard, and are replayed onto each pooled connection (sessions are
//    per-connection server-side), so any connection can serve any request;
//  - connection pooling: up to pool_size_per_shard idle connections per
//    shard are kept and reused; dead connections are evicted and redialed,
//    and the request is resent through the fresh connection (the catalog
//    replays first), reusing the PR-8 RetryPolicy/idempotent-id machinery;
//  - redirect following: a v2 not_owner response is followed transparently
//    (bounded by max_redirects), so a client with a stale routing choice
//    still lands on the owner;
//  - fleet stats rollup: a stats request fans out to every shard and the
//    responses merge into one fleet-wide object (per-shard detail kept).
//
// One release ago all of this sat behind the monolithic ServiceClient;
// sqleq-client, the shell's CONNECT, and the soak bench all consume this
// API now. Thread-safe: concurrent Calls check connections out of the pool
// exclusively.
#ifndef SQLEQ_SERVICE_FLEET_CLIENT_H_
#define SQLEQ_SERVICE_FLEET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/connection.h"
#include "service/protocol.h"
#include "service/routing.h"
#include "util/json.h"
#include "util/status.h"

namespace sqleq {
namespace service {

struct FleetClientOptions {
  /// The topology. One shard degrades gracefully to a pooled single-node
  /// client (no broadcasts, no redirects to follow).
  std::vector<ShardId> shards;
  /// Per-attempt transport knobs; max_attempts bounds the pool-level
  /// evict-redial-resend loop, and the backoff schedule (deterministic
  /// jitter, server hints) is exactly PR-8's.
  RetryPolicy retry;
  /// Idle connections kept per shard; checkins beyond this close instead.
  size_t pool_size_per_shard = 2;
  /// How many not_owner redirects to follow before giving up and returning
  /// the redirect response to the caller.
  size_t max_redirects = 4;
  /// Highest protocol to negotiate on fresh connections. kV1 makes this a
  /// legacy v1-only client: hello is sent without "max_protocol" and the
  /// fleet verbs are refused client-side.
  ProtocolVersion max_protocol = kMaxProtocolVersion;
  /// Send every routed request to shard 0 instead of its owner; the v2
  /// server answers not_owner and the client follows. For exercising the
  /// redirect path (ci.sh fleet-smoke) — not for production use.
  bool route_to_first = false;
};

class FleetClient {
 public:
  /// Validates the topology (at least one shard). Dials lazily — creation
  /// never touches the network.
  static Result<std::unique_ptr<FleetClient>> Create(FleetClientOptions options);

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  /// Sends one raw request line to the right place and returns the decoded
  /// response object (`raw_response`, when non-null, receives the exact
  /// response line — synthesized for rollups):
  ///  - relation / ddl / dep: broadcast to every shard (the catalog log);
  ///    the last shard's response is returned;
  ///  - stats (multi-shard): fans out and returns the fleet rollup;
  ///  - everything else: routed by signature, redirects followed, with the
  ///    pool-level retry loop (backoff on overloaded/draining, evict +
  ///    redial + catalog replay + resend on transport failure).
  /// Unparsable lines pass through to shard 0 so the server's error
  /// contract is preserved byte-for-byte.
  Result<JsonValue> Call(const std::string& request_line,
                         std::string* raw_response = nullptr);

  /// EncodeRequest(spec) under the client's max protocol, then Call.
  Result<JsonValue> Call(const RequestSpec& spec,
                         std::string* raw_response = nullptr);

  /// Sends `request_line` to every shard in topology order (no routing, no
  /// catalog logging). Stops at the first transport-level failure; ok:false
  /// responses are returned for the caller to judge.
  Result<std::vector<JsonValue>> Broadcast(const std::string& request_line);

  /// The fleet-wide stats rollup: per-shard stats responses, summed memo
  /// counters, client-side pool and redirect counters, and the raw
  /// per-shard objects under "per_shard".
  Result<JsonValue> FleetStats(const std::string& id = "");

  /// Client-side observability (docs/fleet.md).
  struct Stats {
    uint64_t dials = 0;
    uint64_t pool_reuses = 0;
    uint64_t pool_evictions = 0;
    uint64_t redirects_followed = 0;
    uint64_t broadcasts = 0;
    uint64_t routed = 0;
    uint64_t catalog_replays = 0;
  };
  Stats stats() const;

  size_t shard_count() const { return ring_.size(); }
  const std::vector<ShardId>& shards() const { return ring_.shards(); }

  /// Closes every pooled connection. Further Calls redial.
  void Close();

 private:
  struct PooledConn {
    std::unique_ptr<Connection> conn;
    ProtocolVersion negotiated = ProtocolVersion::kV1;
    /// How many catalog log entries have been applied to this connection's
    /// server-side session.
    size_t catalog_seq = 0;
  };

  explicit FleetClient(FleetClientOptions options);

  /// An open connection to `shard` with the catalog log replayed through
  /// `replay_limit` entries: pops an idle pooled connection or dials +
  /// negotiates a fresh one.
  Result<PooledConn> Checkout(size_t shard, size_t replay_limit);
  /// Returns a healthy connection to the pool (or closes it when full).
  void Checkin(size_t shard, PooledConn conn);

  /// The pool-level retry loop against one shard (docstring on Call).
  /// `replay_limit` bounds catalog replay for broadcast sends; npos means
  /// "everything logged so far". `advance_catalog` marks the sent line as
  /// catalog entry `replay_limit` on success, so the connection's replay
  /// cursor skips it (the catalog broadcast path).
  Result<JsonValue> CallOnShard(size_t shard, const std::string& request_line,
                                std::string* raw_response,
                                size_t replay_limit = kNoReplayLimit,
                                bool advance_catalog = false);

  /// Routed dispatch: signature → owner → redirect-following loop.
  Result<JsonValue> CallRouted(size_t shard, const std::string& request_line,
                               std::string* raw_response);

  /// FleetStats that also synthesizes the raw rollup line.
  Result<JsonValue> FleetStatsInternal(const std::string& id,
                                       std::string* raw_response);

  static constexpr size_t kNoReplayLimit = static_cast<size_t>(-1);
  static bool IsCatalogVerb(const std::string& cmd) {
    return cmd == "relation" || cmd == "ddl" || cmd == "dep";
  }

  FleetClientOptions options_;
  HashRing ring_;

  mutable std::mutex mu_;
  std::vector<std::vector<PooledConn>> idle_;  // per shard, back = hottest
  std::vector<std::string> catalog_log_;
  Stats stats_;
};

}  // namespace service
}  // namespace sqleq

#endif  // SQLEQ_SERVICE_FLEET_CLIENT_H_
