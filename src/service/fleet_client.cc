#include "service/fleet_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace sqleq {
namespace service {
namespace {

bool FieldIsTrue(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
}

/// Reads `field` from the object member `section` of a shard's stats
/// response, defaulting to 0 — older shards simply contribute nothing.
uint64_t StatsField(const JsonValue& body, const char* section,
                    const char* field) {
  const JsonValue* obj = body.Find(section);
  if (obj == nullptr || !obj->is_object()) return 0;
  std::optional<double> v = OptionalNumber(*obj, field);
  return v.has_value() && *v > 0 ? static_cast<uint64_t>(*v) : 0;
}

}  // namespace

Result<std::unique_ptr<FleetClient>> FleetClient::Create(
    FleetClientOptions options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("fleet client needs at least one shard");
  }
  return std::unique_ptr<FleetClient>(new FleetClient(std::move(options)));
}

FleetClient::FleetClient(FleetClientOptions options)
    : options_(std::move(options)), ring_(options_.shards) {
  idle_.resize(ring_.size());
}

void FleetClient::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& shard_pool : idle_) shard_pool.clear();
}

FleetClient::Stats FleetClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<FleetClient::PooledConn> FleetClient::Checkout(size_t shard,
                                                      size_t replay_limit) {
  PooledConn pooled;
  bool have = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (replay_limit == kNoReplayLimit) replay_limit = catalog_log_.size();
    replay_limit = std::min(replay_limit, catalog_log_.size());
    if (!idle_[shard].empty()) {
      pooled = std::move(idle_[shard].back());
      idle_[shard].pop_back();
      ++stats_.pool_reuses;
      have = true;
    }
  }
  const ShardId& target = ring_.shards()[shard];
  if (!have) {
    Result<Connection> conn =
        Connection::Connect(target.host, target.port, options_.retry);
    if (!conn.ok()) return conn.status();
    pooled.conn = std::make_unique<Connection>(std::move(*conn));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.dials;
    }
    if (ToInt(options_.max_protocol) >= ToInt(ProtocolVersion::kV2)) {
      // Negotiate up-front so routed v2 traffic gets redirects and the
      // fleet verbs. A v1-only client (max_protocol = kV1) skips this and
      // the server session stays v1 — byte-identical legacy behavior.
      RequestSpec hello("hello");
      hello.Int("max_protocol",
                static_cast<uint64_t>(ToInt(options_.max_protocol)));
      Result<std::string> line = EncodeRequest(hello, options_.max_protocol);
      if (!line.ok()) return line.status();
      Result<JsonValue> response = pooled.conn->Call(*line);
      if (!response.ok()) return response.status();
      DecodedResponse decoded = DecodeResponseObject(std::move(*response));
      if (!decoded.ok) return decoded.ToStatus();
      int negotiated = static_cast<int>(
          OptionalNumber(decoded.body, "protocol").value_or(1));
      negotiated = std::min(negotiated, ToInt(options_.max_protocol));
      pooled.negotiated = negotiated >= ToInt(ProtocolVersion::kV2)
                              ? ProtocolVersion::kV2
                              : ProtocolVersion::kV1;
    }
  }
  if (pooled.catalog_seq < replay_limit) {
    std::vector<std::string> lines;
    {
      std::lock_guard<std::mutex> lock(mu_);
      lines.assign(catalog_log_.begin() +
                       static_cast<ptrdiff_t>(pooled.catalog_seq),
                   catalog_log_.begin() + static_cast<ptrdiff_t>(replay_limit));
      ++stats_.catalog_replays;
    }
    for (const std::string& logged : lines) {
      ++pooled.catalog_seq;
      if (logged.empty()) continue;  // tombstoned (failed) catalog line
      Result<JsonValue> response = pooled.conn->Call(logged);
      if (!response.ok()) return response.status();
      DecodedResponse decoded = DecodeResponseObject(std::move(*response));
      if (!decoded.ok) return decoded.ToStatus();
    }
  }
  return pooled;
}

void FleetClient::Checkin(size_t shard, PooledConn conn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (idle_[shard].size() < options_.pool_size_per_shard) {
    idle_[shard].push_back(std::move(conn));
  }
  // Beyond the cap the connection just closes (PooledConn destructor).
}

Result<JsonValue> FleetClient::CallOnShard(size_t shard,
                                           const std::string& request_line,
                                           std::string* raw_response,
                                           size_t replay_limit,
                                           bool advance_catalog) {
  const size_t attempts = std::max<size_t>(1, options_.retry.max_attempts);
  Result<JsonValue> result = Status::Internal("retry loop did not run");
  std::optional<PooledConn> held;
  std::optional<uint64_t> hint;
  for (size_t attempt = 1; attempt <= attempts; ++attempt) {
    hint.reset();
    if (!held.has_value()) {
      // Fresh checkout: pooled reuse or dial + hello + catalog replay. A
      // failure here (shard down) burns an attempt and backs off, exactly
      // like a failed redial in Connection::CallWithRetry.
      Result<PooledConn> fresh = Checkout(shard, replay_limit);
      if (fresh.ok()) {
        held = std::move(*fresh);
      } else {
        result = fresh.status();
      }
    }
    if (held.has_value()) {
      result = held->conn->Call(request_line, raw_response);
      if (result.ok()) {
        if (!IsRetryableResponse(*result, &hint)) {
          if (advance_catalog && replay_limit != kNoReplayLimit) {
            // The line we just sent IS catalog entry `replay_limit`: mark it
            // applied so the next checkout of this connection skips it.
            held->catalog_seq = std::max(held->catalog_seq, replay_limit + 1);
          }
          Checkin(shard, std::move(*held));
          return result;
        }
        if (FieldIsTrue(*result, "draining")) {
          // This server instance is going away; evict so the retry dials
          // whatever rebinds the port. Overloaded keeps the healthy
          // connection and just backs off.
          held.reset();
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.pool_evictions;
        }
      } else {
        // Transport failure: the connection is dead. Evict it; the next
        // attempt redials through Checkout (catalog replay included) and
        // resends the same line — ids stay idempotent server-side.
        held.reset();
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.pool_evictions;
      }
    }
    if (attempt == attempts) break;
    uint64_t backoff = RetryBackoffMs(options_.retry, attempt, hint);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  }
  if (held.has_value()) Checkin(shard, std::move(*held));
  return result;
}

Result<JsonValue> FleetClient::CallRouted(size_t shard,
                                          const std::string& request_line,
                                          std::string* raw_response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.routed;
  }
  Result<JsonValue> result = Status::Internal("routing loop did not run");
  size_t target = shard;
  for (size_t hop = 0; hop <= options_.max_redirects; ++hop) {
    result = CallOnShard(target, request_line, raw_response);
    if (!result.ok() || !FieldIsTrue(*result, "not_owner")) return result;
    DecodedResponse decoded = DecodeResponseObject(JsonValue(*result));
    if (!decoded.redirect.has_value()) return result;
    int next = ring_.IndexOf(decoded.redirect->shard);
    if (next < 0) {
      for (size_t i = 0; i < ring_.size(); ++i) {
        if (ring_.shards()[i].host == decoded.redirect->host &&
            ring_.shards()[i].port == decoded.redirect->port) {
          next = static_cast<int>(i);
          break;
        }
      }
    }
    if (next < 0 || static_cast<size_t>(next) == target) {
      return result;  // redirect points outside our topology; let the caller see it
    }
    target = static_cast<size_t>(next);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.redirects_followed;
  }
  return result;
}

Result<JsonValue> FleetClient::Call(const std::string& request_line,
                                    std::string* raw_response) {
  Result<Request> request = ParseRequest(request_line);
  if (!request.ok()) {
    // Unparsable lines pass through so the server's error contract (and
    // its exact bytes) is what the caller sees.
    return CallOnShard(0, request_line, raw_response);
  }
  if (IsCatalogVerb(request->cmd)) {
    // Catalog replication: log first (fresh checkouts replay it), then
    // send to one connection per shard with replay bounded to the log
    // before this line — and bump that connection's replay cursor past it,
    // so nothing applies twice.
    size_t limit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      limit = catalog_log_.size();
      catalog_log_.push_back(request_line);
      ++stats_.broadcasts;
    }
    Result<JsonValue> last = Status::Internal("no shards");
    for (size_t shard = 0; shard < ring_.size(); ++shard) {
      // Through the pool-level retry loop: a shard mid-(re)start gets the
      // full dial-backoff schedule, not a hard failure on the first refused
      // connect. advance_catalog bumps the winning connection's replay
      // cursor past this line so nothing applies twice.
      Result<JsonValue> response = CallOnShard(shard, request_line,
                                              raw_response, limit,
                                              /*advance_catalog=*/true);
      if (!response.ok()) return response.status();
      if (!FieldIsTrue(*response, "ok")) {
        // Deterministic rejection (bad DDL, unparsable dep): it failed the
        // same way on every shard it would reach, and it mutated nothing
        // server-side — tombstone the log entry so replays skip it.
        std::lock_guard<std::mutex> lock(mu_);
        catalog_log_[limit].clear();
        return response;
      }
      last = std::move(response);
    }
    return last;
  }
  if (request->cmd == "stats" && ring_.size() > 1) {
    return FleetStatsInternal(request->id, raw_response);
  }
  std::string signature = CanonicalRequestSignature(request->cmd, request->body);
  size_t owner = options_.route_to_first ? 0 : ring_.OwnerIndex(signature);
  return CallRouted(owner, request_line, raw_response);
}

Result<JsonValue> FleetClient::Call(const RequestSpec& spec,
                                    std::string* raw_response) {
  SQLEQ_ASSIGN_OR_RETURN(std::string line,
                         EncodeRequest(spec, options_.max_protocol));
  return Call(line, raw_response);
}

Result<std::vector<JsonValue>> FleetClient::Broadcast(
    const std::string& request_line) {
  std::vector<JsonValue> responses;
  responses.reserve(ring_.size());
  for (size_t shard = 0; shard < ring_.size(); ++shard) {
    SQLEQ_ASSIGN_OR_RETURN(JsonValue response,
                           CallOnShard(shard, request_line, nullptr));
    responses.push_back(std::move(response));
  }
  return responses;
}

Result<JsonValue> FleetClient::FleetStats(const std::string& id) {
  return FleetStatsInternal(id, nullptr);
}

Result<JsonValue> FleetClient::FleetStatsInternal(const std::string& id,
                                                  std::string* raw_response) {
  SQLEQ_ASSIGN_OR_RETURN(std::string line,
                         EncodeRequest(RequestSpec("stats", id), options_.max_protocol));
  uint64_t memo_hits = 0, memo_misses = 0, memo_entries = 0, memo_contexts = 0;
  std::string per_shard = "[";
  for (size_t shard = 0; shard < ring_.size(); ++shard) {
    std::string shard_raw;
    SQLEQ_ASSIGN_OR_RETURN(JsonValue response,
                           CallOnShard(shard, line, &shard_raw));
    memo_hits += StatsField(response, "memo", "hits");
    memo_misses += StatsField(response, "memo", "misses");
    memo_entries += StatsField(response, "memo", "entries");
    memo_contexts += StatsField(response, "memo", "contexts");
    if (shard > 0) per_shard += ",";
    per_shard += shard_raw;
  }
  per_shard += "]";
  Stats client = stats();
  JsonObject memo;
  memo.Int("hits", memo_hits)
      .Int("misses", memo_misses)
      .Int("entries", memo_entries)
      .Int("contexts", memo_contexts);
  JsonObject client_obj;
  client_obj.Int("dials", client.dials)
      .Int("pool_reuses", client.pool_reuses)
      .Int("pool_evictions", client.pool_evictions)
      .Int("redirects_followed", client.redirects_followed)
      .Int("broadcasts", client.broadcasts)
      .Int("routed", client.routed)
      .Int("catalog_replays", client.catalog_replays);
  std::string rendered = JsonObject()
                             .Str("id", id)
                             .Bool("ok", true)
                             .Bool("fleet", true)
                             .Int("shards", ring_.size())
                             .Raw("memo", memo.Build())
                             .Raw("client", client_obj.Build())
                             .Raw("per_shard", per_shard)
                             .Build();
  if (raw_response != nullptr) *raw_response = rendered;
  return ParseJson(rendered);
}

}  // namespace service
}  // namespace sqleq
