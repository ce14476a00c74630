// Transport level of the sqleqd client stack: one TCP connection speaking
// the line protocol — dial, send one JSON request line, read and parse the
// one-line response — plus the retry/backoff building blocks
// (docs/robustness.md). Connection replaces the monolithic ServiceClient
// (service/client.h keeps a deprecated alias for one release); callers that
// want pooling, shard routing, and redirect following sit one level up, on
// FleetClient (service/fleet_client.h).
#ifndef SQLEQ_SERVICE_CONNECTION_H_
#define SQLEQ_SERVICE_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "util/json.h"
#include "util/socket.h"
#include "util/status.h"

namespace sqleq {
namespace service {

/// Client-side robustness knobs (docs/robustness.md). Attempts are total
/// tries including the first; backoff grows exponentially from
/// initial_backoff_ms, is capped at max_backoff_ms, raised to any
/// retry_after_ms hint the server sent, and jittered deterministically from
/// `seed` so test runs and reproductions sleep the same schedule.
struct RetryPolicy {
  size_t max_attempts = 4;
  uint64_t initial_backoff_ms = 50;
  double multiplier = 2.0;
  uint64_t max_backoff_ms = 2000;
  /// Jitter seed; same seed + same attempt number => same backoff.
  uint64_t seed = 0;
  /// Connect deadline for dialing and redialing. <=0 = blocking connect.
  std::chrono::milliseconds connect_timeout{0};
  /// Per-response read deadline (SO_RCVTIMEO). <=0 = wait forever.
  std::chrono::milliseconds request_timeout{0};
};

/// What CallWithRetry did, for logs and determinism tests.
struct RetryStats {
  size_t attempts = 0;
  size_t reconnects = 0;
  uint64_t total_backoff_ms = 0;
};

/// The backoff before retry `attempt` (1 = after the first failure): the
/// capped exponential step, raised to the server's retry_after_ms hint when
/// one arrived, then deterministically jittered into [base/2, base] from
/// (policy.seed, attempt). Pure — the schedule is reproducible.
uint64_t RetryBackoffMs(const RetryPolicy& policy, size_t attempt,
                        std::optional<uint64_t> server_hint_ms);

/// True when `response` is a structured backpressure response —
/// overloaded:true (admission shed) or draining:true (SIGTERM drain) — and
/// a retry may succeed. Extracts the server's retry_after_ms hint.
bool IsRetryableResponse(const JsonValue& response,
                         std::optional<uint64_t>* server_hint_ms);

/// One dialed connection to one sqleqd. Not thread-safe; confine to one
/// thread (FleetClient checks connections out of its pool exclusively).
class Connection {
 public:
  static Result<Connection> Connect(const std::string& host, int port);

  /// Connect honoring policy.connect_timeout and installing
  /// policy.request_timeout as the read deadline for every later Call.
  static Result<Connection> Connect(const std::string& host, int port,
                                    const RetryPolicy& policy);

  Connection(Connection&&) = default;
  Connection& operator=(Connection&&) = default;

  /// Sends one request line (newline appended) and blocks for the response
  /// line, parsed as JSON. A connection closed before the response is a
  /// FailedPrecondition (how callers observe server-side drops).
  Result<JsonValue> Call(const std::string& request_line);

  /// Call() that also hands back the raw response line (for byte-exact
  /// comparisons in tests).
  Result<JsonValue> Call(const std::string& request_line, std::string* raw_response);

  /// Call() wrapped in the retry loop: a transport failure (dropped
  /// connection, read deadline) redials and resends; an overloaded or
  /// draining response backs off per RetryBackoffMs and resends. The same
  /// line is resent verbatim; requests are pure, so the server dispatches a
  /// resend again and the chase memo answers it. Returns the last response
  /// (or transport error) when the attempt budget runs out.
  Result<JsonValue> CallWithRetry(const std::string& request_line,
                                  const RetryPolicy& policy,
                                  std::string* raw_response = nullptr,
                                  RetryStats* stats = nullptr);

  /// Unpaired send/receive halves, for tests that interleave.
  Status Send(const std::string& request_line);
  Result<std::optional<std::string>> ReadLine();

  const std::string& host() const { return host_; }
  int port() const { return port_; }

  void Close() { conn_.Close(); }

 private:
  Connection(TcpConn conn, std::string host, int port)
      : conn_(std::move(conn)), host_(std::move(host)), port_(port) {}

  /// Replaces the connection by redialing host_:port_ (policy timeouts
  /// apply). The old connection is closed either way.
  Status Reconnect(const RetryPolicy& policy);

  TcpConn conn_;
  std::string host_;
  int port_ = 0;
};

}  // namespace service
}  // namespace sqleq

#endif  // SQLEQ_SERVICE_CONNECTION_H_
