// Wire protocol of sqleqd (docs/service.md): one JSON object per line in
// both directions. A request is {"id": <string>, "cmd": <string>, ...};
// every response echoes the id and carries "ok". Parsing reuses util/json;
// rendering goes through JsonObject so escaping is uniform.
//
// The protocol is version-explicit. v1 is the PR-5/PR-8 single-node
// protocol; v2 adds fleet routing metadata (docs/fleet.md): `hello`
// negotiation via "max_protocol", `not_owner` redirects, and shard / epoch
// / fleet fields. Both versions carry the same verbs.
// A connection speaks v1 until a hello carrying "max_protocol" negotiates
// it up, so v1 clients see byte-identical v1 responses forever.
#ifndef SQLEQ_SERVICE_PROTOCOL_H_
#define SQLEQ_SERVICE_PROTOCOL_H_

#include <optional>
#include <string>
#include <string_view>

#include "db/eval.h"
#include "util/json.h"
#include "util/status.h"

namespace sqleq {
namespace service {

/// The negotiable protocol versions. Integer values are what travels in
/// hello's "max_protocol" request field and "protocol" response field.
enum class ProtocolVersion : int {
  kV1 = 1,  ///< single-node verbs: hello ddl relation dep check reformulate lint stats
  kV2 = 2,  ///< + fleet routing: not_owner redirects, shard / epoch fields
};

/// Baseline every connection starts at (and what a plain v1 hello reports).
inline constexpr int kProtocolVersion = 1;
/// The newest version this build serves / requests.
inline constexpr ProtocolVersion kMaxProtocolVersion = ProtocolVersion::kV2;

inline constexpr int ToInt(ProtocolVersion v) { return static_cast<int>(v); }

/// True for the verbs sqleqd serves: hello ddl relation dep check
/// reformulate lint stats. Every one is available at every protocol
/// version; EncodeRequest refuses any other.
bool IsKnownVerb(std::string_view cmd);

/// Version negotiation, applied by the server to hello's "max_protocol"
/// field and by clients to the "protocol" echoed back: absent means v1
/// (legacy hello), otherwise the value clamped into the supported range.
ProtocolVersion NegotiateVersion(std::optional<double> requested_max);

/// A parsed request line. `body` is the whole request object, so handlers
/// read command-specific fields through the helpers below.
struct Request {
  std::string id;
  std::string cmd;
  JsonValue body;
};

/// Parses one request line: a JSON object with a string "cmd" (required)
/// and an optional string "id" (echoed on the response; defaults to "").
Result<Request> ParseRequest(std::string_view line);

/// "set" / "bag" / "bag-set", plus the shell's S / B / BS spellings.
Result<Semantics> ParseSemanticsName(std::string_view name);

/// The canonical wire spelling: "set" / "bag" / "bag-set".
const char* SemanticsWireName(Semantics s);

/// `s` as a quoted, escaped JSON string literal.
std::string JsonString(std::string_view s);

/// Incremental JSON object rendering for response lines. Str escapes;
/// Raw splices pre-rendered JSON (nested objects, arrays, numbers).
class JsonObject {
 public:
  JsonObject& Str(std::string_view key, std::string_view value);
  JsonObject& Int(std::string_view key, uint64_t value);
  JsonObject& Bool(std::string_view key, bool value);
  JsonObject& Raw(std::string_view key, std::string_view raw_json);
  /// "{...}" with the fields in insertion order.
  std::string Build() const;

 private:
  std::string fields_;
};

// ---- Request encoding (client side). ----

/// A request under construction: verb + optional id + body fields in
/// insertion order. EncodeRequest renders it; the per-verb JSON assembly
/// that used to be duplicated across the shell, sqleq-client, and tests all
/// goes through this one pair now.
class RequestSpec {
 public:
  explicit RequestSpec(std::string_view cmd, std::string_view id = "")
      : cmd_(cmd), id_(id) {}

  RequestSpec& Str(std::string_view key, std::string_view value) {
    fields_.Str(key, value);
    return *this;
  }
  RequestSpec& Int(std::string_view key, uint64_t value) {
    fields_.Int(key, value);
    return *this;
  }
  RequestSpec& Bool(std::string_view key, bool value) {
    fields_.Bool(key, value);
    return *this;
  }
  RequestSpec& Raw(std::string_view key, std::string_view raw_json) {
    fields_.Raw(key, raw_json);
    return *this;
  }

  const std::string& cmd() const { return cmd_; }
  const std::string& id() const { return id_; }
  const JsonObject& fields() const { return fields_; }

 private:
  std::string cmd_;
  std::string id_;
  JsonObject fields_;
};

/// Renders `spec` as one request line: {"id":...,"cmd":...,<fields...>}
/// (id omitted when empty). InvalidArgument when the verb is unknown.
Result<std::string> EncodeRequest(const RequestSpec& spec);

// ---- Response decoding (client side). ----

/// Where a not_owner redirect points: the shard that owns the request's
/// signature, plus the topology epoch the redirecting shard was configured
/// with (a client whose topology disagrees should re-resolve).
struct RedirectInfo {
  std::string shard;
  std::string host;
  int port = 0;
  uint64_t epoch = 0;
};

/// One decoded response line: the structured fields every caller ends up
/// re-deriving by hand — ok, the error object, the backpressure markers,
/// and (v2) the not_owner redirect. `body` keeps the full object for
/// verb-specific fields.
struct DecodedResponse {
  JsonValue body;
  std::string id;
  bool ok = false;
  /// Set when !ok: the error object's code (parsed) and message.
  StatusCode error_code = StatusCode::kInternal;
  std::string error_message;
  bool overloaded = false;
  bool draining = false;
  std::optional<uint64_t> retry_after_ms;
  /// Set when the response is a v2 not_owner redirect.
  std::optional<RedirectInfo> redirect;

  /// OK() when ok, else the error object as a Status (the shell's
  /// "remote <code>: <message>" shape comes from this).
  Status ToStatus() const;
};

/// Decodes one response line. InvalidArgument only when the line is not a
/// JSON object; a well-formed object missing fields decodes with defaults.
Result<DecodedResponse> DecodeResponse(std::string_view line);
/// Decodes an already-parsed response object.
DecodedResponse DecodeResponseObject(JsonValue body);

// ---- Response rendering (server side). ----

/// {"id":...,"ok":false,"error":{"code":"<StatusCodeToString>","message":...}}
std::string ErrorResponse(const std::string& id, const Status& status);

/// The load-shedding response: ok:false, overloaded:true, a retry_after_ms
/// backoff hint, and a ResourceExhausted error object — so naive clients
/// treat it as a failure and aware clients (Connection::CallWithRetry)
/// back off and retry.
std::string OverloadedResponse(const std::string& id,
                               uint64_t retry_after_ms = 100);

/// The drain-time rejection for new expensive work: ok:false,
/// draining:true (the machine-readable code — no message pattern-matching
/// needed), a retry_after_ms hint for clients that will retry against a
/// replacement server, and a FailedPrecondition error object for naive
/// clients.
std::string DrainingResponse(const std::string& id,
                             uint64_t retry_after_ms = 100);

/// The v2 routing rejection: ok:false, not_owner:true, the owning shard's
/// coordinates and the topology epoch, and a FailedPrecondition error
/// object for clients that do not follow redirects. Only ever sent on
/// connections that negotiated v2 — v1 clients are always served locally.
std::string NotOwnerResponse(const std::string& id, const RedirectInfo& owner);

// ---- Field accessors over a parsed request body. ----

/// The string member `key`, or InvalidArgument naming it.
Result<std::string> RequireString(const JsonValue& body, const std::string& key);
std::optional<std::string> OptionalString(const JsonValue& body, const std::string& key);
std::optional<double> OptionalNumber(const JsonValue& body, const std::string& key);
bool OptionalBool(const JsonValue& body, const std::string& key, bool fallback);

}  // namespace service
}  // namespace sqleq

#endif  // SQLEQ_SERVICE_PROTOCOL_H_
