#include "service/protocol.h"

#include <utility>

namespace sqleq {
namespace service {
namespace {

bool FieldIsTrue(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
}

StatusCode ParseStatusCode(std::string_view name) {
  if (name == "OK") return StatusCode::kOk;
  if (name == "InvalidArgument") return StatusCode::kInvalidArgument;
  if (name == "NotFound") return StatusCode::kNotFound;
  if (name == "ResourceExhausted") return StatusCode::kResourceExhausted;
  if (name == "Cancelled") return StatusCode::kCancelled;
  if (name == "FailedPrecondition") return StatusCode::kFailedPrecondition;
  if (name == "Unsupported") return StatusCode::kUnsupported;
  return StatusCode::kInternal;
}

}  // namespace

bool IsKnownVerb(std::string_view cmd) {
  return cmd == "hello" || cmd == "ddl" || cmd == "relation" || cmd == "dep" ||
         cmd == "check" || cmd == "reformulate" || cmd == "lint" || cmd == "stats";
}

ProtocolVersion NegotiateVersion(std::optional<double> requested_max) {
  if (!requested_max.has_value()) return ProtocolVersion::kV1;
  if (*requested_max < static_cast<double>(ToInt(ProtocolVersion::kV1))) {
    return ProtocolVersion::kV1;
  }
  if (*requested_max >= static_cast<double>(ToInt(kMaxProtocolVersion))) {
    return kMaxProtocolVersion;
  }
  return static_cast<ProtocolVersion>(static_cast<int>(*requested_max));
}

Result<Request> ParseRequest(std::string_view line) {
  SQLEQ_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request line is not a JSON object");
  }
  Request request;
  const JsonValue* cmd = doc.Find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    return Status::InvalidArgument("request lacks a string \"cmd\" field");
  }
  request.cmd = cmd->string;
  if (const JsonValue* id = doc.Find("id"); id != nullptr) {
    if (!id->is_string()) {
      return Status::InvalidArgument("request \"id\" must be a string");
    }
    request.id = id->string;
  }
  request.body = std::move(doc);
  return request;
}

Result<Semantics> ParseSemanticsName(std::string_view name) {
  if (name == "set" || name == "S") return Semantics::kSet;
  if (name == "bag" || name == "B") return Semantics::kBag;
  if (name == "bag-set" || name == "BS") return Semantics::kBagSet;
  return Status::InvalidArgument("unknown semantics \"" + std::string(name) +
                                 "\" (expected set, bag, or bag-set)");
}

const char* SemanticsWireName(Semantics s) {
  switch (s) {
    case Semantics::kSet:
      return "set";
    case Semantics::kBag:
      return "bag";
    case Semantics::kBagSet:
      return "bag-set";
  }
  return "set";
}

std::string JsonString(std::string_view s) {
  return "\"" + EscapeJson(s) + "\"";
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  return Raw(key, JsonString(value));
}

JsonObject& JsonObject::Int(std::string_view key, uint64_t value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view raw_json) {
  if (!fields_.empty()) fields_ += ",";
  fields_ += JsonString(key);
  fields_ += ":";
  fields_ += raw_json;
  return *this;
}

std::string JsonObject::Build() const { return "{" + fields_ + "}"; }

Result<std::string> EncodeRequest(const RequestSpec& spec) {
  if (!IsKnownVerb(spec.cmd())) {
    return Status::InvalidArgument("unknown request verb \"" + spec.cmd() + "\"");
  }
  JsonObject out;
  if (!spec.id().empty()) out.Str("id", spec.id());
  out.Str("cmd", spec.cmd());
  std::string fields = spec.fields().Build();  // "{...}"
  std::string line = out.Build();              // "{...}"
  if (fields.size() > 2) {
    line.pop_back();  // drop '}'
    if (line.size() > 1) line += ",";
    line.append(fields, 1, fields.size() - 1);  // splice "...}"
  }
  return line;
}

DecodedResponse DecodeResponseObject(JsonValue body) {
  DecodedResponse out;
  out.id = OptionalString(body, "id").value_or("");
  out.ok = FieldIsTrue(body, "ok");
  out.overloaded = FieldIsTrue(body, "overloaded");
  out.draining = FieldIsTrue(body, "draining");
  if (std::optional<double> hint = OptionalNumber(body, "retry_after_ms");
      hint.has_value() && *hint >= 0) {
    out.retry_after_ms = static_cast<uint64_t>(*hint);
  }
  if (const JsonValue* error = body.Find("error");
      error != nullptr && error->is_object()) {
    out.error_code =
        ParseStatusCode(OptionalString(*error, "code").value_or(""));
    out.error_message = OptionalString(*error, "message").value_or("");
  }
  if (FieldIsTrue(body, "not_owner")) {
    if (const JsonValue* owner = body.Find("owner");
        owner != nullptr && owner->is_object()) {
      RedirectInfo redirect;
      redirect.shard = OptionalString(*owner, "shard").value_or("");
      redirect.host = OptionalString(*owner, "host").value_or("");
      redirect.port = static_cast<int>(
          OptionalNumber(*owner, "port").value_or(0));
      redirect.epoch = static_cast<uint64_t>(
          OptionalNumber(body, "epoch").value_or(0));
      out.redirect = std::move(redirect);
    }
  }
  out.body = std::move(body);
  return out;
}

Result<DecodedResponse> DecodeResponse(std::string_view line) {
  SQLEQ_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("response line is not a JSON object");
  }
  return DecodeResponseObject(std::move(doc));
}

Status DecodedResponse::ToStatus() const {
  if (ok) return Status::OK();
  std::string message = error_message.empty()
                            ? std::string("remote request failed")
                            : error_message;
  switch (error_code) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kUnsupported:
      return Status::Unsupported(std::move(message));
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(message));
}

std::string ErrorResponse(const std::string& id, const Status& status) {
  JsonObject error;
  error.Str("code", StatusCodeToString(status.code()))
      .Str("message", status.message());
  return JsonObject()
      .Str("id", id)
      .Bool("ok", false)
      .Raw("error", error.Build())
      .Build();
}

std::string OverloadedResponse(const std::string& id, uint64_t retry_after_ms) {
  JsonObject error;
  error.Str("code", StatusCodeToString(StatusCode::kResourceExhausted))
      .Str("message", "server overloaded: in-flight request limit reached");
  return JsonObject()
      .Str("id", id)
      .Bool("ok", false)
      .Bool("overloaded", true)
      .Int("retry_after_ms", retry_after_ms)
      .Raw("error", error.Build())
      .Build();
}

std::string DrainingResponse(const std::string& id, uint64_t retry_after_ms) {
  JsonObject error;
  error.Str("code", StatusCodeToString(StatusCode::kFailedPrecondition))
      .Str("message", "server draining; retry against a replacement server");
  return JsonObject()
      .Str("id", id)
      .Bool("ok", false)
      .Bool("draining", true)
      .Int("retry_after_ms", retry_after_ms)
      .Raw("error", error.Build())
      .Build();
}

std::string NotOwnerResponse(const std::string& id, const RedirectInfo& owner) {
  JsonObject owner_obj;
  owner_obj.Str("shard", owner.shard)
      .Str("host", owner.host)
      .Int("port", static_cast<uint64_t>(owner.port));
  JsonObject error;
  error.Str("code", StatusCodeToString(StatusCode::kFailedPrecondition))
      .Str("message", "request signature is owned by shard \"" + owner.shard +
                          "\"; follow the redirect");
  return JsonObject()
      .Str("id", id)
      .Bool("ok", false)
      .Bool("not_owner", true)
      .Raw("owner", owner_obj.Build())
      .Int("epoch", owner.epoch)
      .Raw("error", error.Build())
      .Build();
}

Result<std::string> RequireString(const JsonValue& body, const std::string& key) {
  const JsonValue* value = body.Find(key);
  if (value == nullptr || !value->is_string()) {
    return Status::InvalidArgument("request lacks a string \"" + key + "\" field");
  }
  return value->string;
}

std::optional<std::string> OptionalString(const JsonValue& body, const std::string& key) {
  const JsonValue* value = body.Find(key);
  if (value == nullptr || !value->is_string()) return std::nullopt;
  return value->string;
}

std::optional<double> OptionalNumber(const JsonValue& body, const std::string& key) {
  const JsonValue* value = body.Find(key);
  if (value == nullptr || !value->is_number()) return std::nullopt;
  return value->number;
}

bool OptionalBool(const JsonValue& body, const std::string& key, bool fallback) {
  const JsonValue* value = body.Find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kBool) return fallback;
  return value->boolean;
}

}  // namespace service
}  // namespace sqleq
