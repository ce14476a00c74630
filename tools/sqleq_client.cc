// sqleq-client — line-oriented client for sqleqd (docs/service.md). Reads
// JSON request lines from a file (or stdin), sends each through a
// FleetClient, and prints the response lines. Exits 1 if any response has
// "ok":false, unless --allow-errors. --print-prometheus additionally dumps
// the decoded Prometheus payload of every `stats` response to stderr, which
// is what the ci.sh service-smoke stage validates.
//
// Fleet mode (docs/fleet.md): --shards "a=h:p,b=h:p,..." targets a whole
// fleet — catalog lines broadcast to every shard, expensive lines route to
// the shard owning their canonical signature, stats lines return the
// fleet-wide rollup. --route first sends routed lines to shard 0 instead
// and follows the v2 not_owner redirects (the fleet-smoke stage uses this
// to exercise the redirect path). --max-protocol 1 pins the client to the
// legacy v1 wire behavior (no negotiation, no redirects).
//
// Robustness (docs/robustness.md): --retries enables the pool-level bounded
// retry/backoff loop for overloaded/draining responses and transport
// failures (dead connections are evicted, redialed, and the catalog is
// replayed before the resend); --timeout-ms / --connect-timeout-ms bound
// each read and each (re)dial; --retry-seed fixes the deterministic jitter.
// A resend is the same line, dispatched again by the server and answered
// from its chase memo.
//
// Usage:
//   sqleq-client (--port N [--host H] | --shards SPEC) [--file PATH]
//                [--allow-errors] [--print-prometheus] [--route first]
//                [--max-protocol N] [--retries N] [--backoff-ms N]
//                [--timeout-ms N] [--connect-timeout-ms N] [--retry-seed N]
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "service/fleet_client.h"
#include "service/protocol.h"
#include "service/routing.h"
#include "util/string_util.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--port N [--host H] | --shards SPEC) [--file PATH]\n"
               "       [--allow-errors] [--print-prometheus] [--route first]\n"
               "       [--max-protocol N] [--retries N] [--backoff-ms N]\n"
               "       [--timeout-ms N] [--connect-timeout-ms N] [--retry-seed N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string shards_spec;
  std::string file;
  bool allow_errors = false;
  bool print_prometheus = false;
  sqleq::service::FleetClientOptions options;
  options.retry.max_attempts = 1;  // retries off unless --retries is given

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      port = std::atoi(v);
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      shards_spec = v;
    } else if (arg == "--route") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::string(v) == "first") {
        options.route_to_first = true;
      } else if (std::string(v) != "owner") {
        std::cerr << "--route takes 'owner' (default) or 'first'\n";
        return Usage(argv[0]);
      }
    } else if (arg == "--max-protocol") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_protocol = std::atoi(v) <= 1
                                 ? sqleq::service::ProtocolVersion::kV1
                                 : sqleq::service::ProtocolVersion::kV2;
    } else if (arg == "--file") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      file = v;
    } else if (arg == "--allow-errors") {
      allow_errors = true;
    } else if (arg == "--print-prometheus") {
      print_prometheus = true;
    } else if (arg == "--retries") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.retry.max_attempts = 1 + static_cast<size_t>(std::atoi(v));
    } else if (arg == "--backoff-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.retry.initial_backoff_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.retry.request_timeout = std::chrono::milliseconds(std::atoll(v));
    } else if (arg == "--connect-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.retry.connect_timeout = std::chrono::milliseconds(std::atoll(v));
    } else if (arg == "--retry-seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.retry.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return Usage(argv[0]);
    }
  }
  if (shards_spec.empty()) {
    if (port <= 0) return Usage(argv[0]);
    shards_spec = host + ":" + std::to_string(port);
  } else if (port > 0) {
    std::cerr << "--shards and --port are mutually exclusive\n";
    return Usage(argv[0]);
  }

  std::istream* in = &std::cin;
  std::ifstream file_in;
  if (!file.empty()) {
    file_in.open(file);
    if (!file_in) {
      std::cerr << "cannot open " << file << "\n";
      return 1;
    }
    in = &file_in;
  }

  {
    sqleq::Result<std::vector<sqleq::service::ShardId>> shards =
        sqleq::service::ParseFleetSpec(shards_spec);
    if (!shards.ok()) {
      std::cerr << "bad shard spec: " << shards.status().ToString() << "\n";
      return 1;
    }
    options.shards = *std::move(shards);
  }
  auto client = sqleq::service::FleetClient::Create(std::move(options));
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.status().ToString() << "\n";
    return 1;
  }

  bool saw_error = false;
  std::string line;
  while (std::getline(*in, line)) {
    if (sqleq::Trim(line).empty()) continue;
    std::string raw;
    auto response = (*client)->Call(line, &raw);
    if (!response.ok()) {
      std::cerr << "request failed: " << response.status().ToString() << "\n";
      return 1;
    }
    std::cout << raw << "\n";
    const sqleq::JsonValue* ok = response->Find("ok");
    if (ok == nullptr || ok->kind != sqleq::JsonValue::Kind::kBool || !ok->boolean) {
      saw_error = true;
    }
    if (print_prometheus) {
      if (const sqleq::JsonValue* prom = response->Find("prometheus");
          prom != nullptr && prom->is_string()) {
        std::cerr << prom->string;
      }
    }
  }
  return (saw_error && !allow_errors) ? 1 : 0;
}
