// sqleqd — the sqleq equivalence daemon (docs/service.md). Serves the
// newline-delimited JSON protocol (check / reformulate / lint / stats plus
// the session-state commands) on a TCP port, with a shared byte-bounded
// chase memo, worker-pool execution, admission control, and graceful drain
// on SIGTERM/SIGINT: in-flight C&B runs are cancelled, checkpoint, and
// answer with resumable partial results before the process exits.
//
// Usage:
//   sqleqd [--port N] [--port-file PATH] [--workers N] [--max-inflight N]
//          [--memo-bytes N] [--engine-threads N] [--max-chase-steps N]
//          [--max-candidates N] [--metrics-out PATH]
//          [--memo-dir PATH] [--memo-disk-bytes N] [--memo-fsync]
//          [--degraded-admission] [--degraded-chase-steps N]
//          [--degraded-candidates N] [--retry-after-ms N]
//          [--fleet SPEC --shard-name NAME] [--shard-epoch N]
//
// --memo-dir turns on the tier-2 durable memo (docs/service.md, "Durability
// & Recovery"): warm chase verdicts persist across SIGKILL and restart.
// --degraded-admission swaps load shedding for the narrowed-budget lane
// (docs/robustness.md). --fleet ("a=h:p,b=h:p,...") + --shard-name join a
// sharded fleet (docs/fleet.md): v2 sessions are redirected to the shard
// owning each request; v1 sessions are served locally. Each shard keeps its
// own memo tiers.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "service/server.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

bool ParseSizeFlag(const char* value, size_t* out) {
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') return false;
  *out = static_cast<size_t>(parsed);
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--port-file PATH] [--workers N] [--max-inflight N]\n"
               "       [--memo-bytes N] [--engine-threads N] [--max-chase-steps N]\n"
               "       [--max-candidates N] [--metrics-out PATH]\n"
               "       [--memo-dir PATH] [--memo-disk-bytes N] [--memo-fsync]\n"
               "       [--degraded-admission] [--degraded-chase-steps N]\n"
               "       [--degraded-candidates N] [--retry-after-ms N]\n"
               "       [--fleet SPEC --shard-name NAME] [--shard-epoch N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sqleq::service::ServerOptions options;
  std::string port_file;
  std::string metrics_out;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    size_t parsed = 0;
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.port = static_cast<int>(parsed);
    } else if (arg == "--port-file") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      port_file = v;
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.worker_threads = parsed;
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.max_inflight = parsed;
    } else if (arg == "--memo-bytes") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.memo_byte_limit = parsed;
    } else if (arg == "--engine-threads") {
      // Accepted and ignored: the backchase sweep is serial.
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
    } else if (arg == "--max-chase-steps") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.default_budget.max_chase_steps = parsed;
    } else if (arg == "--max-candidates") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.default_budget.max_candidates = parsed;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      metrics_out = v;
    } else if (arg == "--memo-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.memo_dir = v;
    } else if (arg == "--memo-disk-bytes") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.memo_disk_bytes = parsed;
    } else if (arg == "--memo-fsync") {
      options.memo_fsync = true;
    } else if (arg == "--degraded-admission") {
      options.degraded_admission = true;
    } else if (arg == "--degraded-chase-steps") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.degraded_chase_steps = parsed;
    } else if (arg == "--degraded-candidates") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.degraded_candidates = parsed;
    } else if (arg == "--retry-after-ms") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.retry_after_ms = parsed;
    } else if (arg == "--fleet") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      sqleq::Result<std::vector<sqleq::service::ShardId>> fleet =
          sqleq::service::ParseFleetSpec(v);
      if (!fleet.ok()) {
        std::cerr << "sqleqd: --fleet: " << fleet.status().ToString() << "\n";
        return 2;
      }
      options.fleet = *std::move(fleet);
    } else if (arg == "--shard-name") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.shard_name = v;
    } else if (arg == "--shard-epoch") {
      const char* v = next();
      if (v == nullptr || !ParseSizeFlag(v, &parsed)) return Usage(argv[0]);
      options.shard_epoch = parsed;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return Usage(argv[0]);
    }
  }

  sqleq::service::Server server(options);
  sqleq::Status status = server.Start();
  if (!status.ok()) {
    std::cerr << "sqleqd: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "sqleqd listening on port " << server.port() << std::endl;
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // Signal handlers only set a flag; the drain itself (mutexes, socket
  // shutdowns) runs on this thread.
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "sqleqd draining..." << std::endl;
  server.RequestDrain();
  server.Wait();

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::trunc);
    out << server.metrics().Snapshot().ToPrometheusText();
  }
  std::cout << "sqleqd stopped" << std::endl;
  return 0;
}
