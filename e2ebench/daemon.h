// sqleqd child processes for the benchmark: launch with a port file, wait
// until the port is published, read CPU time and peak RSS from /proc, and
// stop with SIGTERM (SIGKILL after a grace period). The destructor kills
// and reaps a daemon that is still running, so no error path leaks one.
#ifndef SQLEQ_E2EBENCH_DAEMON_H_
#define SQLEQ_E2EBENCH_DAEMON_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace e2ebench {

class Daemon {
 public:
  /// Starts `binary args... --port-file <port_file>` with stdout and stderr
  /// appended to `log_file`, and waits (up to 30 s) for the port file.
  static sqleq::Result<std::unique_ptr<Daemon>> Launch(
      const std::string& binary, std::vector<std::string> args,
      const std::string& port_file, const std::string& log_file);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (the daemon drains), then waits; SIGKILL after 10 s.
  void Stop();

  int port() const { return port_; }

  /// User plus system CPU seconds so far (/proc/<pid>/stat).
  double CpuSeconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMiB() const;

 private:
  Daemon(pid_t pid, int port) : pid_(pid), port_(port) {}

  pid_t pid_;
  int port_;
  bool running_ = true;
};

/// A currently free loopback TCP port (for fleet topologies, which name
/// their ports up front).
sqleq::Result<int> FreeLoopbackPort();

}  // namespace e2ebench

#endif  // SQLEQ_E2EBENCH_DAEMON_H_
