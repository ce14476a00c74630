#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace e2ebench {
namespace {

/// Waits for `pid` to exit for up to `timeout`; true when it was reaped.
bool WaitFor(pid_t pid, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    int status = 0;
    pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

sqleq::Result<std::unique_ptr<Daemon>> Daemon::Launch(const std::string& binary,
                                                      std::vector<std::string> args,
                                                      const std::string& port_file,
                                                      const std::string& log_file) {
  unlink(port_file.c_str());
  args.insert(args.begin(), binary);
  args.push_back("--port-file");
  args.push_back(port_file);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = 0;
  int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return sqleq::Status::Internal("cannot start " + binary + ": errno " +
                                   std::to_string(rc));
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, 0));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      daemon->port_ = std::stoi(text);
      return daemon;
    }
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      daemon->running_ = false;
      return sqleq::Status::Internal("sqleqd exited during start-up; see " + log_file);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return sqleq::Status::Internal("sqleqd did not publish its port; see " + log_file);
}

Daemon::~Daemon() {
  if (!running_) return;
  kill(pid_, SIGKILL);
  WaitFor(pid_, std::chrono::milliseconds(10000));
}

void Daemon::Stop() {
  if (!running_) return;
  kill(pid_, SIGTERM);
  if (!WaitFor(pid_, std::chrono::milliseconds(10000))) {
    kill(pid_, SIGKILL);
    WaitFor(pid_, std::chrono::milliseconds(10000));
  }
  running_ = false;
}

double Daemon::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Daemon::PeakRssMiB() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

sqleq::Result<int> FreeLoopbackPort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return sqleq::Status::Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  int port = -1;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  if (port <= 0) return sqleq::Status::Internal("no free loopback port");
  return port;
}

}  // namespace e2ebench
