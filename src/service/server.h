// sqleqd — the long-running equivalence service (docs/service.md). One
// process owns a process-lifetime EquivalenceEngine whose chase memo is
// shared across every connection (bounded by bytes, LRU-evicted), a fixed
// number of execution slots for the expensive requests (check / reformulate
// / lint), and an admission controller that sheds load with a structured
// `overloaded` response once the in-flight limit is reached.
//
// Lifecycle: Start() binds the port and spawns the accept loop; every
// accepted connection gets a thread running the line-oriented protocol over
// a per-connection Session. That thread also executes the connection's
// expensive requests, each once it holds an execution slot. RequestDrain()
// (the SIGTERM path) stops accepting, cancels in-flight engine calls through
// the shared CancellationToken — anytime C&B runs then checkpoint and return
// partial results carrying the serialized CandBCheckpoint — shuts the read
// side of every connection so idle readers see EOF, and lets Wait() join
// everything. Fault sites service.accept / service.parse /
// service.dispatch make connection drops and request failures
// deterministically reproducible (tests/service_test.cc).
#ifndef SQLEQ_SERVICE_SERVER_H_
#define SQLEQ_SERVICE_SERVER_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chase/memo_store.h"
#include "equivalence/engine.h"
#include "service/protocol.h"
#include "service/routing.h"
#include "service/session.h"
#include "util/engine_context.h"
#include "util/fault.h"
#include "util/resource_budget.h"
#include "util/socket.h"
#include "util/telemetry.h"

namespace sqleq {
namespace service {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via Server::port()).
  int port = 0;
  /// Execution slots (--workers): at most this many check/reformulate/lint
  /// requests execute at once, each on the connection thread that read it.
  /// 0 means 1; Start() rejects a count above the slot semaphore's max().
  size_t worker_threads = 2;
  /// Admission cap: expensive requests beyond this many queued-or-running
  /// are shed with OverloadedResponse. Cheap requests (hello, ddl, dep,
  /// relation, stats) always pass.
  size_t max_inflight = 4;
  /// Byte bound on each shared chase memo context (0 = unbounded). A
  /// process-lifetime server should set this; see ChaseMemo.
  size_t memo_byte_limit = 64u << 20;
  /// Per-request resource caps. Requests may lower (never raise) the step,
  /// candidate, and thread limits, and may set their own deadline_ms.
  ResourceBudget default_budget;
  /// Deterministic fault injection for the service.* sites and, threaded
  /// through EngineContext, the engine sites. Borrowed; may be null.
  FaultInjector* faults = nullptr;
  /// Tier-2 durable memo (--memo-dir): when non-empty, Start() opens a
  /// MemoStore here and attaches it to the engine, so warm chase verdicts
  /// survive crashes and restarts. Empty disables the tier.
  std::string memo_dir;
  /// On-disk budget for the tier-2 store (--memo-disk-bytes).
  size_t memo_disk_bytes = 256u << 20;
  /// fsync each tier-2 append (--memo-fsync); see MemoStoreOptions.
  bool memo_fsync = false;
  /// Overload degradation (--degraded-admission): instead of shedding an
  /// expensive request past max_inflight, run it inline under the narrowed
  /// degraded_* budget — memo hits still answer instantly, fresh work
  /// returns an anytime kUnknown with ExhaustionInfo, a checkpoint, and a
  /// retry_after_ms hint (prefix-consistent with the full-budget run).
  bool degraded_admission = false;
  size_t degraded_chase_steps = 128;
  size_t degraded_candidates = 64;
  /// Backoff hint stamped on overloaded / draining / degraded responses.
  uint64_t retry_after_ms = 100;
  /// Idempotent request ids: settled responses of expensive requests that
  /// carried a non-empty id are cached (LRU, this many entries) and a
  /// repeated id replays the response instead of re-dispatching — a client
  /// retry after a lost response lands here, or on the memo. 0 disables.
  size_t idempotency_cache = 128;
  /// Fleet mode (docs/fleet.md): the full shard topology, including this
  /// process. Empty = single node (v1 behavior unchanged, v2 extras only).
  /// When set, shard_name must name one entry; if port is 0 the topology
  /// entry's port is bound.
  std::vector<ShardId> fleet;
  std::string shard_name;
  /// Topology generation, stamped on v2 hellos / redirects / stats so
  /// clients can notice a reshard. Bumped by the operator, not the server.
  uint64_t shard_epoch = 1;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates the execution slots, binds the port and starts the accept loop.
  Status Start();

  /// The bound port (valid after Start()).
  int port() const { return listener_.port(); }

  /// Graceful drain: stop accepting, cancel in-flight engine calls (they
  /// checkpoint and answer with partial results), unblock idle connections.
  /// Idempotent; safe from any thread.
  void RequestDrain();

  /// Joins the accept loop and every connection thread. Returns once all
  /// in-flight responses are written.
  void Wait();

  /// RequestDrain() + Wait().
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Live connection count — the leak check fault tests poll this to 0.
  size_t active_sessions() const { return active_sessions_.load(std::memory_order_acquire); }
  /// Expensive requests queued or running right now.
  size_t inflight() const { return inflight_.load(std::memory_order_acquire); }

  /// Server-lifetime metrics (service.* plus the merged per-request engine
  /// counter deltas); what STATS exports as Prometheus text.
  MetricsRegistry& metrics() { return metrics_; }

  /// Replaces the shared engine with a fresh one (cold memo). For the
  /// warm-vs-cold service benchmarks; in-flight requests keep the engine
  /// they started with.
  void ResetMemo();

 private:
  void AcceptLoop();
  void ServeConnection(TcpConn conn);

  /// True for the commands that go through admission control + the slots.
  static bool IsExpensive(const std::string& cmd);

  /// Executes one request and renders the response line. Never blocks on
  /// other requests (the caller handles slots/admission). `degraded`
  /// narrows the budget to the degraded_* caps (overload lane).
  std::string Dispatch(Session& session, const Request& request,
                       bool degraded = false);

  /// True once Start() resolved this process to an entry of options_.fleet.
  bool fleet_enabled() const { return self_index_ >= 0; }

  /// Index of the shard owning `request`'s canonical signature. Only
  /// meaningful when fleet_enabled().
  size_t OwnerShardFor(const Request& request) const;

  std::string HandleHello(Session& session, const Request& request);
  std::string HandleDdl(Session& session, const Request& request);
  std::string HandleRelation(Session& session, const Request& request);
  std::string HandleDep(Session& session, const Request& request);
  std::string HandleCheck(Session& session, const Request& request, bool degraded);
  std::string HandleReformulate(Session& session, const Request& request,
                                bool degraded);
  std::string HandleLint(Session& session, const Request& request, bool degraded);
  std::string HandleStats(const Request& request);

  /// The per-request context: default budget narrowed by request fields,
  /// a caller-supplied local metrics registry, the server's fault injector,
  /// and the drain cancellation token. `degraded` additionally clamps
  /// chase steps / candidates to the degraded_* caps.
  EngineContext ContextFor(const JsonValue& body, MetricsRegistry* local,
                           bool degraded);

  /// The idempotency cache: a settled response previously remembered under
  /// this non-empty request id, if any. Counts service.idempotent_replays.
  std::optional<std::string> IdempotentReplay(const std::string& id);
  /// Remembers a settled expensive response under its id (LRU-bounded).
  /// Unsettled responses (errors, overload/degraded kUnknown, partial
  /// results) are skipped so a retry re-dispatches and can finish the work.
  void RememberResponse(const std::string& id, const std::string& response);

  /// Folds a finished request's local counter deltas into the server
  /// registry and renders them as the response's "metrics" object.
  std::string MergeAndRenderMetrics(const MetricsRegistry& local);

  std::shared_ptr<EquivalenceEngine> engine();

  ServerOptions options_;
  TcpListener listener_;
  MetricsRegistry metrics_;
  CancellationToken drain_cancel_;
  /// Execution slots for expensive requests; created by Start().
  std::optional<std::counting_semaphore<>> slots_;

  /// Fleet state, resolved by Start() from options_.fleet.
  std::optional<HashRing> ring_;
  int self_index_ = -1;

  std::mutex engine_mu_;
  std::shared_ptr<EquivalenceEngine> engine_;
  /// Tier-2 durable memo; opened by Start() when options_.memo_dir is set.
  /// Owned here (not by the engine) so ResetMemo() keeps the disk tier and
  /// a fresh engine re-warms from it.
  std::shared_ptr<MemoStore> memo_store_;

  std::mutex idem_mu_;
  std::list<std::string> idem_lru_;  // front = most recent
  struct IdemEntry {
    std::string response;
    std::list<std::string>::iterator lru_pos;
  };
  std::unordered_map<std::string, IdemEntry> idem_cache_;

  std::atomic<bool> draining_{false};
  std::atomic<size_t> active_sessions_{0};
  std::atomic<size_t> inflight_{0};

  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  /// Connection threads that have left ServeConnection and wait to be
  /// joined; AcceptLoop joins them, so a closed connection's stack does not
  /// stay mapped until Wait().
  std::vector<std::thread::id> finished_conns_;
  /// Live connections, for the drain-time read-side shutdown. Entries are
  /// owned by their ServeConnection frame; registration is bracketed inside
  /// that frame, so pointers never dangle while registered.
  std::vector<TcpConn*> open_conns_;
};

}  // namespace service
}  // namespace sqleq

#endif  // SQLEQ_SERVICE_SERVER_H_
