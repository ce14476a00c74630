// ScriptEngine: the command interpreter behind the sqleq CLI. A script is a
// ';'-separated sequence of statements:
//
//   CREATE TABLE t (...);            -- DDL (keys/fks induce Σ)
//   INSERT INTO t VALUES (...);      -- data
//   DEP p(X, Y) -> r(X);             -- extra dependency (Datalog syntax)
//   VIEW v(X) :- p(X, Y);            -- register a view (Datalog syntax)
//   QUERY q1 := SELECT ... ;         -- define a query from SQL
//   QUERY q2 :- p(X, Y);             -- ... or directly in Datalog (name from head)
//   EVAL q1;                         -- evaluate on the loaded data
//   EQUIV q1 q2 [UNDER S|B|BS];      -- equivalence under Σ
//   EXPLAIN q1 q2 [UNDER S|B|BS];    -- ... with chase traces and witnesses
//   EXPLAIN SLICE q1;                -- Σ-slice + termination certificate for q1
//   MINIMIZE q1 [UNDER S|B|BS];      -- C&B reformulations, rendered as SQL
//   REWRITE q1 [UNDER S|B|BS];       -- rewritings over the registered views
//   LINT [STRICT];                   -- Σ-lint the session (STRICT: warnings err)
//   SET BUDGET <steps> <candidates>; -- chase-step / candidate limits
//   SET BUDGET AUTO;                 -- chase-step limit from the termination
//                                    --   certificate's static bound
//   SET RETRY n [growth] | OFF;      -- escalating-budget retries on exhaustion
//   SHOW SCHEMA | SIGMA | QUERIES | DATA | BUDGET | STATS;
//   TRACE ON | OFF | EXPORT <file>;  -- chase-span tracing (Chrome trace JSON)
//   CONNECT <host> <port>;           -- attach to a sqleqd daemon
//   CONNECT <fleet-spec>;            -- ... or a whole fleet ("a=h:p,b=h:p")
//   DISCONNECT;                      -- detach
//   WORKLOAD GEN <tmpl> <n> <olap> [SEED s];  -- synthesize a CQ corpus
//   WORKLOAD REPLAY;                 -- replay it through a semantic cache
//   CACHE STATS;                     -- cache counters of the last replay
//   ADVISE VIEWS;                    -- Σ-cluster the corpus, advise rewrites
//
// While connected, the session catalog is uploaded once and kept in sync
// (CREATE TABLE / DEP are mirrored), and EQUIV / MINIMIZE execute on the
// daemon — sharing its process-lifetime chase memo — instead of in-process
// (docs/service.md). EXPLAIN, REWRITE, and EVAL stay local.
//
// SHOW STATS prints the session's accumulated engine metrics (chase steps,
// memo hits, backchase counters — see docs/observability.md); TRACE ON
// records spans for subsequent EQUIV/MINIMIZE/REWRITE statements and TRACE
// EXPORT writes them as chrome://tracing / Perfetto JSON.
//
// "--" starts a line comment (outside quoted literals). Each statement
// returns printable output; errors are Status values (the engine state is
// unchanged by a failed statement).
#ifndef SQLEQ_SHELL_ENGINE_H_
#define SQLEQ_SHELL_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "db/database.h"
#include "db/eval.h"
#include "reformulation/views.h"
#include "sql/translate.h"
#include "util/engine_context.h"
#include "util/resource_budget.h"
#include "util/status.h"
#include "util/telemetry.h"

namespace sqleq {

class CancellationToken;

namespace service {
class FleetClient;
}  // namespace service

namespace workload {
struct Workload;
}  // namespace workload

namespace cache {
class SemanticCache;
}  // namespace cache

namespace shell {

/// A named query with the evaluation semantics it was defined under.
struct NamedQuery {
  ConjunctiveQuery query;
  Semantics semantics = Semantics::kBagSet;
};

class ScriptEngine {
 public:
  ScriptEngine();
  ~ScriptEngine();
  ScriptEngine(const ScriptEngine&) = delete;
  ScriptEngine& operator=(const ScriptEngine&) = delete;

  /// Executes one statement (no trailing ';'), returning its output text.
  Result<std::string> Execute(std::string_view statement);

  /// Executes a ';'-separated script, concatenating outputs; stops at the
  /// first error.
  Result<std::string> Run(std::string_view script);

  const sql::Catalog& catalog() const { return catalog_; }
  const Database& database() const { return database_; }
  const ViewSet& views() const { return views_; }
  /// The budget SET BUDGET configures; applied to every EQUIV,
  /// EXPLAIN, MINIMIZE, and REWRITE statement.
  const ResourceBudget& budget() const { return budget_; }
  /// The SET RETRY policy (nullopt = retries off, the default).
  const std::optional<EscalatingBudget>& retry() const { return retry_; }
  /// Cooperative cancellation for EQUIV/MINIMIZE/REWRITE: when set (may be
  /// null), the token is checked at every chase step and backchase
  /// candidate; a cancelled statement returns a partial result annotated
  /// "(incomplete: cancelled ...)". The token must outlive the engine or be
  /// cleared with set_cancellation(nullptr).
  void set_cancellation(CancellationToken* cancel) { cancel_ = cancel; }
  Result<NamedQuery> GetQuery(const std::string& name) const;
  /// Session-lifetime engine metrics (what SHOW STATS prints).
  const MetricsRegistry& metrics() const { return metrics_; }
  /// The span sink TRACE ON feeds (empty until tracing is enabled).
  const TraceSink& trace() const { return trace_; }
  bool tracing() const { return tracing_; }
  /// Programmatic TRACE ON/OFF (what sqleq_cli --trace-out uses).
  void set_tracing(bool on) { tracing_ = on; }
  /// True between a successful CONNECT and DISCONNECT (or a remote failure
  /// that dropped the link).
  bool connected() const { return remote_ != nullptr; }

 private:
  Result<std::string> ExecCreate(std::string_view statement);
  Result<std::string> ExecInsert(std::string_view statement);
  Result<std::string> ExecDep(std::string_view rest);
  Result<std::string> ExecView(std::string_view rest);
  Result<std::string> ExecQuery(std::string_view rest);
  Result<std::string> ExecEval(std::string_view rest);
  Result<std::string> ExecEquiv(std::string_view rest, bool explain);
  /// EXPLAIN SLICE <query>: which dependencies the Σ-slice keeps/prunes for
  /// the query, why each pruned one can never fire, and the termination
  /// certificate with its static chase-step bound.
  Result<std::string> ExecExplainSlice(std::string_view rest);
  Result<std::string> ExecMinimize(std::string_view rest);
  Result<std::string> ExecRewrite(std::string_view rest);
  Result<std::string> ExecLint(std::string_view rest);
  Result<std::string> ExecSet(std::string_view rest);
  Result<std::string> ExecShow(std::string_view rest);
  Result<std::string> ExecTrace(std::string_view rest);
  Result<std::string> ExecConnect(std::string_view rest);
  Result<std::string> ExecDisconnect(std::string_view rest);
  /// WORKLOAD GEN / WORKLOAD REPLAY (docs/workload.md): corpus synthesis
  /// and a cold semantic-cache replay reporting measured-vs-ground-truth
  /// hit rates.
  Result<std::string> ExecWorkload(std::string_view rest);
  /// CACHE STATS: the SemanticCache counters of the last WORKLOAD REPLAY.
  Result<std::string> ExecCacheStats(std::string_view rest);
  /// ADVISE VIEWS: Σ-equivalence clustering + C&B representative rewrites
  /// with projected cost savings over the generated corpus.
  Result<std::string> ExecAdvise(std::string_view rest);

  /// Remote execution paths for EQUIV / MINIMIZE while connected.
  Result<std::string> RemoteEquiv(const std::string& n1, const NamedQuery& a,
                                  const std::string& n2, const NamedQuery& b,
                                  Semantics sem);
  Result<std::string> RemoteMinimize(const std::string& name, const NamedQuery& named,
                                     Semantics sem);
  /// Replays a catalog mutation (CREATE TABLE / DEP) on the daemon. A
  /// remote failure drops the connection — the two catalogs can no longer
  /// be assumed in sync — and returns the error.
  Status MirrorToRemote(const std::string& request_line);

  /// The per-call environment EQUIV/MINIMIZE/REWRITE run under: the SET
  /// budget, the session metrics, the trace sink when TRACE is ON, and the
  /// caller's cancellation token.
  EngineContext Context();

  /// Splits "a b UNDER B" into names and an optional semantics override.
  Result<std::pair<std::vector<std::string>, std::optional<Semantics>>> ParseArgs(
      std::string_view rest) const;

  sql::Catalog catalog_;
  Database database_{Schema()};
  ViewSet views_;
  std::map<std::string, NamedQuery> queries_;
  ResourceBudget budget_;
  std::optional<EscalatingBudget> retry_;
  CancellationToken* cancel_ = nullptr;
  MetricsRegistry metrics_;
  TraceSink trace_;
  bool tracing_ = false;
  int dep_counter_ = 0;
  std::unique_ptr<service::FleetClient> remote_;
  std::string remote_name_;  ///< "host:port" or fleet spec, for output lines
  /// WORKLOAD GEN's corpus and the cache of the last WORKLOAD REPLAY.
  std::unique_ptr<workload::Workload> workload_;
  std::unique_ptr<cache::SemanticCache> cache_;
};

}  // namespace shell
}  // namespace sqleq

#endif  // SQLEQ_SHELL_ENGINE_H_
