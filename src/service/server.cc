#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "chase/checkpoint.h"
#include "reformulation/candb.h"
#include "util/string_util.h"

namespace sqleq {
namespace service {
namespace {

std::string RenderExhaustion(const ExhaustionInfo& e) {
  return JsonObject()
      .Str("limit", e.limit)
      .Str("phase", e.phase)
      .Str("progress", e.progress)
      .Build();
}

std::string RenderStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(items[i]);
  }
  out += "]";
  return out;
}

/// The number `key` of `body`, nullopt when absent, InvalidArgument naming
/// the field when it is a fraction. 1e400 reads as infinity, an integer
/// larger than any cap.
Result<std::optional<double>> OptionalIntegral(const JsonValue& body, const char* key) {
  std::optional<double> v = OptionalNumber(body, key);
  if (v.has_value() && std::trunc(*v) != *v) {
    return Status::InvalidArgument(std::string("\"") + key + "\" must be an integer");
  }
  return v;
}

/// Lowers `cap` to the request's `key` when that is a positive integer
/// below it. The comparison is made on the double, before any conversion:
/// a value at or above the cap (the shell sends its whole size_t budget)
/// leaves the cap, and one <= 0 means "not set".
Status NarrowCap(const JsonValue& body, const char* key, size_t& cap) {
  SQLEQ_ASSIGN_OR_RETURN(std::optional<double> v, OptionalIntegral(body, key));
  if (v.has_value() && *v > 0 && *v < static_cast<double>(cap)) {
    cap = static_cast<size_t>(*v);
  }
  return Status::OK();
}

/// The longest deadline_ms a request may set: 2^40 ms, about 35 years, so
/// now() plus the deadline cannot overflow steady_clock.
constexpr double kMaxDeadlineMs = 1099511627776.0;

/// The widest relation a `relation` request may declare (the schema names
/// every column, so the arity is also an allocation size).
constexpr size_t kMaxArity = 4096;

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  engine_ = std::make_shared<EquivalenceEngine>();
  engine_->set_memo_byte_limit(options_.memo_byte_limit);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  const size_t slots = std::max<size_t>(1, options_.worker_threads);
  if (slots > static_cast<size_t>(std::counting_semaphore<>::max())) {
    return Status::InvalidArgument("worker_threads " + std::to_string(slots) +
                                   " exceeds the execution-slot limit " +
                                   std::to_string(std::counting_semaphore<>::max()));
  }
  if (!options_.fleet.empty()) {
    if (options_.shard_name.empty()) {
      return Status::InvalidArgument("fleet mode requires a shard name");
    }
    ring_.emplace(options_.fleet);
    self_index_ = ring_->IndexOf(options_.shard_name);
    if (self_index_ < 0) {
      return Status::InvalidArgument("shard name \"" + options_.shard_name +
                                     "\" is not in the fleet topology");
    }
    if (options_.port == 0) {
      options_.port = options_.fleet[static_cast<size_t>(self_index_)].port;
    }
  }
  if (!options_.memo_dir.empty()) {
    MemoStoreOptions store_options;
    store_options.dir = options_.memo_dir;
    store_options.max_disk_bytes = options_.memo_disk_bytes;
    store_options.fsync_each_put = options_.memo_fsync;
    store_options.faults = options_.faults;
    store_options.metrics = &metrics_;
    Result<std::unique_ptr<MemoStore>> store = MemoStore::Open(std::move(store_options));
    if (!store.ok()) return store.status();
    memo_store_ = std::shared_ptr<MemoStore>(std::move(*store));
    engine_->set_memo_store(memo_store_);
  }
  SQLEQ_RETURN_IF_ERROR(listener_.Listen(options_.port));
  slots_.emplace(static_cast<std::ptrdiff_t>(slots));
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::OK();
}

void Server::RequestDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  metrics_.counter(metric::kServiceDrained).Add();
  drain_cancel_.Cancel();
  listener_.Shutdown();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (TcpConn* conn : open_conns_) conn->ShutdownRead();
}

void Server::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited, so no thread is added under us.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    threads.swap(conn_threads_);
    finished_conns_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void Server::Stop() {
  if (!listener_.listening() && !accept_thread_.joinable()) return;
  RequestDrain();
  Wait();
  listener_.Close();
}

void Server::ResetMemo() {
  auto fresh = std::make_shared<EquivalenceEngine>();
  fresh->set_memo_byte_limit(options_.memo_byte_limit);
  // The disk tier outlives the engine on purpose: a reset cools the memory
  // tier but the fresh engine re-warms from disk (bench_memo_persistence).
  if (memo_store_ != nullptr) fresh->set_memo_store(memo_store_);
  std::lock_guard<std::mutex> lock(engine_mu_);
  engine_ = std::move(fresh);
}

std::shared_ptr<EquivalenceEngine> Server::engine() {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_;
}

void Server::AcceptLoop() {
  while (!draining()) {
    Result<TcpConn> conn = listener_.Accept();
    if (!conn.ok()) break;  // listener shut down (drain) or fatal
    metrics_.counter(metric::kServiceConnections).Add();
    if (!ProbeSite(options_.faults, nullptr, fault_sites::kServiceAccept).ok()) {
      continue;  // injected accept failure: the dropped TcpConn closes itself
    }
    // Join the connections that closed since the last accept, before this
    // one's thread starts: an exited, unjoined thread keeps its stack
    // mapped, and one still exiting holds its malloc arena, so a thread
    // started beside it reserves a fresh arena (64 MiB of address space).
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (std::thread::id id : finished_conns_) {
        auto it = std::find_if(conn_threads_.begin(), conn_threads_.end(),
                               [id](const std::thread& t) { return t.get_id() == id; });
        if (it == conn_threads_.end()) continue;
        finished.push_back(std::move(*it));
        *it = std::move(conn_threads_.back());
        conn_threads_.pop_back();
      }
      finished_conns_.clear();
    }
    for (std::thread& t : finished) t.join();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_threads_.emplace_back(&Server::ServeConnection, this, std::move(*conn));
  }
}

bool Server::IsExpensive(const std::string& cmd) {
  return cmd == "check" || cmd == "reformulate" || cmd == "lint";
}

void Server::ServeConnection(TcpConn conn) {
  active_sessions_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    open_conns_.push_back(&conn);
  }
  // A connection accepted concurrently with RequestDrain may register after
  // the drain's shutdown sweep; cover that window ourselves.
  if (draining()) conn.ShutdownRead();

  Session session;
  Counter& requests = metrics_.counter(metric::kServiceRequests);
  Counter& errors = metrics_.counter(metric::kServiceErrors);
  Histogram& request_us = metrics_.histogram(metric::kServiceRequestUs);
  Histogram& slot_wait_us = metrics_.histogram(metric::kPoolQueueWaitUs);
  Histogram& execute_us = metrics_.histogram(metric::kPoolTaskUs);

  while (true) {
    Result<std::optional<std::string>> line = conn.ReadLine();
    if (!line.ok() || !line->has_value()) break;
    if (Trim(**line).empty()) continue;
    if (!ProbeSite(options_.faults, nullptr, fault_sites::kServiceParse).ok()) {
      break;  // injected parse failure drops the connection
    }
    requests.Add();
    std::string response;
    {
      ScopedTimerUs timer(&request_us);
      Result<Request> request = ParseRequest(**line);
      if (!request.ok()) {
        response = ErrorResponse("", request.status());
      } else if (Status dispatch_probe = ProbeSite(options_.faults, nullptr,
                                                   fault_sites::kServiceDispatch);
                 !dispatch_probe.ok()) {
        response = ErrorResponse(request->id, dispatch_probe);
      } else if (!IsExpensive(request->cmd)) {
        response = Dispatch(session, *request);
      } else if (fleet_enabled() &&
                 ToInt(session.protocol()) >= ToInt(ProtocolVersion::kV2) &&
                 OwnerShardFor(*request) != static_cast<size_t>(self_index_)) {
        // v2 sessions get redirected to the shard owning this request's
        // canonical signature (v1 sessions are always served locally, as
        // before the fleet existed).
        metrics_.counter(metric::kServiceRedirects).Add();
        const ShardId& owner = options_.fleet[OwnerShardFor(*request)];
        RedirectInfo info;
        info.shard = owner.name;
        info.host = owner.host;
        info.port = owner.port;
        info.epoch = options_.shard_epoch;
        response = NotOwnerResponse(request->id, info);
      } else if (draining()) {
        metrics_.counter(metric::kServiceDrainingRejected).Add();
        response = DrainingResponse(request->id, options_.retry_after_ms);
      } else {
        // Admission control once queued-or-running hits the cap: either
        // shed, or (degraded_admission) answer inline under the narrowed
        // budget — memo hits still resolve, fresh work returns an anytime
        // kUnknown with a checkpoint and a retry_after_ms hint.
        size_t prior = inflight_.fetch_add(1, std::memory_order_acq_rel);
        if (prior >= options_.max_inflight) {
          if (options_.degraded_admission) {
            // Runs without waiting for a slot (they are all taken by
            // definition here) and keeps inflight_ raised so concurrent
            // arrivals also see the overload.
            metrics_.counter(metric::kServiceDegraded).Add();
            response = Dispatch(session, *request, /*degraded=*/true);
            inflight_.fetch_sub(1, std::memory_order_acq_rel);
          } else {
            inflight_.fetch_sub(1, std::memory_order_acq_rel);
            metrics_.counter(metric::kServiceOverloaded).Add();
            response = OverloadedResponse(request->id, options_.retry_after_ms);
          }
        } else {
          // Run here once one of the --workers execution slots is free.
          {
            ScopedTimerUs wait_timer(&slot_wait_us);
            slots_->acquire();
          }
          {
            ScopedTimerUs execute_timer(&execute_us);
            response = Dispatch(session, *request);
          }
          slots_->release();
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
        }
      }
    }
    if (response.find("\"ok\":false") != std::string::npos) errors.Add();
    response += "\n";
    if (!conn.WriteAll(response).ok()) break;
  }

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    open_conns_.erase(std::remove(open_conns_.begin(), open_conns_.end(), &conn),
                      open_conns_.end());
    finished_conns_.push_back(std::this_thread::get_id());
  }
  active_sessions_.fetch_sub(1, std::memory_order_acq_rel);
}

std::string Server::Dispatch(Session& session, const Request& request,
                             bool degraded) {
  if (request.cmd == "hello") return HandleHello(session, request);
  if (request.cmd == "ddl") return HandleDdl(session, request);
  if (request.cmd == "relation") return HandleRelation(session, request);
  if (request.cmd == "dep") return HandleDep(session, request);
  if (request.cmd == "check") return HandleCheck(session, request, degraded);
  if (request.cmd == "reformulate") return HandleReformulate(session, request, degraded);
  if (request.cmd == "lint") return HandleLint(session, request, degraded);
  if (request.cmd == "stats") return HandleStats(request);
  return ErrorResponse(request.id,
                       Status::InvalidArgument("unknown command \"" + request.cmd + "\""));
}

std::string Server::HandleHello(Session& session, const Request& request) {
  ProtocolVersion negotiated =
      NegotiateVersion(OptionalNumber(request.body, "max_protocol"));
  session.set_protocol(negotiated);
  JsonObject out;
  // The v1 line must stay byte-identical for clients that do not send
  // max_protocol — every extra field below is v2-gated.
  out.Str("id", request.id)
      .Bool("ok", true)
      .Str("server", "sqleqd")
      .Int("protocol", ToInt(negotiated));
  if (ToInt(negotiated) >= ToInt(ProtocolVersion::kV2) && fleet_enabled()) {
    out.Str("shard", options_.shard_name)
        .Int("epoch", options_.shard_epoch)
        .Int("shards", ring_->size());
  }
  return out.Build();
}

std::string Server::HandleDdl(Session& session, const Request& request) {
  Result<std::string> script = RequireString(request.body, "script");
  if (!script.ok()) return ErrorResponse(request.id, script.status());
  Status status = session.ApplyDdl(*script);
  if (!status.ok()) return ErrorResponse(request.id, status);
  return JsonObject()
      .Str("id", request.id)
      .Bool("ok", true)
      .Int("relations", session.catalog().schema.size())
      .Int("sigma", session.catalog().sigma.size())
      .Build();
}

std::string Server::HandleRelation(Session& session, const Request& request) {
  Result<std::string> name = RequireString(request.body, "name");
  if (!name.ok()) return ErrorResponse(request.id, name.status());
  Result<std::optional<double>> arity = OptionalIntegral(request.body, "arity");
  if (!arity.ok()) return ErrorResponse(request.id, arity.status());
  if (!arity->has_value() || **arity < 1 || **arity > kMaxArity) {
    return ErrorResponse(request.id, Status::InvalidArgument(
        "relation requires a numeric \"arity\" from 1 to " + std::to_string(kMaxArity)));
  }
  bool set_valued = OptionalBool(request.body, "set_valued", false);
  Status status =
      session.AddRelation(*name, static_cast<size_t>(**arity), set_valued);
  if (!status.ok()) return ErrorResponse(request.id, status);
  return JsonObject()
      .Str("id", request.id)
      .Bool("ok", true)
      .Int("relations", session.catalog().schema.size())
      .Build();
}

std::string Server::HandleDep(Session& session, const Request& request) {
  Result<std::string> text = RequireString(request.body, "text");
  if (!text.ok()) return ErrorResponse(request.id, text.status());
  std::string label = OptionalString(request.body, "label").value_or("");
  Result<size_t> added = session.AddDependency(*text, std::move(label));
  if (!added.ok()) return ErrorResponse(request.id, added.status());
  return JsonObject()
      .Str("id", request.id)
      .Bool("ok", true)
      .Int("added", *added)
      .Int("sigma", session.catalog().sigma.size())
      .Build();
}

std::string Server::HandleCheck(Session& session, const Request& request,
                                bool degraded) {
  Result<std::string> q1_text = RequireString(request.body, "q1");
  if (!q1_text.ok()) return ErrorResponse(request.id, q1_text.status());
  Result<std::string> q2_text = RequireString(request.body, "q2");
  if (!q2_text.ok()) return ErrorResponse(request.id, q2_text.status());

  Semantics semantics = Semantics::kSet;
  if (std::optional<std::string> s = OptionalString(request.body, "semantics")) {
    Result<Semantics> parsed = ParseSemanticsName(*s);
    if (!parsed.ok()) return ErrorResponse(request.id, parsed.status());
    semantics = *parsed;
  }
  Result<ConjunctiveQuery> q1 = session.ResolveQuery(*q1_text, "Q1");
  if (!q1.ok()) return ErrorResponse(request.id, q1.status());
  Result<ConjunctiveQuery> q2 = session.ResolveQuery(*q2_text, "Q2");
  if (!q2.ok()) return ErrorResponse(request.id, q2.status());

  MetricsRegistry local;
  Result<EngineContext> ctx = ContextFor(request.body, &local, degraded);
  if (!ctx.ok()) return ErrorResponse(request.id, ctx.status());
  EquivOptions equiv;
  equiv.context = *std::move(ctx);

  std::optional<ChaseCheckpoint> resume;
  if (std::optional<std::string> text = OptionalString(request.body, "resume")) {
    Result<ChaseCheckpoint> parsed = ChaseCheckpoint::Deserialize(*text);
    if (!parsed.ok()) return ErrorResponse(request.id, parsed.status());
    resume = *std::move(parsed);
    equiv.resume = &*resume;
  }

  // The session holds the catalog's context: no copy of Σ or the schema.
  std::shared_ptr<EquivalenceEngine> shared = engine();
  std::shared_ptr<ChaseContext> context = session.ContextIn(*shared, semantics);
  Result<EquivVerdict> verdict = shared->Equivalent(*q1, *q2, *context, equiv);
  if (!verdict.ok()) return ErrorResponse(request.id, verdict.status());

  JsonObject out;
  out.Str("id", request.id)
      .Bool("ok", true)
      .Str("verdict", VerdictToString(verdict->verdict))
      .Bool("equivalent", verdict->verdict == Verdict::kEquivalent)
      .Str("semantics", SemanticsWireName(semantics));
  if (verdict->exhaustion.has_value()) {
    out.Raw("exhaustion", RenderExhaustion(*verdict->exhaustion));
  }
  if (verdict->checkpoint.has_value()) {
    out.Str("checkpoint", verdict->checkpoint->Serialize());
  }
  if (degraded) {
    out.Bool("degraded", true);
    if (verdict->verdict == Verdict::kUnknown) {
      out.Int("retry_after_ms", options_.retry_after_ms);
    }
  }
  if (draining()) out.Bool("drained", true);
  out.Raw("metrics", MergeAndRenderMetrics(local));
  return out.Build();
}

std::string Server::HandleReformulate(Session& session, const Request& request,
                                      bool degraded) {
  Result<std::string> query_text = RequireString(request.body, "query");
  if (!query_text.ok()) return ErrorResponse(request.id, query_text.status());

  Semantics semantics = Semantics::kSet;
  if (std::optional<std::string> s = OptionalString(request.body, "semantics")) {
    Result<Semantics> parsed = ParseSemanticsName(*s);
    if (!parsed.ok()) return ErrorResponse(request.id, parsed.status());
    semantics = *parsed;
  }
  Result<ConjunctiveQuery> q = session.ResolveQuery(*query_text, "Q");
  if (!q.ok()) return ErrorResponse(request.id, q.status());

  MetricsRegistry local;
  Result<EngineContext> ctx = ContextFor(request.body, &local, degraded);
  if (!ctx.ok()) return ErrorResponse(request.id, ctx.status());
  CandBOptions options;
  options.context = *std::move(ctx);

  std::optional<CandBCheckpoint> resume;
  if (std::optional<std::string> text = OptionalString(request.body, "resume")) {
    Result<CandBCheckpoint> parsed = CandBCheckpoint::Deserialize(*text);
    if (!parsed.ok()) return ErrorResponse(request.id, parsed.status());
    resume = *std::move(parsed);
    options.resume = &*resume;
  }

  std::shared_ptr<ChaseContext> context = session.ContextIn(*engine(), semantics);
  Result<CandBResult> result = ChaseAndBackchase(*context, *q, options);
  if (!result.ok()) return ErrorResponse(request.id, result.status());

  std::vector<std::string> reformulations;
  reformulations.reserve(result->reformulations.size());
  for (const ConjunctiveQuery& r : result->reformulations) {
    reformulations.push_back(r.ToString());
  }

  JsonObject out;
  out.Str("id", request.id)
      .Bool("ok", true)
      .Bool("complete", result->complete)
      .Raw("reformulations", RenderStringArray(reformulations))
      .Str("universal_plan", result->universal_plan.ToString())
      .Int("candidates", result->candidates_examined)
      .Int("cache_hits", result->chase_cache_hits)
      .Int("cache_misses", result->chase_cache_misses);
  if (result->exhaustion.has_value()) {
    out.Raw("exhaustion", RenderExhaustion(*result->exhaustion));
  }
  if (result->checkpoint.has_value()) {
    out.Str("checkpoint", result->checkpoint->Serialize());
  }
  if (degraded) {
    out.Bool("degraded", true);
    if (!result->complete) out.Int("retry_after_ms", options_.retry_after_ms);
  }
  if (draining()) out.Bool("drained", true);
  out.Raw("metrics", MergeAndRenderMetrics(local));
  return out.Build();
}

std::string Server::HandleLint(Session& session, const Request& request,
                               bool degraded) {
  Result<EngineContext> ctx = ContextFor(request.body, /*local=*/nullptr, degraded);
  if (!ctx.ok()) return ErrorResponse(request.id, ctx.status());
  AnalyzeOptions opts = AnalyzeOptions::Full();
  opts.warnings_as_errors = OptionalBool(request.body, "strict", false);
  opts.budget = ctx->budget;

  std::vector<ConjunctiveQuery> queries;
  if (const JsonValue* list = request.body.Find("queries");
      list != nullptr && list->is_array()) {
    for (size_t i = 0; i < list->array.size(); ++i) {
      const JsonValue& item = list->array[i];
      if (!item.is_string()) {
        return ErrorResponse(request.id,
                             Status::InvalidArgument("lint \"queries\" must hold strings"));
      }
      Result<ConjunctiveQuery> q =
          session.ResolveQuery(item.string, "L" + std::to_string(i + 1));
      if (!q.ok()) return ErrorResponse(request.id, q.status());
      queries.push_back(*std::move(q));
    }
  }

  // The held context replays its Σ findings; only the queries are new.
  std::vector<const ConjunctiveQuery*> query_ptrs;
  query_ptrs.reserve(queries.size());
  for (const ConjunctiveQuery& q : queries) query_ptrs.push_back(&q);
  AnalysisReport report =
      session.ContextIn(*engine(), Semantics::kSet)->Lint(query_ptrs, opts);
  std::string diagnostics = "[";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i > 0) diagnostics += ",";
    diagnostics += JsonObject()
                       .Str("code", d.code)
                       .Str("severity", SeverityToString(d.severity))
                       .Str("subject", d.subject)
                       .Str("message", d.message)
                       .Build();
  }
  diagnostics += "]";
  return JsonObject()
      .Str("id", request.id)
      .Bool("ok", true)
      .Bool("errors", report.HasErrors())
      .Int("findings", report.diagnostics.size())
      .Raw("diagnostics", diagnostics)
      .Build();
}

std::string Server::HandleStats(const Request& request) {
  MetricsSnapshot snapshot = metrics_.Snapshot();
  EquivalenceEngine::CacheStats cache = engine()->cache_stats();
  JsonObject memo;
  memo.Int("hits", cache.hits)
      .Int("misses", cache.misses)
      .Int("entries", cache.entries)
      .Int("contexts", cache.contexts)
      .Int("compiled_kernels", cache.compiled_kernels)
      .Int("pattern_atoms", cache.pattern_atoms);
  JsonObject out;
  out.Str("id", request.id)
      .Bool("ok", true)
      .Str("prometheus", snapshot.ToPrometheusText())
      .Int("inflight", inflight())
      .Int("sessions", active_sessions())
      .Bool("draining", draining())
      .Raw("memo", memo.Build());
  if (fleet_enabled()) {
    auto counter_of = [&snapshot](const char* name) -> uint64_t {
      auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second;
    };
    out.Str("shard", options_.shard_name)
        .Int("epoch", options_.shard_epoch)
        .Int("shards", ring_->size())
        .Int("redirects", counter_of(metric::kServiceRedirects));
  }
  if (memo_store_ != nullptr) {
    MemoStore::Stats d = memo_store_->stats();
    JsonObject disk;
    disk.Int("entries", d.entries)
        .Int("segments", d.segments)
        .Int("bytes", d.disk_bytes)
        .Int("recovered", d.recovered)
        .Int("corrupt_records", d.corrupt_records)
        .Int("dropped", d.dropped)
        .Int("compactions", d.compactions)
        .Int("hits", d.hits)
        .Int("writes", d.writes);
    out.Raw("disk", disk.Build());
  }
  return out.Build();
}

size_t Server::OwnerShardFor(const Request& request) const {
  return ring_->OwnerIndex(CanonicalRequestSignature(request.cmd, request.body));
}

Result<EngineContext> Server::ContextFor(const JsonValue& body, MetricsRegistry* local,
                                         bool degraded) {
  EngineContext ctx;
  ctx.budget = options_.default_budget;
  if (degraded) {
    // The overload lane: a fraction of the full budget, so a degraded
    // request cannot pile more pressure on a saturated server.
    // Anytime C&B keeps the result prefix-consistent with a full-budget run.
    ctx.budget.max_chase_steps =
        std::min(ctx.budget.max_chase_steps, options_.degraded_chase_steps);
    ctx.budget.max_candidates =
        std::min(ctx.budget.max_candidates, options_.degraded_candidates);
  }
  // Requests narrow the server's caps; they cannot raise them.
  SQLEQ_RETURN_IF_ERROR(NarrowCap(body, "max_chase_steps", ctx.budget.max_chase_steps));
  SQLEQ_RETURN_IF_ERROR(NarrowCap(body, "max_candidates", ctx.budget.max_candidates));
  SQLEQ_ASSIGN_OR_RETURN(std::optional<double> deadline_ms,
                         OptionalIntegral(body, "deadline_ms"));
  if (deadline_ms.has_value() && *deadline_ms > kMaxDeadlineMs) {
    return Status::InvalidArgument("\"deadline_ms\" must be at most 2^40");
  }
  if (deadline_ms.has_value() && *deadline_ms > 0) {
    ctx.budget.deadline_origin = std::chrono::steady_clock::now();
    ctx.budget.deadline = *ctx.budget.deadline_origin +
                          std::chrono::milliseconds(static_cast<int64_t>(*deadline_ms));
  }
  ctx.metrics = local;
  ctx.faults = options_.faults;
  ctx.cancel = &drain_cancel_;
  return ctx;
}

std::string Server::MergeAndRenderMetrics(const MetricsRegistry& local) {
  MetricsSnapshot snapshot = local.Snapshot();
  JsonObject counters;
  for (const auto& [name, value] : snapshot.counters) {
    // Fold the per-request counter deltas into the server-lifetime registry;
    // histogram deltas stay request-local (snapshots cannot be re-recorded).
    if (value != 0) metrics_.counter(name).Add(value);
    counters.Int(name, value);
  }
  return counters.Build();
}

}  // namespace service
}  // namespace sqleq
