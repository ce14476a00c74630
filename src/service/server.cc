#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
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

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  engine_ = std::make_shared<EquivalenceEngine>();
  engine_->set_memo_byte_limit(options_.memo_byte_limit);
}

Server::~Server() { Stop(); }

Status Server::Start() {
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
  pool_ = std::make_unique<ThreadPool>(std::max<size_t>(1, options_.worker_threads),
                                       &metrics_);
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
  // The accept loop has exited, so conn_threads_ can only shrink under us.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void Server::Stop() {
  if (!listener_.listening() && !accept_thread_.joinable()) return;
  RequestDrain();
  Wait();
  pool_.reset();  // joins workers that may still be recording task latencies
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
      } else if (std::optional<std::string> replay = IdempotentReplay(request->id);
                 replay.has_value()) {
        // A retried id whose original response was already settled: replay
        // it instead of re-dispatching (the retry raced a lost response).
        response = *std::move(replay);
      } else {
        // Admission control once queued-or-running hits the cap: either
        // shed, or (degraded_admission) answer inline under the narrowed
        // budget — memo hits still resolve, fresh work returns an anytime
        // kUnknown with a checkpoint and a retry_after_ms hint.
        size_t prior = inflight_.fetch_add(1, std::memory_order_acq_rel);
        if (prior >= options_.max_inflight) {
          if (options_.degraded_admission) {
            // Stays on the connection thread (the pool is saturated by
            // definition here) and keeps inflight_ raised so concurrent
            // arrivals also see the overload.
            metrics_.counter(metric::kServiceDegraded).Add();
            response = Dispatch(session, *request, /*degraded=*/true);
            inflight_.fetch_sub(1, std::memory_order_acq_rel);
            RememberResponse(request->id, response);
          } else {
            inflight_.fetch_sub(1, std::memory_order_acq_rel);
            metrics_.counter(metric::kServiceOverloaded).Add();
            response = OverloadedResponse(request->id, options_.retry_after_ms);
          }
        } else {
          // Run on the worker pool; this connection thread blocks until its
          // request finishes, so Session stays single-owner.
          std::mutex mu;
          std::condition_variable cv;
          bool done = false;
          pool_->Submit([&] {
            std::string r = Dispatch(session, *request);
            std::lock_guard<std::mutex> task_lock(mu);
            response = std::move(r);
            done = true;
            cv.notify_one();
          });
          std::unique_lock<std::mutex> wait_lock(mu);
          cv.wait(wait_lock, [&] { return done; });
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
          RememberResponse(request->id, response);
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
  }
  active_sessions_.fetch_sub(1, std::memory_order_acq_rel);
}

std::string Server::Dispatch(Session& session, const Request& request,
                             bool degraded) {
  std::optional<ProtocolVersion> min = MinVersionForVerb(request.cmd);
  if (!min.has_value()) {
    return ErrorResponse(request.id,
                         Status::InvalidArgument("unknown command \"" + request.cmd + "\""));
  }
  if (ToInt(*min) > ToInt(session.protocol())) {
    return ErrorResponse(
        request.id,
        Status::FailedPrecondition(
            "command \"" + request.cmd + "\" requires protocol >= " +
            std::to_string(ToInt(*min)) +
            " (negotiate with hello max_protocol)"));
  }
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
  std::optional<double> arity = OptionalNumber(request.body, "arity");
  if (!arity.has_value() || *arity < 1) {
    return ErrorResponse(request.id,
                         Status::InvalidArgument("relation requires a numeric arity >= 1"));
  }
  bool set_valued = OptionalBool(request.body, "set_valued", false);
  Status status =
      session.AddRelation(*name, static_cast<size_t>(*arity), set_valued);
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
  EquivRequest equiv;
  equiv.semantics = semantics;
  equiv.sigma = session.catalog().sigma;
  equiv.schema = session.catalog().schema;
  equiv.context = ContextFor(request.body, &local, degraded);

  std::optional<ChaseCheckpoint> resume;
  if (std::optional<std::string> text = OptionalString(request.body, "resume")) {
    Result<ChaseCheckpoint> parsed = ChaseCheckpoint::Deserialize(*text);
    if (!parsed.ok()) return ErrorResponse(request.id, parsed.status());
    resume = *std::move(parsed);
    equiv.resume = &*resume;
  }

  Result<EquivVerdict> verdict = engine()->Equivalent(*q1, *q2, equiv);
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
  CandBOptions options;
  options.context = ContextFor(request.body, &local, degraded);

  std::optional<CandBCheckpoint> resume;
  if (std::optional<std::string> text = OptionalString(request.body, "resume")) {
    Result<CandBCheckpoint> parsed = CandBCheckpoint::Deserialize(*text);
    if (!parsed.ok()) return ErrorResponse(request.id, parsed.status());
    resume = *std::move(parsed);
    options.resume = &*resume;
  }

  Result<CandBResult> result =
      ChaseAndBackchase(*engine(), *q, session.catalog().sigma, semantics,
                        session.catalog().schema, options);
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
  AnalyzeOptions opts = AnalyzeOptions::Full();
  opts.warnings_as_errors = OptionalBool(request.body, "strict", false);
  opts.budget = options_.default_budget;
  if (degraded) {
    opts.budget.max_chase_steps =
        std::min(opts.budget.max_chase_steps, options_.degraded_chase_steps);
    opts.budget.max_candidates =
        std::min(opts.budget.max_candidates, options_.degraded_candidates);
  }

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

  AnalysisReport report = AnalyzeProgram(session.catalog().schema,
                                         session.catalog().sigma, queries, opts);
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

std::optional<std::string> Server::IdempotentReplay(const std::string& id) {
  if (id.empty() || options_.idempotency_cache == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(idem_mu_);
  auto it = idem_cache_.find(id);
  if (it == idem_cache_.end()) return std::nullopt;
  idem_lru_.splice(idem_lru_.begin(), idem_lru_, it->second.lru_pos);
  metrics_.counter(metric::kServiceIdempotentReplays).Add();
  return it->second.response;
}

void Server::RememberResponse(const std::string& id, const std::string& response) {
  if (id.empty() || options_.idempotency_cache == 0) return;
  // Only settled responses replay. A failure, an anytime kUnknown, or a
  // partial reformulation must re-dispatch on retry so the work can finish
  // (typically as a memo hit the second time around).
  if (response.find("\"ok\":false") != std::string::npos) return;
  if (response.find("\"verdict\":\"unknown\"") != std::string::npos) return;
  if (response.find("\"complete\":false") != std::string::npos) return;
  std::lock_guard<std::mutex> lock(idem_mu_);
  auto it = idem_cache_.find(id);
  if (it != idem_cache_.end()) {
    idem_lru_.splice(idem_lru_.begin(), idem_lru_, it->second.lru_pos);
    it->second.response = response;
    return;
  }
  idem_lru_.push_front(id);
  idem_cache_.emplace(id, IdemEntry{response, idem_lru_.begin()});
  while (idem_cache_.size() > options_.idempotency_cache) {
    idem_cache_.erase(idem_lru_.back());
    idem_lru_.pop_back();
  }
}

EngineContext Server::ContextFor(const JsonValue& body, MetricsRegistry* local,
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
  if (std::optional<double> v = OptionalNumber(body, "max_chase_steps"); v && *v > 0) {
    ctx.budget.max_chase_steps =
        std::min(ctx.budget.max_chase_steps, static_cast<size_t>(*v));
  }
  if (std::optional<double> v = OptionalNumber(body, "max_candidates"); v && *v > 0) {
    ctx.budget.max_candidates =
        std::min(ctx.budget.max_candidates, static_cast<size_t>(*v));
  }
  if (std::optional<double> v = OptionalNumber(body, "deadline_ms"); v && *v > 0) {
    ctx.budget.deadline_origin = std::chrono::steady_clock::now();
    ctx.budget.deadline =
        *ctx.budget.deadline_origin +
        std::chrono::milliseconds(static_cast<int64_t>(*v));
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
