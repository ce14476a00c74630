// End-to-end tests for the sqleqd service layer (src/service): verdict
// parity with the in-process engine, per-connection sessions, the shared
// chase memo, admission control, graceful drain with resumable C&B
// checkpoints, the execution-slot gate, connection-thread reaping, and the
// service.* fault sites (connection drops must never wedge the server or
// leak sessions — this file runs under tsan).
#include "service/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "chase/checkpoint.h"
#include "equivalence/engine.h"
#include "service/connection.h"
#include "service/protocol.h"
#include "shell/engine.h"
#include "test_util.h"
#include "util/fault.h"

namespace sqleq {
namespace service {
namespace {

using ::sqleq::testing::Q;
using ::sqleq::testing::Sigma;
using ::sqleq::testing::Unwrap;

Connection Dial(const Server& server) {
  return Unwrap(Connection::Connect("127.0.0.1", server.port()), "Connect");
}

/// Sends the r/2, s/1 catalog with Σ = { r(X,Y) -> s(X) } over `client`,
/// mirroring TestSchema()/TestSigma() below.
void UploadCatalog(Connection& client) {
  Unwrap(client.Call(
      JsonObject().Str("cmd", "relation").Str("name", "r").Int("arity", 2).Build()));
  Unwrap(client.Call(
      JsonObject().Str("cmd", "relation").Str("name", "s").Int("arity", 1).Build()));
  Unwrap(client.Call(JsonObject()
                         .Str("cmd", "dep")
                         .Str("text", "r(X, Y) -> s(X).")
                         .Str("label", "fk")
                         .Build()));
}

Schema TestSchema() {
  Schema schema;
  schema.AddRelation("r", 2);
  schema.AddRelation("s", 1);
  return schema;
}

DependencySet TestSigma() { return Sigma({"r(X, Y) -> s(X)."}); }

std::string CheckLine(const std::string& q1, const std::string& q2,
                      const std::string& semantics = "set") {
  return JsonObject()
      .Str("cmd", "check")
      .Str("q1", q1)
      .Str("q2", q2)
      .Str("semantics", semantics)
      .Build();
}

const JsonValue* Field(const JsonValue& response, const char* key) {
  const JsonValue* v = response.Find(key);
  EXPECT_NE(v, nullptr) << "response missing field " << key;
  return v;
}

bool PollUntil(const std::function<bool()>& done, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(Service, HelloAndSessionState) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);

  JsonValue hello = Unwrap(client.Call(JsonObject().Str("cmd", "hello").Build()));
  EXPECT_TRUE(Field(hello, "ok")->boolean);
  EXPECT_EQ(static_cast<int>(Field(hello, "protocol")->number), kProtocolVersion);

  UploadCatalog(client);
  JsonValue ddl = Unwrap(client.Call(
      JsonObject()
          .Str("cmd", "ddl")
          .Str("script", "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))")
          .Build()));
  EXPECT_TRUE(Field(ddl, "ok")->boolean);
  EXPECT_EQ(Field(ddl, "relations")->number, 3.0);  // r, s, t

  // Unknown commands and bad requests answer with ok:false, not a drop.
  std::string raw;
  JsonValue bad =
      Unwrap(client.Call(JsonObject().Str("cmd", "no-such-cmd").Build(), &raw));
  EXPECT_FALSE(Field(bad, "ok")->boolean);
  EXPECT_NE(raw.find(R"(unknown command \"no-such-cmd\")"), std::string::npos) << raw;
  JsonValue still_alive = Unwrap(client.Call(JsonObject().Str("cmd", "hello").Build()));
  EXPECT_TRUE(Field(still_alive, "ok")->boolean);
  server.Stop();
}

TEST(Service, VerdictParityWithInProcessEngine) {
  struct Case {
    const char* q1;
    const char* q2;
    Semantics semantics;
    const char* wire;
  };
  const std::vector<Case> cases = {
      // Σ makes the s-atom redundant under set semantics.
      {"Q(X) :- r(X, Y), s(X).", "Q(X) :- r(X, Y).", Semantics::kSet, "set"},
      {"Q(X) :- r(X, Y).", "Q(X) :- r(X, X).", Semantics::kSet, "set"},
      {"Q(X) :- r(X, Y), r(X, Y).", "Q(X) :- r(X, Y).", Semantics::kBag, "bag"},
      {"Q(X) :- r(X, Y), s(X).", "Q(X) :- r(X, Y).", Semantics::kBagSet, "bag-set"},
  };

  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);

  for (const Case& c : cases) {
    EquivalenceEngine engine;
    EquivRequest request;
    request.semantics = c.semantics;
    request.sigma = TestSigma();
    request.schema = TestSchema();
    EquivVerdict local = Unwrap(engine.Equivalent(Q(c.q1), Q(c.q2), request));
    ASSERT_NE(local.verdict, Verdict::kUnknown);

    JsonValue remote = Unwrap(client.Call(CheckLine(c.q1, c.q2, c.wire)));
    ASSERT_TRUE(Field(remote, "ok")->boolean) << c.q1 << " vs " << c.q2;
    EXPECT_EQ(Field(remote, "equivalent")->boolean,
              local.verdict == Verdict::kEquivalent)
        << c.q1 << " vs " << c.q2 << " under " << c.wire;
    EXPECT_EQ(Field(remote, "verdict")->string, VerdictToString(local.verdict));
  }
  server.Stop();
}

TEST(Service, ConcurrentClientsAgreeWithLocalVerdict) {
  Server server;
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::vector<std::string> verdicts(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&server, &verdicts, i] {
      Connection client = Dial(server);
      UploadCatalog(client);
      JsonValue response = Unwrap(
          client.Call(CheckLine("Q(X) :- r(X, Y), s(X).", "Q(X) :- r(X, Y).")));
      ASSERT_TRUE(Field(response, "ok")->boolean);
      verdicts[i] = Field(response, "verdict")->string;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& v : verdicts) EXPECT_EQ(v, "equivalent");
  server.Stop();
}

TEST(Service, MemoIsSharedAcrossConnections) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  const std::string line = CheckLine("Q(X) :- r(X, Y), s(X).", "Q(X) :- r(X, Y).");

  Connection first = Dial(server);
  UploadCatalog(first);
  Unwrap(first.Call(line));

  Connection second = Dial(server);
  UploadCatalog(second);
  JsonValue warm = Unwrap(second.Call(line));
  const JsonValue* metrics = Field(warm, "metrics");
  ASSERT_EQ(metrics->kind, JsonValue::Kind::kObject);
  const JsonValue* hits = metrics->Find("memo.hits");
  ASSERT_NE(hits, nullptr) << "second identical check should hit the shared memo";
  EXPECT_GE(hits->number, 1.0);
  server.Stop();
}

TEST(Service, AdmissionControlShedsLoad) {
  FaultInjector faults;
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = std::chrono::microseconds(100000);  // 100ms per candidate
  slow.start = 1;
  slow.period = 1;
  faults.Arm(fault_sites::kBackchaseCandidate, slow);

  ServerOptions options;
  options.max_inflight = 1;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  std::thread slow_request([&server] {
    Connection client = Dial(server);
    UploadCatalog(client);
    JsonValue response = Unwrap(client.Call(
        JsonObject()
            .Str("cmd", "reformulate")
            .Str("query", "Q(X) :- r(X, Y), r(X, Z), s(X).")
            .Str("semantics", "set")
            .Build()));
    EXPECT_TRUE(Field(response, "ok")->boolean);
  });

  // Wait for the slow request to occupy the only admission slot.
  ASSERT_TRUE(PollUntil([&server] { return server.inflight() >= 1; }));
  Connection client = Dial(server);
  UploadCatalog(client);
  JsonValue shed = Unwrap(
      client.Call(CheckLine("Q(X) :- r(X, Y).", "Q(X) :- r(X, Z).")));
  EXPECT_FALSE(Field(shed, "ok")->boolean);
  ASSERT_NE(shed.Find("overloaded"), nullptr);
  EXPECT_TRUE(Field(shed, "overloaded")->boolean);
  EXPECT_EQ(Field(shed, "error")->Find("code")->string, "ResourceExhausted");

  // Cheap commands bypass admission even while saturated.
  JsonValue hello = Unwrap(client.Call(JsonObject().Str("cmd", "hello").Build()));
  EXPECT_TRUE(Field(hello, "ok")->boolean);

  slow_request.join();
  server.Stop();
}

// A reformulate line whose backchase examines several candidates, each slowed
// by the armed backchase.candidate delay in the slot tests below.
std::string SlowReformulateLine(const std::string& id, const std::string& query) {
  return JsonObject()
      .Str("id", id)
      .Str("cmd", "reformulate")
      .Str("query", query)
      .Str("semantics", "set")
      .Build();
}

TEST(Service, OneExecutionSlotRunsExpensiveRequestsOneAtATime) {
  FaultInjector faults;
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = std::chrono::microseconds(20000);
  slow.start = 1;
  slow.period = 1;
  faults.Arm(fault_sites::kBackchaseCandidate, slow);

  ServerOptions options;
  options.worker_threads = 1;
  options.max_inflight = 4;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  // Two distinct queries, so the second is not answered from the memo the
  // first warmed; both connections send at once.
  const std::vector<std::string> queries = {"Q(X) :- r(X, Y), r(X, Z), s(X).",
                                            "Q(Y) :- r(Y, X), s(Y), r(X, Z)."};
  std::vector<Connection> clients;
  for (size_t i = 0; i < queries.size(); ++i) {
    clients.push_back(Dial(server));
    UploadCatalog(clients.back());
  }
  const auto sent = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::vector<char> ok(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&clients, &queries, &ok, i] {
      JsonValue response = Unwrap(clients[i].Call(
          SlowReformulateLine("slot" + std::to_string(i), queries[i])));
      ok[i] = Field(response, "ok")->boolean && Field(response, "complete")->boolean;
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - sent)
          .count());
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);

  MetricsSnapshot snapshot = server.metrics().Snapshot();
  const Histogram::Snapshot& execute = snapshot.histograms[metric::kPoolTaskUs];
  const Histogram::Snapshot& wait = snapshot.histograms[metric::kPoolQueueWaitUs];
  ASSERT_EQ(execute.count, 2u);
  ASSERT_EQ(wait.count, 2u);
  // Each run sleeps through at least one delayed candidate.
  EXPECT_GE(execute.min, 20000u);
  // Executions that never overlap fit one after the other inside the
  // interval from the two sends to the last response.
  EXPECT_LE(execute.sum, wall_us);
  // The request that arrived second waited for the first to release the
  // slot, for about as long as the first ran.
  EXPECT_GE(wait.max, execute.min / 2);
  server.Stop();
}

TEST(Service, RequestWaitingForASlotIsAnsweredThroughDrain) {
  FaultInjector faults;
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = std::chrono::microseconds(100000);
  slow.start = 1;
  slow.period = 1;
  faults.Arm(fault_sites::kBackchaseCandidate, slow);

  ServerOptions options;
  options.worker_threads = 1;
  options.max_inflight = 4;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Connection running = Dial(server);
  UploadCatalog(running);
  Connection waiting = Dial(server);
  UploadCatalog(waiting);
  ASSERT_TRUE(running
                  .Send(SlowReformulateLine("running",
                                            "Q(X) :- r(X, Y), r(X, Z), s(X)."))
                  .ok());
  ASSERT_TRUE(PollUntil([&server] { return server.inflight() >= 1; }));
  ASSERT_TRUE(waiting
                  .Send(SlowReformulateLine("waiting",
                                            "Q(Y) :- r(Y, X), s(Y), r(X, Z)."))
                  .ok());
  // Both are admitted; the second holds no slot yet.
  ASSERT_TRUE(PollUntil([&server] { return server.inflight() >= 2; }));
  server.RequestDrain();

  for (auto [client, id] : {std::pair<Connection*, const char*>{&running, "running"},
                            std::pair<Connection*, const char*>{&waiting, "waiting"}}) {
    std::optional<std::string> raw = Unwrap(client->ReadLine(), id);
    ASSERT_TRUE(raw.has_value()) << id << " request lost in the drain";
    JsonValue response = Unwrap(ParseJson(*raw));
    EXPECT_EQ(Field(response, "id")->string, id);
    ASSERT_TRUE(Field(response, "ok")->boolean) << *raw;
    if (!Field(response, "complete")->boolean) {
      EXPECT_NE(response.Find("checkpoint"), nullptr) << *raw;
      EXPECT_NE(response.Find("drained"), nullptr) << *raw;
    }
  }
  server.Wait();
  EXPECT_EQ(server.inflight(), 0u);
}

TEST(Service, StartRejectsMoreExecutionSlotsThanTheSemaphoreHolds) {
  // Checked before anything is bound or started, so no thread is created.
  ServerOptions options;
  options.worker_threads =
      static_cast<size_t>(std::counting_semaphore<>::max()) + 1;
  Server server(options);
  Status status = server.Start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

/// VmSize of this process in KiB, from /proc/self/status (0 if unreadable).
uint64_t VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST(Service, ClosedConnectionsReleaseTheirThreads) {
  // Every connection gets a thread with its own stack mapping (8 MiB by
  // default); a closed connection's thread must be joined while the server
  // keeps accepting, not only at shutdown. Each connection's thread leaves
  // it before the next connection is made, so the accept loop can join it
  // before the next thread starts; threads that overlapped would each hold
  // a malloc arena, whose 64 MiB reservations VmSize counts too.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  auto hello_and_close = [&server] {
    {
      Connection client = Dial(server);
      JsonValue hello = Unwrap(client.Call(JsonObject().Str("cmd", "hello").Build()));
      EXPECT_TRUE(Field(hello, "ok")->boolean);
    }
    return PollUntil([&server] { return server.active_sessions() == 0; });
  };
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(hello_and_close());
  const uint64_t before = VmSizeKiB();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(hello_and_close());
  const uint64_t after = VmSizeKiB();
  EXPECT_LT(after, before + 100 * 1024)
      << "VmSize grew from " << before << " KiB to " << after
      << " KiB across 100 closed connections";
  server.Stop();
}

TEST(Service, DrainCheckpointsInflightReformulateAndResumes) {
  const std::string query = "Q(X) :- r(X, Y), r(X, Z), s(X).";
  const std::string request_line = JsonObject()
                                       .Str("cmd", "reformulate")
                                       .Str("query", query)
                                       .Str("semantics", "set")
                                       .Build();

  // Clean run first: the expected reformulations.
  std::vector<std::string> clean;
  {
    Server server;
    ASSERT_TRUE(server.Start().ok());
    Connection client = Dial(server);
    UploadCatalog(client);
    JsonValue response = Unwrap(client.Call(request_line));
    ASSERT_TRUE(Field(response, "ok")->boolean);
    ASSERT_TRUE(Field(response, "complete")->boolean);
    for (const JsonValue& r : Field(response, "reformulations")->array) {
      clean.push_back(r.string);
    }
    server.Stop();
  }

  // Now the same request against a server whose backchase crawls; drain
  // mid-flight and expect a resumable partial answer.
  FaultInjector faults;
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = std::chrono::microseconds(100000);
  slow.start = 1;
  slow.period = 1;
  faults.Arm(fault_sites::kBackchaseCandidate, slow);
  ServerOptions options;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Connection client = Dial(server);
  UploadCatalog(client);
  ASSERT_TRUE(client.Send(request_line).ok());
  ASSERT_TRUE(PollUntil([&server] { return server.inflight() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server.RequestDrain();

  std::optional<std::string> raw = Unwrap(client.ReadLine(), "drained response");
  ASSERT_TRUE(raw.has_value());
  JsonValue partial = Unwrap(ParseJson(*raw));
  ASSERT_TRUE(Field(partial, "ok")->boolean);
  server.Wait();

  if (!Field(partial, "complete")->boolean) {
    ASSERT_NE(partial.Find("drained"), nullptr);
    const JsonValue* checkpoint = partial.Find("checkpoint");
    ASSERT_NE(checkpoint, nullptr) << "cancelled C&B must checkpoint";

    // Resume on a fresh, unfaulted server: same reformulations as clean.
    Server fresh;
    ASSERT_TRUE(fresh.Start().ok());
    Connection resume_client = Dial(fresh);
    UploadCatalog(resume_client);
    JsonValue resumed = Unwrap(resume_client.Call(JsonObject()
                                                      .Str("cmd", "reformulate")
                                                      .Str("query", query)
                                                      .Str("semantics", "set")
                                                      .Str("resume", checkpoint->string)
                                                      .Build()));
    ASSERT_TRUE(Field(resumed, "ok")->boolean);
    ASSERT_TRUE(Field(resumed, "complete")->boolean);
    std::vector<std::string> after;
    for (const JsonValue& r : Field(resumed, "reformulations")->array) {
      after.push_back(r.string);
    }
    EXPECT_EQ(after, clean);
    fresh.Stop();
  }
}

TEST(Service, AcceptFaultDropsConnectionButServerSurvives) {
  FaultInjector faults;
  FaultSpec drop;  // kExhausted, start=1, period=0: exactly the first accept
  faults.Arm(fault_sites::kServiceAccept, drop);
  ServerOptions options;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  // The first connection is accepted at TCP level, then dropped before it
  // gets a session: its first call must fail cleanly.
  Result<Connection> doomed = Connection::Connect("127.0.0.1", server.port());
  if (doomed.ok()) {
    EXPECT_FALSE(doomed->Call(JsonObject().Str("cmd", "hello").Build()).ok());
  }
  EXPECT_EQ(faults.FiredCount(fault_sites::kServiceAccept), 1u);

  // The next connection is served normally.
  Connection client = Dial(server);
  JsonValue hello = Unwrap(client.Call(JsonObject().Str("cmd", "hello").Build()));
  EXPECT_TRUE(Field(hello, "ok")->boolean);
  ASSERT_TRUE(PollUntil([&server] { return server.active_sessions() == 1; }));
  server.Stop();
}

TEST(Service, ParseFaultDropsConnectionMidStream) {
  FaultInjector faults;
  FaultSpec drop;
  drop.start = 2;  // first request fine, second line drops the connection
  faults.Arm(fault_sites::kServiceParse, drop);
  ServerOptions options;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Connection client = Dial(server);
  JsonValue hello = Unwrap(client.Call(JsonObject().Str("cmd", "hello").Build()));
  EXPECT_TRUE(Field(hello, "ok")->boolean);
  EXPECT_FALSE(client.Call(JsonObject().Str("cmd", "hello").Build()).ok());

  // No session leak, and new connections still work.
  ASSERT_TRUE(PollUntil([&server] { return server.active_sessions() == 0; }));
  Connection next = Dial(server);
  EXPECT_TRUE(Field(Unwrap(next.Call(JsonObject().Str("cmd", "hello").Build())),
                    "ok")
                  ->boolean);
  server.Stop();
}

TEST(Service, DispatchFaultFailsOneRequestOnly) {
  FaultInjector faults;
  FaultSpec fail;  // kExhausted on the first dispatched request
  faults.Arm(fault_sites::kServiceDispatch, fail);
  ServerOptions options;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Connection client = Dial(server);
  JsonValue failed = Unwrap(client.Call(JsonObject().Str("cmd", "hello").Build()));
  EXPECT_FALSE(Field(failed, "ok")->boolean);
  EXPECT_EQ(Field(failed, "error")->Find("code")->string, "ResourceExhausted");
  // Same connection, next request succeeds.
  JsonValue ok = Unwrap(client.Call(JsonObject().Str("cmd", "hello").Build()));
  EXPECT_TRUE(Field(ok, "ok")->boolean);
  server.Stop();
}

TEST(Service, AbruptDisconnectsLeakNoSessions) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 4; ++i) {
    Connection client = Dial(server);
    if (i % 2 == 0) {
      // Half the clients send something first, half vanish silently.
      ASSERT_TRUE(client.Send(JsonObject().Str("cmd", "hello").Build()).ok());
    }
    client.Close();
  }
  EXPECT_TRUE(PollUntil([&server] { return server.active_sessions() == 0; }));
  server.Stop();
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(Service, StatsExportsPrometheusAndMemoCounters) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  Unwrap(client.Call(CheckLine("Q(X) :- r(X, Y).", "Q(X) :- r(X, Z).")));

  JsonValue stats = Unwrap(client.Call(JsonObject().Str("cmd", "stats").Build()));
  ASSERT_TRUE(Field(stats, "ok")->boolean);
  const std::string& prometheus = Field(stats, "prometheus")->string;
  EXPECT_NE(prometheus.find("sqleq_service_requests"), std::string::npos);
  EXPECT_NE(prometheus.find("sqleq_service_connections"), std::string::npos);
  const JsonValue* memo = Field(stats, "memo");
  ASSERT_EQ(memo->kind, JsonValue::Kind::kObject);
  EXPECT_GE(Field(*memo, "misses")->number, 1.0);
  server.Stop();
}

TEST(Service, RepeatedReformulateIsServedFromTheEngineMemo) {
  // Reformulate chases through the server engine's memo, as checks do: the
  // second identical request finds the universal plan and every candidate
  // chase in the memory tier, so it answers the same bytes (including the
  // chase-introduced variable names) and the engine's hit counter rises.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  // An existential tgd, so the universal plan carries a chase-introduced
  // variable: a fresh chase would name it anew.
  Unwrap(client.Call(JsonObject()
                         .Str("cmd", "dep")
                         .Str("text", "s(X) -> r(X, Y).")
                         .Str("label", "back")
                         .Build()));
  const std::string line = JsonObject()
                               .Str("cmd", "reformulate")
                               .Str("query", "Q(X) :- s(X).")
                               .Str("semantics", "set")
                               .Build();
  auto memo_hits = [&client] {
    JsonValue stats = Unwrap(client.Call(JsonObject().Str("cmd", "stats").Build()));
    return Field(*Field(stats, "memo"), "hits")->number;
  };

  JsonValue first = Unwrap(client.Call(line));
  ASSERT_TRUE(Field(first, "ok")->boolean);
  ASSERT_TRUE(Field(first, "complete")->boolean);
  const double hits_after_first = memo_hits();
  JsonValue second = Unwrap(client.Call(line));
  ASSERT_TRUE(Field(second, "ok")->boolean);

  EXPECT_EQ(Field(first, "universal_plan")->string,
            Field(second, "universal_plan")->string);
  const JsonValue* reforms1 = Field(first, "reformulations");
  const JsonValue* reforms2 = Field(second, "reformulations");
  ASSERT_EQ(reforms1->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(reforms2->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(reforms1->array.empty());
  ASSERT_EQ(reforms1->array.size(), reforms2->array.size());
  for (size_t i = 0; i < reforms1->array.size(); ++i) {
    EXPECT_EQ(reforms1->array[i].string, reforms2->array[i].string) << i;
  }
  EXPECT_EQ(Field(first, "candidates")->number, Field(second, "candidates")->number);
  EXPECT_EQ(Field(first, "cache_hits")->number, Field(second, "cache_hits")->number);
  EXPECT_EQ(Field(first, "cache_misses")->number,
            Field(second, "cache_misses")->number);
  EXPECT_GT(memo_hits(), hits_after_first);
  server.Stop();
}

TEST(Service, ReformulateRejectsAForeignResume) {
  // A checkpoint whose resume mask lies outside the query's lattice, or
  // whose mask overflows 64 bits, is an InvalidArgument error, not a
  // finished sweep.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  const std::string query = "Q(X) :- r(X, Y), r(X, Z), s(X).";
  JsonValue partial = Unwrap(client.Call(JsonObject()
                                             .Str("cmd", "reformulate")
                                             .Str("query", query)
                                             .Str("semantics", "set")
                                             .Int("max_candidates", 1)
                                             .Build()));
  ASSERT_TRUE(Field(partial, "ok")->boolean);
  ASSERT_FALSE(Field(partial, "complete")->boolean);
  const std::string checkpoint = Field(partial, "checkpoint")->string;
  const size_t next = checkpoint.find("\nnext ");
  ASSERT_NE(next, std::string::npos) << checkpoint;
  const size_t eol = checkpoint.find('\n', next + 1);

  for (const char* line : {"next 1 1099511627776", "next 1 18446744073709551617"}) {
    std::string foreign = checkpoint;
    foreign.replace(next + 1, eol - next - 1, line);
    JsonValue response = Unwrap(client.Call(JsonObject()
                                                .Str("cmd", "reformulate")
                                                .Str("query", query)
                                                .Str("semantics", "set")
                                                .Str("resume", foreign)
                                                .Build()));
    EXPECT_FALSE(Field(response, "ok")->boolean) << line;
    EXPECT_EQ(Field(response, "error")->Find("code")->string, "InvalidArgument") << line;
  }
  server.Stop();
}

TEST(Service, CheckRejectsAResumeThatWouldExhaustFreshNames) {
  // A check resume naming a null near the fresh-name counter's wrap point is
  // an InvalidArgument error and leaves the daemon's counter where it was.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  const std::string q1 = "Q(X) :- r(X, Y), r(Y, Z).";
  const std::string q2 = "Q(X) :- r(X, Y), r(Y, Z), s(X).";
  JsonValue partial = Unwrap(client.Call(JsonObject()
                                             .Str("cmd", "check")
                                             .Str("q1", q1)
                                             .Str("q2", q2)
                                             .Int("max_chase_steps", 1)
                                             .Build()));
  ASSERT_TRUE(Field(partial, "ok")->boolean);
  ASSERT_EQ(Field(partial, "verdict")->string, "unknown");
  ChaseCheckpoint parked =
      Unwrap(ChaseCheckpoint::Deserialize(Field(partial, "checkpoint")->string));
  parked.state.AppendAtoms({Atom("s", {Term::Var("Z#18446744073709551614")})});

  const uint64_t mark = Term::FreshCounterForTesting();
  JsonValue response = Unwrap(client.Call(JsonObject()
                                              .Str("cmd", "check")
                                              .Str("q1", q1)
                                              .Str("q2", q2)
                                              .Str("resume", parked.Serialize())
                                              .Build()));
  ASSERT_FALSE(Field(response, "ok")->boolean);
  EXPECT_EQ(Field(response, "error")->Find("code")->string, "InvalidArgument");
  EXPECT_EQ(Term::FreshCounterForTesting(), mark);
  server.Stop();
}

TEST(Service, LintHonorsTheRequestsNarrowedChaseBudget) {
  // A request may narrow max_chase_steps (docs/service.md, "Budgets"),
  // lint's chase-based implication check included. Σ's third dependency is
  // implied by the first two: the check chases p(X, Y) two steps to see it,
  // so a one-step lint gives up and says so.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  Unwrap(client.Call(
      JsonObject().Str("cmd", "relation").Str("name", "p").Int("arity", 2).Build()));
  for (const char* unary : {"r", "s"}) {
    Unwrap(client.Call(
        JsonObject().Str("cmd", "relation").Str("name", unary).Int("arity", 1).Build()));
  }
  for (const char* dep : {"p(X, Y) -> r(X).", "r(X) -> s(X).", "p(X, Y) -> s(X)."}) {
    Unwrap(client.Call(JsonObject().Str("cmd", "dep").Str("text", dep).Build()));
  }
  auto lint_codes = [&client](std::optional<uint64_t> max_chase_steps) {
    JsonObject request;
    request.Str("cmd", "lint");
    if (max_chase_steps.has_value()) request.Int("max_chase_steps", *max_chase_steps);
    JsonValue response = Unwrap(client.Call(request.Build()));
    EXPECT_TRUE(Field(response, "ok")->boolean);
    std::vector<std::string> codes;
    for (const JsonValue& d : Field(response, "diagnostics")->array) {
      codes.push_back(d.Find("code")->string);
    }
    return codes;
  };
  auto has = [](const std::vector<std::string>& codes, const char* code) {
    return std::find(codes.begin(), codes.end(), code) != codes.end();
  };
  const std::vector<std::string> full = lint_codes(std::nullopt);
  EXPECT_TRUE(has(full, "dependency-implied"));
  EXPECT_FALSE(has(full, "analysis-incomplete"));
  const std::vector<std::string> narrowed = lint_codes(1);
  EXPECT_TRUE(has(narrowed, "analysis-incomplete"));
  EXPECT_FALSE(has(narrowed, "dependency-implied"));
  server.Stop();
}

TEST(Service, LintAnswersAsAnalyzeProgramOnTheHeldContext) {
  // lint reads its Σ findings from the session's held context; its
  // diagnostics are still AnalyzeProgram's over the session's catalog, in
  // order, strict or not, on a first and on a repeated request. Σ has a
  // non-terminating tgd, an undeclared relation, an arity drift, a
  // duplicated dependency and an egd clash; the narrowed step budget cuts
  // the implication check short, which is a finding too.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  const std::vector<std::string> extra = {
      "r(X, Y) -> r(Y, Z).", "t(X) -> s(X).", "s(X, Y) -> r(X, Y).",
      "r(X, Y) -> s(X).",    "s(X) -> X = 1.", "s(X) -> X = 2."};
  for (const std::string& dep : extra) {
    JsonValue added =
        Unwrap(client.Call(JsonObject().Str("cmd", "dep").Str("text", dep).Build()));
    ASSERT_TRUE(Field(added, "ok")->boolean) << dep;
  }
  DependencySet sigma = TestSigma();
  sigma[0] = sigma[0].WithLabel("fk");
  for (Dependency& dep : Sigma(extra)) sigma.push_back(std::move(dep));
  const std::vector<std::string> query_texts = {"Q(X) :- r(X, Y).", "P(X) :- u(X, X)."};
  std::vector<ConjunctiveQuery> queries;
  for (size_t i = 0; i < query_texts.size(); ++i) {
    queries.push_back(Q(query_texts[i]).WithName("L" + std::to_string(i + 1)));
  }

  for (bool strict : {false, true, false}) {
    JsonObject request;
    request.Str("cmd", "lint").Bool("strict", strict).Int("max_chase_steps", 50);
    request.Raw("queries", "[\"" + query_texts[0] + "\",\"" + query_texts[1] + "\"]");
    JsonValue response = Unwrap(client.Call(request.Build()));
    ASSERT_TRUE(Field(response, "ok")->boolean);

    AnalyzeOptions opts = AnalyzeOptions::Full();
    opts.warnings_as_errors = strict;
    opts.budget.max_chase_steps = 50;
    AnalysisReport expected = AnalyzeProgram(TestSchema(), sigma, queries, opts);
    EXPECT_EQ(Field(response, "errors")->boolean, expected.HasErrors());
    const std::vector<JsonValue>& got = Field(response, "diagnostics")->array;
    ASSERT_EQ(got.size(), expected.diagnostics.size()) << strict;
    for (size_t i = 0; i < got.size(); ++i) {
      const Diagnostic& d = expected.diagnostics[i];
      EXPECT_EQ(got[i].Find("code")->string, d.code) << i;
      EXPECT_EQ(got[i].Find("severity")->string, SeverityToString(d.severity)) << i;
      EXPECT_EQ(got[i].Find("subject")->string, d.subject) << i;
      EXPECT_EQ(got[i].Find("message")->string, d.message) << i;
    }
  }
  server.Stop();
}

TEST(Service, ShellConnectForwardsEquivAndMinimize) {
  Server server;
  ASSERT_TRUE(server.Start().ok());

  shell::ScriptEngine engine;
  Unwrap(engine.Run("CREATE TABLE r (a INT, b INT);"
                    "CREATE TABLE s (a INT);"
                    "DEP r(X, Y) -> s(X);"
                    "QUERY q1(X) :- r(X, Y), s(X);"
                    "QUERY q2(X) :- r(X, Y)"));
  std::string local_equiv = Unwrap(engine.Execute("EQUIV q1 q2 UNDER S"));

  std::string connected = Unwrap(engine.Execute(
      "CONNECT 127.0.0.1 " + std::to_string(server.port())));
  EXPECT_NE(connected.find("uploaded 2 relation(s)"), std::string::npos);
  EXPECT_TRUE(engine.connected());

  // Remote EQUIV reaches the same verdict, marked as remote.
  std::string remote_equiv = Unwrap(engine.Execute("EQUIV q1 q2 UNDER S"));
  EXPECT_NE(remote_equiv.find("q1 == q2"), std::string::npos) << remote_equiv;
  EXPECT_NE(remote_equiv.find("[remote"), std::string::npos);

  // Remote MINIMIZE renders the daemon's reformulation back as SQL.
  std::string minimized = Unwrap(engine.Execute("MINIMIZE q1 UNDER S"));
  EXPECT_NE(minimized.find("SELECT"), std::string::npos) << minimized;
  EXPECT_NE(minimized.find("[remote"), std::string::npos);

  // Mirrored DDL/DEP keep the daemon's session in sync.
  std::string mirrored = Unwrap(engine.Execute("CREATE TABLE t (a INT)"));
  EXPECT_NE(mirrored.find("mirrored"), std::string::npos);

  Unwrap(engine.Execute("DISCONNECT"));
  EXPECT_FALSE(engine.connected());
  std::string local_again = Unwrap(engine.Execute("EQUIV q1 q2 UNDER S"));
  EXPECT_EQ(local_again, local_equiv);
  EXPECT_EQ(local_again.find("[remote"), std::string::npos);
  server.Stop();
}

TEST(Service, DrainingResponseIsStructured) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  server.RequestDrain();

  // If the request raced through before the read-side shutdown, the
  // rejection must be machine-readable: draining:true plus a retry_after_ms
  // hint, so a retrying client backs off and redials a replacement.
  Result<JsonValue> response =
      client.Call(CheckLine("Q(X) :- r(X, Y).", "Q(X) :- r(X, Z)."));
  if (response.ok()) {
    EXPECT_FALSE(Field(*response, "ok")->boolean);
    EXPECT_TRUE(Field(*response, "draining")->boolean);
    EXPECT_GE(Field(*response, "retry_after_ms")->number, 1.0);
    EXPECT_EQ(Field(*response, "error")->Find("code")->string,
              "FailedPrecondition");
    EXPECT_GE(server.metrics().counter(metric::kServiceDrainingRejected).value(),
              1u);
    std::optional<uint64_t> hint;
    EXPECT_TRUE(service::IsRetryableResponse(*response, &hint));
    ASSERT_TRUE(hint.has_value());
    EXPECT_GE(*hint, 1u);
  }
  server.Wait();
}

TEST(Service, DrainRaceLosesNoInflightRequest) {
  // Several connections are mid-reformulate when the drain lands, and one
  // more tries to connect during it. Every in-flight request must get a
  // well-formed response (complete, or checkpointed partial); the late
  // arrival gets either a clean connection failure or a structured
  // draining rejection. Nothing hangs, nothing is silently dropped.
  FaultInjector faults;
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = std::chrono::microseconds(100000);
  slow.start = 1;
  slow.period = 1;
  faults.Arm(fault_sites::kBackchaseCandidate, slow);
  ServerOptions options;
  options.faults = &faults;
  options.worker_threads = 3;
  options.max_inflight = 4;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string request_line = JsonObject()
                                       .Str("cmd", "reformulate")
                                       .Str("query", "Q(X) :- r(X, Y), r(X, Z), s(X).")
                                       .Str("semantics", "set")
                                       .Build();
  constexpr int kInflight = 3;
  std::vector<std::thread> threads;
  // One byte per thread: std::vector<bool> packs elements into shared
  // words, so writes to distinct elements from different threads race.
  std::vector<char> answered(kInflight, 0);
  for (int i = 0; i < kInflight; ++i) {
    threads.emplace_back([&server, &request_line, &answered, i] {
      Connection client = Dial(server);
      UploadCatalog(client);
      ASSERT_TRUE(client.Send(request_line).ok());
      std::optional<std::string> raw =
          Unwrap(client.ReadLine(), "drained in-flight response");
      ASSERT_TRUE(raw.has_value()) << "in-flight request " << i << " lost";
      JsonValue response = Unwrap(ParseJson(*raw));
      ASSERT_TRUE(Field(response, "ok")->boolean);
      if (!Field(response, "complete")->boolean) {
        // A cancelled C&B run must hand back a resumable checkpoint.
        EXPECT_NE(response.Find("checkpoint"), nullptr);
        EXPECT_NE(response.Find("drained"), nullptr);
      }
      answered[i] = 1;
    });
  }

  ASSERT_TRUE(PollUntil([&server] { return server.inflight() >= kInflight; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  server.RequestDrain();

  // A connection attempt racing the drain: accepted-then-rejected or
  // refused outright are both clean; a hang or a malformed line is not.
  Result<Connection> late = Connection::Connect("127.0.0.1", server.port());
  if (late.ok()) {
    Result<JsonValue> response =
        late->Call(CheckLine("Q(X) :- r(X, Y).", "Q(X) :- r(X, Z)."));
    if (response.ok()) {
      EXPECT_FALSE(Field(*response, "ok")->boolean);
      EXPECT_TRUE(Field(*response, "draining")->boolean);
    }
  }

  for (std::thread& t : threads) t.join();
  server.Wait();
  for (int i = 0; i < kInflight; ++i) EXPECT_TRUE(answered[i]);
}

TEST(Service, DegradedAdmissionAnswersInsteadOfShedding) {
  FaultInjector faults;
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = std::chrono::microseconds(100000);
  slow.start = 1;
  slow.period = 1;
  faults.Arm(fault_sites::kBackchaseCandidate, slow);

  ServerOptions options;
  options.max_inflight = 1;
  options.faults = &faults;
  options.degraded_admission = true;
  options.degraded_chase_steps = 1;
  options.degraded_candidates = 1;
  options.retry_after_ms = 25;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  // Warm the shared memo at full budget before saturating the server: the
  // degraded lane must still resolve memo hits to real verdicts.
  const std::string warm_line =
      CheckLine("Q(X) :- r(X, Y), s(X).", "Q(X) :- r(X, Y).");
  {
    Connection warm = Dial(server);
    UploadCatalog(warm);
    JsonValue response = Unwrap(warm.Call(warm_line));
    ASSERT_TRUE(Field(response, "ok")->boolean);
    ASSERT_EQ(Field(response, "verdict")->string, "equivalent");
  }

  std::thread slow_request([&server] {
    Connection client = Dial(server);
    UploadCatalog(client);
    JsonValue response = Unwrap(client.Call(
        JsonObject()
            .Str("cmd", "reformulate")
            .Str("query", "Q(X) :- r(X, Y), r(X, Z), s(X).")
            .Str("semantics", "set")
            .Build()));
    EXPECT_TRUE(Field(response, "ok")->boolean);
  });
  ASSERT_TRUE(PollUntil([&server] { return server.inflight() >= 1; }));

  Connection client = Dial(server);
  UploadCatalog(client);

  // Over-cap memo hit: answered with the full-budget verdict, not shed.
  JsonValue hit = Unwrap(client.Call(warm_line));
  ASSERT_TRUE(Field(hit, "ok")->boolean) << "degraded lane must not shed";
  EXPECT_TRUE(Field(hit, "degraded")->boolean);
  EXPECT_EQ(Field(hit, "verdict")->string, "equivalent");
  EXPECT_EQ(hit.Find("overloaded"), nullptr);

  // Over-cap fresh work: either finishes inside the narrowed budget or
  // returns an anytime kUnknown with the exhaustion report and a
  // machine-readable retry hint — never a bare rejection.
  JsonValue fresh = Unwrap(
      client.Call(CheckLine("Q(X) :- r(X, Y).", "Q(X) :- r(X, Z).")));
  ASSERT_TRUE(Field(fresh, "ok")->boolean);
  EXPECT_TRUE(Field(fresh, "degraded")->boolean);
  if (Field(fresh, "verdict")->string == "unknown") {
    EXPECT_NE(fresh.Find("exhaustion"), nullptr);
    EXPECT_EQ(Field(fresh, "retry_after_ms")->number, 25.0);
    std::optional<uint64_t> hint;
    // A degraded kUnknown is settled "try again later", not backpressure:
    // the client retry loop must not treat it as retryable transport-level
    // failure (ok:true, no overloaded/draining marker).
    EXPECT_FALSE(service::IsRetryableResponse(fresh, &hint));
  }

  EXPECT_GE(server.metrics().counter(metric::kServiceDegraded).value(), 2u);
  EXPECT_EQ(server.metrics().counter(metric::kServiceOverloaded).value(), 0u);

  slow_request.join();
  server.Stop();
}

TEST(ServiceRetry, BackoffScheduleIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 50;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 2000;
  policy.seed = 42;

  uint64_t expected_base = 50;
  for (size_t attempt = 1; attempt <= 8; ++attempt) {
    uint64_t backoff = RetryBackoffMs(policy, attempt, std::nullopt);
    // Jittered into [base/2, base] of the capped exponential step.
    EXPECT_GE(backoff, expected_base / 2) << "attempt " << attempt;
    EXPECT_LE(backoff, expected_base) << "attempt " << attempt;
    // Pure: the same (seed, attempt) always sleeps the same amount.
    EXPECT_EQ(backoff, RetryBackoffMs(policy, attempt, std::nullopt));
    expected_base = std::min<uint64_t>(expected_base * 2, 2000);
  }

  // A server retry_after_ms hint raises the base, never lowers the floor.
  uint64_t hinted = RetryBackoffMs(policy, 1, 500);
  EXPECT_GE(hinted, 250u);
  EXPECT_LE(hinted, 500u);
  EXPECT_GE(RetryBackoffMs(policy, 1, 10), 25u);  // small hint: exp step wins
}

TEST(ServiceRetry, IsRetryableResponseRecognizesBackpressure) {
  std::optional<uint64_t> hint;

  JsonValue overloaded = Unwrap(ParseJson(OverloadedResponse("r1", 120)));
  EXPECT_TRUE(service::IsRetryableResponse(overloaded, &hint));
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, 120u);

  hint.reset();
  JsonValue draining = Unwrap(ParseJson(DrainingResponse("r2", 75)));
  EXPECT_TRUE(service::IsRetryableResponse(draining, &hint));
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, 75u);

  hint.reset();
  JsonValue ok = Unwrap(ParseJson(
      JsonObject().Str("id", "r3").Bool("ok", true).Str("verdict", "equivalent").Build()));
  EXPECT_FALSE(service::IsRetryableResponse(ok, &hint));
  JsonValue plain_error = Unwrap(ParseJson(
      ErrorResponse("r4", Status::InvalidArgument("bad query"))));
  EXPECT_FALSE(service::IsRetryableResponse(plain_error, &hint));
}

TEST(ServiceRetry, RetryBudgetExhaustsOnPersistentOverload) {
  FaultInjector faults;
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = std::chrono::microseconds(100000);
  slow.start = 1;
  slow.period = 1;
  faults.Arm(fault_sites::kBackchaseCandidate, slow);
  ServerOptions options;
  options.max_inflight = 1;
  options.faults = &faults;
  options.retry_after_ms = 10;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  std::thread slow_request([&server] {
    Connection client = Dial(server);
    UploadCatalog(client);
    JsonValue response = Unwrap(client.Call(
        JsonObject()
            .Str("cmd", "reformulate")
            .Str("query", "Q(X) :- r(X, Y), r(X, Z), s(X).")
            .Str("semantics", "set")
            .Build()));
    EXPECT_TRUE(Field(response, "ok")->boolean);
  });
  ASSERT_TRUE(PollUntil([&server] { return server.inflight() >= 1; }));

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 1;
  policy.seed = 7;
  Connection client = Dial(server);
  UploadCatalog(client);
  RetryStats stats;
  JsonValue last = Unwrap(client.CallWithRetry(
      CheckLine("Q(X) :- r(X, Y).", "Q(X) :- r(X, Z)."), policy,
      /*raw_response=*/nullptr, &stats));

  // Both attempts were shed (the slow request holds the only slot for far
  // longer than the two ~10ms hinted backoffs), so the loop hands back the
  // last overloaded response with a reproducible sleep schedule.
  EXPECT_TRUE(Field(last, "overloaded")->boolean);
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_EQ(stats.total_backoff_ms, RetryBackoffMs(policy, 1, 10));

  slow_request.join();
  server.Stop();
}

TEST(ServiceRetry, TransportDropRedialsAndResends) {
  FaultInjector faults;
  FaultSpec drop;
  drop.start = 2;  // first request parses fine, second drops the connection
  faults.Arm(fault_sites::kServiceParse, drop);
  ServerOptions options;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.connect_timeout = std::chrono::milliseconds(2000);
  Connection client = Unwrap(
      Connection::Connect("127.0.0.1", server.port(), policy), "Connect");

  RetryStats stats;
  JsonValue first = Unwrap(client.CallWithRetry(
      JsonObject().Str("cmd", "hello").Build(), policy, nullptr, &stats));
  EXPECT_TRUE(Field(first, "ok")->boolean);
  EXPECT_EQ(stats.attempts, 1u);

  // The server drops the connection mid-read; the client redials the stored
  // endpoint and resends the same line, invisibly to the caller.
  JsonValue second = Unwrap(client.CallWithRetry(
      JsonObject().Str("cmd", "hello").Build(), policy, nullptr, &stats));
  EXPECT_TRUE(Field(second, "ok")->boolean);
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.reconnects, 1u);
  server.Stop();
}

/// The verdict string of a check on `client`.
std::string VerdictOf(Connection& client, const std::string& line) {
  JsonValue response = Unwrap(client.Call(line));
  EXPECT_TRUE(Field(response, "ok")->boolean);
  const JsonValue* verdict = response.Find("verdict");
  return verdict == nullptr ? "" : verdict->string;
}

TEST(Service, CatalogChangesReachTheSessionsHeldContext) {
  // A session resolves its chase context once per catalog version; each of
  // dep, relation and ddl starts a new version, so the next check of the
  // same pair is decided under the new catalog. One session per verb: the
  // relation and ddl pairs are first checked on an empty schema, where
  // Σ-lint lets an undeclared relation through.
  Server server;
  ASSERT_TRUE(server.Start().ok());

  // dep: r ⊆ s makes the join with s redundant.
  Connection dep_client = Dial(server);
  for (const char* name : {"r", "s"}) {
    Unwrap(dep_client.Call(
        JsonObject().Str("cmd", "relation").Str("name", name).Int("arity", 1).Build()));
  }
  const std::string dep_pair = CheckLine("Q(X) :- r(X), s(X).", "Q(X) :- r(X).");
  EXPECT_EQ(VerdictOf(dep_client, dep_pair), "not-equivalent");
  Unwrap(dep_client.Call(
      JsonObject().Str("cmd", "dep").Str("text", "r(X) -> s(X).").Build()));
  EXPECT_EQ(VerdictOf(dep_client, dep_pair), "equivalent");

  // relation: under B a duplicated atom of a set-valued relation is
  // redundant (Thm 6.1), of an undeclared (bag-valued) one it is not.
  Connection relation_client = Dial(server);
  const std::string relation_pair =
      CheckLine("Q(X) :- m(X, Y), m(X, Y).", "Q(X) :- m(X, Y).", "bag");
  EXPECT_EQ(VerdictOf(relation_client, relation_pair), "not-equivalent");
  Unwrap(relation_client.Call(JsonObject()
                                  .Str("cmd", "relation")
                                  .Str("name", "m")
                                  .Int("arity", 2)
                                  .Bool("set_valued", true)
                                  .Build()));
  EXPECT_EQ(VerdictOf(relation_client, relation_pair), "equivalent");

  // ddl: a key on k's first column equates the two k atoms' second columns.
  Connection ddl_client = Dial(server);
  const std::string ddl_pair =
      CheckLine("Q(Y, Z) :- k(X, Y), k(X, Z).", "Q(Y, Y) :- k(X, Y).");
  EXPECT_EQ(VerdictOf(ddl_client, ddl_pair), "not-equivalent");
  Unwrap(ddl_client.Call(JsonObject()
                             .Str("cmd", "ddl")
                             .Str("script", "CREATE TABLE k (a INT PRIMARY KEY, b INT)")
                             .Build()));
  EXPECT_EQ(VerdictOf(ddl_client, ddl_pair), "equivalent");
  server.Stop();
}

TEST(Service, CheckAfterResetMemoLandsInTheFreshEngine) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  const std::string line = CheckLine("Q(X) :- r(X, Y), s(X).", "Q(X) :- r(X, Y).");
  auto contexts = [&client]() {
    JsonValue stats = Unwrap(client.Call(JsonObject().Str("cmd", "stats").Build()));
    return Field(*Field(stats, "memo"), "contexts")->number;
  };
  EXPECT_EQ(VerdictOf(client, line), "equivalent");
  EXPECT_EQ(contexts(), 1.0);
  server.ResetMemo();
  EXPECT_EQ(contexts(), 0.0);
  // The replaced engine went with the context the session held; the check
  // re-resolves in the fresh one.
  EXPECT_EQ(VerdictOf(client, line), "equivalent");
  EXPECT_EQ(contexts(), 1.0);
  server.Stop();
}

TEST(Service, SessionHoldsItsContextsWeakly) {
  // The engine owns its contexts; a session only names them, so an engine
  // replaced by ResetMemo frees them although an idle session still held
  // them, and the session resolves afresh in the next engine.
  Session session;
  ASSERT_TRUE(session.AddRelation("r", 1, /*set_valued=*/false).ok());
  auto engine = std::make_shared<EquivalenceEngine>();
  std::shared_ptr<ChaseContext> context = session.ContextIn(*engine, Semantics::kSet);
  EXPECT_EQ(session.ContextIn(*engine, Semantics::kSet), context);
  std::weak_ptr<ChaseContext> held = context;
  context.reset();
  engine.reset();
  EXPECT_TRUE(held.expired());
  EquivalenceEngine fresh;
  session.ContextIn(fresh, Semantics::kSet);
  EXPECT_EQ(fresh.cache_stats().contexts, 1u);
}

TEST(Service, OutOfRangeIntegerLiteralIsAnErrorNotACrash) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  Unwrap(client.Call(JsonObject()
                         .Str("cmd", "ddl")
                         .Str("script", "CREATE TABLE r (a INT, b INT)")
                         .Build()));
  std::string raw;
  JsonValue check = Unwrap(client.Call(
      CheckLine("SELECT r.a FROM r WHERE r.b = 99999999999999999999",
                "SELECT r.a FROM r"),
      &raw));
  EXPECT_FALSE(Field(check, "ok")->boolean);
  EXPECT_NE(raw.find("integer literal out of range"), std::string::npos) << raw;
  JsonValue dep = Unwrap(
      client.Call(JsonObject()
                      .Str("cmd", "dep")
                      .Str("text", "r(X, Y) -> r(X, 99999999999999999999).")
                      .Build(),
                  &raw));
  EXPECT_FALSE(Field(dep, "ok")->boolean);
  EXPECT_NE(raw.find("integer literal out of range"), std::string::npos) << raw;
  // The connection and the daemon are still up.
  const std::string in_range =
      CheckLine("SELECT r.a FROM r WHERE r.b = 9223372036854775807",
                "SELECT x.a FROM r x WHERE x.b = 9223372036854775807");
  EXPECT_EQ(VerdictOf(client, in_range), "equivalent");
  server.Stop();
}

/// A check of the pair UploadCatalog's dependency makes equivalent, sent
/// under request id `id`.
std::string IdCheckLine(const std::string& id) {
  return JsonObject()
      .Str("id", id)
      .Str("cmd", "check")
      .Str("q1", "Q(X) :- r(X, Y), s(X).")
      .Str("q2", "Q(X) :- r(X, Y).")
      .Str("semantics", "set")
      .Build();
}

TEST(Service, RequestIdsDoNotCarryAnswersAcrossSessionsOrCatalogs) {
  // An answer depends on the session's catalog and the request, never on
  // the request id: a session that reuses another's id under another Σ,
  // and a session that resends an id after changing its Σ, each get the
  // verdict of their own catalog.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  auto declare_relations = [](Connection& client) {
    Unwrap(client.Call(
        JsonObject().Str("cmd", "relation").Str("name", "r").Int("arity", 2).Build()));
    Unwrap(client.Call(
        JsonObject().Str("cmd", "relation").Str("name", "s").Int("arity", 1).Build()));
  };

  Connection with_dep = Dial(server);
  UploadCatalog(with_dep);
  EXPECT_EQ(VerdictOf(with_dep, IdCheckLine("auto-1")), "equivalent");

  Connection without_dep = Dial(server);
  declare_relations(without_dep);
  JsonValue reused = Unwrap(without_dep.Call(IdCheckLine("auto-1")));
  EXPECT_EQ(Field(reused, "id")->string, "auto-1");
  EXPECT_EQ(Field(reused, "verdict")->string, "not-equivalent");

  Connection changing = Dial(server);
  declare_relations(changing);
  EXPECT_EQ(VerdictOf(changing, IdCheckLine("c-1")), "not-equivalent");
  Unwrap(changing.Call(
      JsonObject().Str("cmd", "dep").Str("text", "r(X, Y) -> s(X).").Build()));
  EXPECT_EQ(VerdictOf(changing, IdCheckLine("c-1")), "equivalent");
  server.Stop();
}

TEST(Service, ResentRequestIsAnsweredFromTheMemo) {
  // A resent line (a client retry after a lost response) is dispatched
  // again, and the chase memo answers it.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  auto memo_hits = [&client] {
    JsonValue stats = Unwrap(client.Call(JsonObject().Str("cmd", "stats").Build()));
    return Field(*Field(stats, "memo"), "hits")->number;
  };
  const std::string line = IdCheckLine("retry-1");
  EXPECT_EQ(VerdictOf(client, line), "equivalent");
  const double hits_after_first = memo_hits();
  JsonValue second = Unwrap(client.Call(line));
  EXPECT_EQ(Field(second, "id")->string, "retry-1");
  EXPECT_EQ(Field(second, "verdict")->string, "equivalent");
  EXPECT_GT(memo_hits(), hits_after_first);
  server.Stop();
}

TEST(Service, RequestNumbersAreCheckedBeforeConversion) {
  // JSON numbers are doubles; a request's counts and milliseconds must be
  // integral, and a value no integer type holds is refused or capped, not
  // converted.
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  auto error_of = [&client](const std::string& line) {
    std::string raw;
    JsonValue response = Unwrap(client.Call(line, &raw));
    EXPECT_FALSE(Field(response, "ok")->boolean) << raw;
    const JsonValue* error = response.Find("error");
    if (error == nullptr || error->Find("message") == nullptr) return std::string();
    EXPECT_EQ(error->Find("code")->string, "InvalidArgument") << raw;
    return error->Find("message")->string;
  };
  auto check_with = [](const char* field, const char* number) {
    // Spliced as text, so the wire carries exactly `number`.
    const std::string line = IdCheckLine("n");
    return line.substr(0, line.size() - 1) + ",\"" + field + "\":" + number + "}";
  };
  auto relation_with = [](const char* name, const char* arity) {
    return std::string("{\"cmd\":\"relation\",\"name\":\"") + name +
           "\",\"arity\":" + arity + "}";
  };

  // Fractions are refused, naming the field.
  EXPECT_NE(error_of(check_with("max_chase_steps", "0.5")).find("max_chase_steps"),
            std::string::npos);
  EXPECT_NE(error_of(check_with("max_candidates", "2.5")).find("max_candidates"),
            std::string::npos);
  EXPECT_NE(error_of(check_with("deadline_ms", "10.25")).find("deadline_ms"),
            std::string::npos);
  EXPECT_NE(error_of(relation_with("t", "2.7")).find("arity"), std::string::npos);
  // So are values past what the field can mean.
  EXPECT_NE(error_of(check_with("deadline_ms", "1e300")).find("deadline_ms"),
            std::string::npos);
  EXPECT_NE(error_of(check_with("deadline_ms", "1099511627777")).find("deadline_ms"),
            std::string::npos);
  const std::string huge_arity = error_of(relation_with("t", "1e300"));
  EXPECT_NE(huge_arity.find("arity"), std::string::npos);
  EXPECT_EQ(huge_arity.find("must have arity >= 1"), std::string::npos) << huge_arity;

  // A step or candidate count at or above the server's cap leaves the cap,
  // as does any value <= 0; so does a deadline <= 0, and a deadline of
  // 2^40 ms is in range.
  for (const char* steps :
       {"1e300", "1e400", "18446744073709551615", "5000", "0", "-3"}) {
    EXPECT_EQ(VerdictOf(client, check_with("max_chase_steps", steps)), "equivalent")
        << steps;
  }
  for (const char* candidates : {"1e300", "18446744073709551615", "0"}) {
    EXPECT_EQ(VerdictOf(client, check_with("max_candidates", candidates)), "equivalent")
        << candidates;
  }
  for (const char* deadline : {"1099511627776", "0", "-1e300"}) {
    EXPECT_EQ(VerdictOf(client, check_with("deadline_ms", deadline)), "equivalent")
        << deadline;
  }
  // A refused relation declares nothing; an integral arity still declares.
  JsonValue declared = Unwrap(client.Call(relation_with("t", "2.0")));
  EXPECT_TRUE(Field(declared, "ok")->boolean);
  EXPECT_EQ(Field(declared, "relations")->number, 3.0);
  server.Stop();
}

TEST(Service, DrainingRejectsNewExpensiveWork) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);
  server.RequestDrain();
  // The read side is shut, but responses to already-connected clients that
  // raced the drain must still be well-formed; a fresh expensive request on
  // this connection is either answered with FailedPrecondition or the
  // connection is already closed — both are clean outcomes.
  Result<JsonValue> response =
      client.Call(CheckLine("Q(X) :- r(X, Y).", "Q(X) :- r(X, Z)."));
  if (response.ok()) {
    EXPECT_FALSE(Field(*response, "ok")->boolean);
    EXPECT_EQ(Field(*response, "error")->Find("code")->string,
              "FailedPrecondition");
  }
  server.Wait();
}

}  // namespace
}  // namespace service
}  // namespace sqleq
