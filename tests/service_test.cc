// End-to-end tests for the sqleqd service layer (src/service): verdict
// parity with the in-process engine, per-connection sessions, the shared
// chase memo, admission control, graceful drain with resumable C&B
// checkpoints, and the service.* fault sites (connection drops must never
// wedge the server or leak sessions — this file runs under tsan).
#include "service/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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

TEST(Service, IdempotentRequestIdReplaysSettledResponseBytes) {
  Server server;
  ASSERT_TRUE(server.Start().ok());
  Connection client = Dial(server);
  UploadCatalog(client);

  const std::string line = JsonObject()
                               .Str("id", "idem-1")
                               .Str("cmd", "check")
                               .Str("q1", "Q(X) :- r(X, Y), s(X).")
                               .Str("q2", "Q(X) :- r(X, Y).")
                               .Str("semantics", "set")
                               .Build();
  std::string first_raw;
  JsonValue first = Unwrap(client.Call(line, &first_raw));
  ASSERT_TRUE(Field(first, "ok")->boolean);
  EXPECT_EQ(Field(first, "id")->string, "idem-1");

  // The retried id replays the settled response byte-for-byte instead of
  // re-dispatching (the metrics object inside is the original's too).
  std::string second_raw;
  JsonValue second = Unwrap(client.Call(line, &second_raw));
  EXPECT_EQ(second_raw, first_raw);
  EXPECT_TRUE(Field(second, "ok")->boolean);
  EXPECT_EQ(server.metrics().counter(metric::kServiceIdempotentReplays).value(),
            1u);

  // A different id is fresh work, not a replay.
  const std::string other = JsonObject()
                                .Str("id", "idem-2")
                                .Str("cmd", "check")
                                .Str("q1", "Q(X) :- r(X, Y), s(X).")
                                .Str("q2", "Q(X) :- r(X, Y).")
                                .Str("semantics", "set")
                                .Build();
  JsonValue fresh = Unwrap(client.Call(other));
  EXPECT_TRUE(Field(fresh, "ok")->boolean);
  EXPECT_EQ(server.metrics().counter(metric::kServiceIdempotentReplays).value(),
            1u);

  // Error responses are not settled: the same bad id re-dispatches (a fixed
  // client must not be stuck replaying its own typo).
  const std::string bad = JsonObject()
                              .Str("id", "idem-bad")
                              .Str("cmd", "check")
                              .Str("q1", "this does not parse")
                              .Str("q2", "Q(X) :- r(X, Y).")
                              .Build();
  JsonValue bad1 = Unwrap(client.Call(bad));
  EXPECT_FALSE(Field(bad1, "ok")->boolean);
  JsonValue bad2 = Unwrap(client.Call(bad));
  EXPECT_FALSE(Field(bad2, "ok")->boolean);
  EXPECT_EQ(server.metrics().counter(metric::kServiceIdempotentReplays).value(),
            1u);
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
