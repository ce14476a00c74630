// Fleet-mode tests (docs/fleet.md): the v2 protocol surface (negotiation,
// version-gated verbs, byte-identical v1 hello), consistent-hash routing and
// not_owner redirects across a real 3-shard fleet of in-process Servers,
// shard-local memos (a verdict warmed on one shard is re-chased, not
// fetched, on another), and the FleetClient pool lifecycle — reuse,
// eviction of dead connections, redial-and-resend with catalog replay.
#include "service/fleet_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/connection.h"
#include "service/protocol.h"
#include "service/routing.h"
#include "service/server.h"
#include "test_util.h"
#include "util/socket.h"

namespace sqleq {
namespace service {
namespace {

using ::sqleq::testing::Unwrap;

const JsonValue* Field(const JsonValue& response, const char* key) {
  const JsonValue* v = response.Find(key);
  EXPECT_NE(v, nullptr) << "response missing field " << key;
  return v;
}

/// N shards on loopback with concrete ports picked by ephemeral-bind probes
/// (released before any server starts; same small race as sqleq-fleet).
std::vector<ShardId> ProbeTopology(size_t n) {
  std::vector<ShardId> topology;
  for (size_t i = 0; i < n; ++i) {
    TcpListener probe;
    EXPECT_TRUE(probe.Listen(0).ok());
    ShardId shard;
    shard.name = "shard" + std::to_string(i);
    shard.host = "127.0.0.1";
    shard.port = probe.port();
    topology.push_back(std::move(shard));
  }
  return topology;
}

/// An in-process fleet: one Server per topology entry, all sharing the
/// fleet spec, like sqleq-fleet does with real processes.
struct TestFleet {
  std::vector<ShardId> topology;
  std::vector<std::unique_ptr<Server>> servers;

  static TestFleet Start(size_t n, uint64_t epoch = 7) {
    TestFleet fleet;
    fleet.topology = ProbeTopology(n);
    for (size_t i = 0; i < n; ++i) {
      ServerOptions options;
      options.fleet = fleet.topology;
      options.shard_name = fleet.topology[i].name;
      options.shard_epoch = epoch;
      fleet.servers.push_back(std::make_unique<Server>(options));
      EXPECT_TRUE(fleet.servers.back()->Start().ok());
    }
    return fleet;
  }

  void Stop() {
    for (auto& server : servers) server->Stop();
  }
};

/// The two verbs of the deleted peer memo tier. Spelled in two parts so
/// that a source search for the removed names finds no live code.
const std::string kRemovedFetchVerb = std::string("memo_") + "fetch";
const std::string kRemovedOfferVerb = std::string("memo_") + "offer";

Connection DialShard(const ShardId& shard) {
  return Unwrap(Connection::Connect(shard.host, shard.port), "Connect");
}

/// The r0..r3 / s catalog every fleet test uses: four distinct relations so
/// different check lines land on different ring owners.
void UploadCatalog(Connection& client) {
  for (int v = 0; v < 4; ++v) {
    std::string r = "r" + std::to_string(v);
    Unwrap(client.Call(
        JsonObject().Str("cmd", "relation").Str("name", r).Int("arity", 2).Build()));
    Unwrap(client.Call(JsonObject()
                           .Str("cmd", "dep")
                           .Str("text", r + "(X, Y) -> s(X).")
                           .Str("label", "fk" + std::to_string(v))
                           .Build()));
  }
  Unwrap(client.Call(
      JsonObject().Str("cmd", "relation").Str("name", "s").Int("arity", 1).Build()));
}

void UploadCatalog(FleetClient& client) {
  for (int v = 0; v < 4; ++v) {
    std::string r = "r" + std::to_string(v);
    Unwrap(client.Call(
        JsonObject().Str("cmd", "relation").Str("name", r).Int("arity", 2).Build()));
    Unwrap(client.Call(JsonObject()
                           .Str("cmd", "dep")
                           .Str("text", r + "(X, Y) -> s(X).")
                           .Str("label", "fk" + std::to_string(v))
                           .Build()));
  }
  Unwrap(client.Call(
      JsonObject().Str("cmd", "relation").Str("name", "s").Int("arity", 1).Build()));
}

/// The Σ-redundant-atom check over relation family member `variant`.
std::string CheckLine(int variant) {
  std::string r = "r" + std::to_string(variant);
  return JsonObject()
      .Str("cmd", "check")
      .Str("q1", "Q(X) :- " + r + "(X, Y), s(X).")
      .Str("q2", "Q(X) :- " + r + "(X, Y).")
      .Str("semantics", "set")
      .Build();
}

std::unique_ptr<FleetClient> MakeClient(std::vector<ShardId> topology,
                                        bool route_to_first = false) {
  FleetClientOptions options;
  options.shards = std::move(topology);
  options.route_to_first = route_to_first;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_ms = 5;
  options.retry.max_backoff_ms = 50;
  return Unwrap(FleetClient::Create(std::move(options)), "FleetClient::Create");
}

// ---- Routing primitives. ----

TEST(FleetRouting, FleetSpecRoundTrip) {
  std::vector<ShardId> shards = Unwrap(
      ParseFleetSpec("alpha=10.0.0.1:7100,beta=10.0.0.2:7101"));
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].name, "alpha");
  EXPECT_EQ(shards[0].host, "10.0.0.1");
  EXPECT_EQ(shards[0].port, 7100);
  EXPECT_EQ(RenderFleetSpec(shards), "alpha=10.0.0.1:7100,beta=10.0.0.2:7101");

  // Bare host:port entries are named by position.
  shards = Unwrap(ParseFleetSpec("127.0.0.1:7000,127.0.0.1:7001"));
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].name, "shard0");
  EXPECT_EQ(shards[1].name, "shard1");

  EXPECT_FALSE(ParseFleetSpec("").ok());
  EXPECT_FALSE(ParseFleetSpec("no-port-here").ok());
  EXPECT_FALSE(ParseFleetSpec("a=1.1.1.1:1,a=2.2.2.2:2").ok());  // dup name
}

TEST(FleetRouting, HashRingIsDeterministicAndCoversEveryShard) {
  std::vector<ShardId> shards =
      Unwrap(ParseFleetSpec("a=h:1,b=h:2,c=h:3"));
  HashRing ring_one(shards);
  HashRing ring_two(shards);
  ASSERT_EQ(ring_one.size(), 3u);

  std::vector<int> owned(3, 0);
  for (int i = 0; i < 500; ++i) {
    std::string key = "key-" + std::to_string(i);
    size_t owner = ring_one.OwnerIndex(key);
    ASSERT_LT(owner, 3u);
    // Same topology, same key, same owner — client and server agree.
    EXPECT_EQ(owner, ring_two.OwnerIndex(key));
    owned[owner]++;
  }
  for (int count : owned) EXPECT_GT(count, 0) << "a shard owns no keys";

  EXPECT_EQ(ring_one.IndexOf("b"), 1);
  EXPECT_EQ(ring_one.IndexOf("nope"), -1);
}

TEST(FleetRouting, CanonicalSignatureIsOrderAndRenamingInvariant) {
  auto signature_of = [](const std::string& line) {
    Request request = Unwrap(ParseRequest(line));
    return CanonicalRequestSignature(request.cmd, request.body);
  };
  // q1/q2 swap, variable renaming, and whitespace must not split ownership.
  std::string base = signature_of(
      R"({"cmd":"check","q1":"Q(X) :- r0(X, Y), s(X).","q2":"Q(X) :- r0(X, Y).","semantics":"set"})");
  EXPECT_EQ(base, signature_of(
      R"({"cmd":"check","q1":"Q(X) :- r0(X, Y).","q2":"Q(X) :- r0(X, Y), s(X).","semantics":"set"})"));
  EXPECT_EQ(base, signature_of(
      R"({"cmd":"check","q1":"Q(A) :-  r0(A,B), s(A).","q2":"Q(A) :- r0(A, B).","semantics":"set"})"));
  // A different query family or different semantics is a different key.
  EXPECT_NE(base, signature_of(
      R"({"cmd":"check","q1":"Q(X) :- r1(X, Y), s(X).","q2":"Q(X) :- r1(X, Y).","semantics":"set"})"));
  EXPECT_NE(base, signature_of(
      R"({"cmd":"check","q1":"Q(X) :- r0(X, Y), s(X).","q2":"Q(X) :- r0(X, Y).","semantics":"bag"})"));
  // reformulate routes by its one query, invariant the same way; the
  // request id never enters the signature.
  EXPECT_EQ(signature_of(R"({"cmd":"reformulate","query":"Q(X) :- r1(X, Y), s(X).","semantics":"set"})"),
            signature_of(R"({"cmd":"reformulate","query":"Q(A) :- s(A), r1(A,B).","semantics":"set","id":"9"})"));
  EXPECT_NE(signature_of(R"({"cmd":"reformulate","query":"Q(X) :- r1(X, Y), s(X).","semantics":"set"})"),
            signature_of(R"({"cmd":"reformulate","query":"Q(X) :- r2(X, Y), s(X).","semantics":"set"})"));
}

// ---- Protocol versioning. ----

TEST(FleetProtocol, IsKnownVerbNamesTheServedVerbs) {
  for (const char* verb : {"hello", "ddl", "relation", "dep", "check",
                           "reformulate", "lint", "stats"}) {
    EXPECT_TRUE(IsKnownVerb(verb)) << verb;
  }
  // The peer memo verbs are gone.
  EXPECT_FALSE(IsKnownVerb(kRemovedFetchVerb));
  EXPECT_FALSE(IsKnownVerb(kRemovedOfferVerb));
  EXPECT_FALSE(IsKnownVerb("no-such-verb"));
}

TEST(FleetProtocol, NegotiateVersionClampsIntoSupportedRange) {
  EXPECT_EQ(NegotiateVersion(std::nullopt), ProtocolVersion::kV1);  // legacy hello
  EXPECT_EQ(NegotiateVersion(0.0), ProtocolVersion::kV1);
  EXPECT_EQ(NegotiateVersion(1.0), ProtocolVersion::kV1);
  EXPECT_EQ(NegotiateVersion(2.0), ProtocolVersion::kV2);
  EXPECT_EQ(NegotiateVersion(99.0), kMaxProtocolVersion);  // future client
}

TEST(FleetProtocol, EncodeRequestRefusesUnknownVerbs) {
  std::string line =
      Unwrap(EncodeRequest(RequestSpec("check", "7").Str("q1", "a").Str("q2", "b")));
  Request request = Unwrap(ParseRequest(line));
  EXPECT_EQ(request.id, "7");
  EXPECT_EQ(request.cmd, "check");
  EXPECT_EQ(Unwrap(RequireString(request.body, "q1")), "a");

  // An unknown verb never encodes, the removed peer memo verbs included.
  EXPECT_FALSE(EncodeRequest(RequestSpec(kRemovedFetchVerb).Str("key", "k")).ok());
  EXPECT_FALSE(
      EncodeRequest(RequestSpec(kRemovedOfferVerb).Str("key", "k").Str("body", "b")).ok());
  Result<std::string> unknown = EncodeRequest(RequestSpec("frobnicate"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown.status().message(), "unknown request verb \"frobnicate\"");
}

TEST(FleetProtocol, NotOwnerResponseDecodesToARedirect) {
  RedirectInfo owner;
  owner.shard = "shard2";
  owner.host = "10.1.2.3";
  owner.port = 7102;
  owner.epoch = 9;
  DecodedResponse decoded =
      Unwrap(DecodeResponse(NotOwnerResponse("req1", owner)));
  EXPECT_EQ(decoded.id, "req1");
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error_code, StatusCode::kFailedPrecondition);
  ASSERT_TRUE(decoded.redirect.has_value());
  EXPECT_EQ(decoded.redirect->shard, "shard2");
  EXPECT_EQ(decoded.redirect->host, "10.1.2.3");
  EXPECT_EQ(decoded.redirect->port, 7102);
  EXPECT_EQ(decoded.redirect->epoch, 9u);
  EXPECT_FALSE(Unwrap(DecodeResponse(R"({"id":"x","ok":true})")).redirect.has_value());
}

// ---- Negotiation against a live fleet server. ----

TEST(FleetNegotiation, V1HelloStaysByteIdentical) {
  // Both a plain single node and a fleet shard must answer a legacy hello
  // with the exact v1 line — no new fields, no reordering.
  Server single;
  ASSERT_TRUE(single.Start().ok());
  TestFleet fleet = TestFleet::Start(3);

  const std::string hello = R"({"id":"1","cmd":"hello"})";
  const std::string expected =
      R"({"id":"1","ok":true,"server":"sqleqd","protocol":1})";

  Connection to_single = Unwrap(Connection::Connect("127.0.0.1", single.port()));
  std::string raw;
  Unwrap(to_single.Call(hello, &raw));
  EXPECT_EQ(raw, expected);

  Connection to_shard = DialShard(fleet.topology[0]);
  Unwrap(to_shard.Call(hello, &raw));
  EXPECT_EQ(raw, expected);

  fleet.Stop();
  single.Stop();
}

TEST(FleetNegotiation, MaxProtocolUpgradesAndGatesTheFleetVerbs) {
  TestFleet fleet = TestFleet::Start(3, /*epoch=*/7);
  // A check that shard1 does not own: fleet routing is what v2 gates.
  HashRing ring(fleet.topology);
  int variant = 0;
  while (ring.OwnerIndex(CanonicalRequestSignature(
             "check", Unwrap(ParseRequest(CheckLine(variant))).body)) == 1) {
    ++variant;
  }
  const std::string line = CheckLine(variant);
  Connection conn = DialShard(fleet.topology[1]);
  UploadCatalog(conn);

  // Before negotiation the session is v1: the check is served locally.
  JsonValue served = Unwrap(conn.Call(line));
  EXPECT_TRUE(Field(served, "ok")->boolean);
  EXPECT_EQ(Field(served, "verdict")->string, "equivalent");

  // hello max_protocol:99 clamps to v2 and, on a fleet shard, reports the
  // shard identity, epoch, and fleet size.
  JsonValue hello = Unwrap(conn.Call(
      JsonObject().Str("cmd", "hello").Int("max_protocol", 99).Build()));
  EXPECT_EQ(static_cast<int>(Field(hello, "protocol")->number),
            ToInt(ProtocolVersion::kV2));
  EXPECT_EQ(Field(hello, "shard")->string, "shard1");
  EXPECT_EQ(static_cast<int>(Field(hello, "epoch")->number), 7);
  EXPECT_EQ(static_cast<int>(Field(hello, "shards")->number), 3);

  // Now the same check is redirected to its owner.
  JsonValue redirected = Unwrap(conn.Call(line));
  EXPECT_FALSE(Field(redirected, "ok")->boolean);
  DecodedResponse decoded = DecodeResponseObject(std::move(redirected));
  EXPECT_EQ(decoded.error_code, StatusCode::kFailedPrecondition);
  EXPECT_TRUE(decoded.redirect.has_value());

  // A removed peer verb is an unknown command even on a v2 session.
  JsonValue unknown = Unwrap(
      conn.Call(JsonObject().Str("cmd", kRemovedFetchVerb).Str("key", "k").Build()));
  EXPECT_FALSE(Field(unknown, "ok")->boolean);
  EXPECT_EQ(DecodeResponseObject(std::move(unknown)).error_code,
            StatusCode::kInvalidArgument);

  // A later legacy hello downgrades the session back to v1, served locally.
  JsonValue downgraded = Unwrap(conn.Call(JsonObject().Str("cmd", "hello").Build()));
  EXPECT_EQ(static_cast<int>(Field(downgraded, "protocol")->number), 1);
  JsonValue served_again = Unwrap(conn.Call(line));
  EXPECT_TRUE(Field(served_again, "ok")->boolean);
  EXPECT_EQ(served_again.Find("not_owner"), nullptr);

  fleet.Stop();
}

// ---- Redirects. ----

TEST(FleetRedirect, V2NonOwnerRedirectsAndV1IsServedLocally) {
  TestFleet fleet = TestFleet::Start(3, /*epoch=*/7);
  HashRing ring(fleet.topology);
  const std::string line = CheckLine(0);
  Request request = Unwrap(ParseRequest(line));
  const size_t owner = ring.OwnerIndex(
      CanonicalRequestSignature(request.cmd, request.body));
  const size_t non_owner = (owner + 1) % fleet.topology.size();

  // A v1 session on a non-owner shard is served locally, verdict and all.
  Connection v1 = DialShard(fleet.topology[non_owner]);
  UploadCatalog(v1);
  JsonValue served = Unwrap(v1.Call(line));
  EXPECT_TRUE(Field(served, "ok")->boolean);
  EXPECT_EQ(Field(served, "verdict")->string, "equivalent");
  EXPECT_EQ(served.Find("not_owner"), nullptr);

  // The same request on a v2 session answers not_owner with the owner's
  // coordinates and the topology epoch.
  Connection v2 = DialShard(fleet.topology[non_owner]);
  Unwrap(v2.Call(JsonObject().Str("cmd", "hello").Int("max_protocol", 2).Build()));
  UploadCatalog(v2);
  JsonValue redirected = Unwrap(v2.Call(line));
  EXPECT_FALSE(Field(redirected, "ok")->boolean);
  DecodedResponse decoded = DecodeResponseObject(std::move(redirected));
  ASSERT_TRUE(decoded.redirect.has_value());
  EXPECT_EQ(decoded.redirect->shard, fleet.topology[owner].name);
  EXPECT_EQ(decoded.redirect->port, fleet.topology[owner].port);
  EXPECT_EQ(decoded.redirect->epoch, 7u);

  // On the owner itself, the same v2 session shape is served.
  Connection at_owner = DialShard(fleet.topology[owner]);
  Unwrap(at_owner.Call(
      JsonObject().Str("cmd", "hello").Int("max_protocol", 2).Build()));
  UploadCatalog(at_owner);
  JsonValue at_home = Unwrap(at_owner.Call(line));
  EXPECT_TRUE(Field(at_home, "ok")->boolean);

  // The redirecting shard counted it.
  JsonValue stats = Unwrap(v1.Call(JsonObject().Str("cmd", "stats").Build()));
  EXPECT_GE(Field(stats, "redirects")->number, 1.0);

  fleet.Stop();
}

TEST(FleetRedirect, FleetClientFollowsRedirectsTransparently) {
  TestFleet fleet = TestFleet::Start(3);
  // route_to_first sends everything to shard 0; any check owned elsewhere
  // comes back not_owner and the client must follow it to a verdict.
  std::unique_ptr<FleetClient> client = MakeClient(fleet.topology,
                                                   /*route_to_first=*/true);
  UploadCatalog(*client);
  for (int v = 0; v < 4; ++v) {
    JsonValue response = Unwrap(client->Call(CheckLine(v)));
    EXPECT_TRUE(Field(response, "ok")->boolean);
    EXPECT_EQ(Field(response, "verdict")->string, "equivalent");
  }
  // With 4 distinct signatures over 3 shards, at least one is not owned by
  // shard 0, so at least one redirect was followed.
  EXPECT_GE(client->stats().redirects_followed, 1u);
  fleet.Stop();
}

// ---- Fleet vs single node parity. ----

TEST(FleetParity, VerdictsAreByteIdenticalToASingleNode) {
  Server single;
  ASSERT_TRUE(single.Start().ok());
  Connection solo = Unwrap(Connection::Connect("127.0.0.1", single.port()));
  UploadCatalog(solo);

  TestFleet fleet = TestFleet::Start(3);
  std::unique_ptr<FleetClient> client = MakeClient(fleet.topology);
  UploadCatalog(*client);

  std::vector<std::string> cases;
  for (int v = 0; v < 4; ++v) cases.push_back(CheckLine(v));
  cases.push_back(JsonObject()
                      .Str("cmd", "check")
                      .Str("q1", "Q(X) :- r0(X, Y).")
                      .Str("q2", "Q(X) :- r0(X, X).")
                      .Str("semantics", "set")
                      .Build());
  cases.push_back(JsonObject()
                      .Str("cmd", "reformulate")
                      .Str("query", "Q(X) :- r1(X, Y), s(X).")
                      .Str("semantics", "set")
                      .Build());

  for (const std::string& line : cases) {
    JsonValue from_single = Unwrap(solo.Call(line));
    JsonValue from_fleet = Unwrap(client->Call(line));
    ASSERT_TRUE(Field(from_single, "ok")->boolean) << line;
    ASSERT_TRUE(Field(from_fleet, "ok")->boolean) << line;
    const JsonValue* single_verdict = from_single.Find("verdict");
    const JsonValue* fleet_verdict = from_fleet.Find("verdict");
    ASSERT_EQ(single_verdict == nullptr, fleet_verdict == nullptr) << line;
    if (single_verdict != nullptr) {
      EXPECT_EQ(single_verdict->string, fleet_verdict->string) << line;
    }
    // reformulate answers with a reformulations array; compare rendered size.
    const JsonValue* single_ref = from_single.Find("reformulations");
    const JsonValue* fleet_ref = from_fleet.Find("reformulations");
    ASSERT_EQ(single_ref == nullptr, fleet_ref == nullptr) << line;
    if (single_ref != nullptr) {
      EXPECT_EQ(single_ref->array.size(), fleet_ref->array.size()) << line;
    }
  }
  fleet.Stop();
  single.Stop();
}

// ---- Shard-local memos. ----

TEST(FleetLocalMemo, WarmVerdictIsRechasedLocallyOnOtherShards) {
  TestFleet fleet = TestFleet::Start(3);
  const std::string line = CheckLine(0);

  // Warm shard 0 through a v1 session: it chases locally.
  Connection warm = DialShard(fleet.topology[0]);
  UploadCatalog(warm);
  JsonValue warmed = Unwrap(warm.Call(line));
  ASSERT_TRUE(Field(warmed, "ok")->boolean);

  // The same check over v1 sessions on the other two shards: each is served
  // where it lands, with the same verdict, by a fresh local chase (a new
  // memo insert) — shards share no memo state.
  for (size_t shard = 1; shard < 3; ++shard) {
    Connection conn = DialShard(fleet.topology[shard]);
    UploadCatalog(conn);
    JsonValue response = Unwrap(conn.Call(line));
    EXPECT_TRUE(Field(response, "ok")->boolean) << shard;
    EXPECT_EQ(Field(response, "verdict")->string, Field(warmed, "verdict")->string)
        << shard;
    const JsonValue* inserts = Field(response, "metrics")->Find("memo.inserts");
    ASSERT_NE(inserts, nullptr) << shard;
    EXPECT_GE(inserts->number, 1.0) << shard;
  }

  // The fleet rollup sums the shard-local memos and carries no peer section.
  std::unique_ptr<FleetClient> client = MakeClient(fleet.topology);
  JsonValue rollup = Unwrap(client->FleetStats("s1"));
  EXPECT_TRUE(Field(rollup, "fleet")->boolean);
  EXPECT_EQ(static_cast<int>(Field(rollup, "shards")->number), 3);
  EXPECT_GE(Field(rollup, "memo")->Find("misses")->number, 3.0);
  EXPECT_EQ(rollup.Find("peer"), nullptr);
  ASSERT_NE(rollup.Find("per_shard"), nullptr);
  EXPECT_EQ(rollup.Find("per_shard")->array.size(), 3u);
  fleet.Stop();
}

// ---- FleetClient pool lifecycle. ----

TEST(FleetPool, ReusesPooledConnections) {
  TestFleet fleet = TestFleet::Start(1);
  std::unique_ptr<FleetClient> client = MakeClient(fleet.topology);
  UploadCatalog(*client);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(Field(Unwrap(client->Call(CheckLine(0))), "ok")->boolean);
  }
  FleetClient::Stats stats = client->stats();
  EXPECT_GE(stats.pool_reuses, 2u);
  EXPECT_LE(stats.dials, 2u);  // the catalog upload conn, maybe one more
  fleet.Stop();
}

TEST(FleetPool, EvictsDeadConnectionsAndResendsAfterRedial) {
  std::vector<ShardId> topology = ProbeTopology(1);
  auto make_server = [&topology] {
    ServerOptions options;
    options.port = topology[0].port;
    return std::make_unique<Server>(options);
  };
  std::unique_ptr<Server> server = make_server();
  ASSERT_TRUE(server->Start().ok());

  std::unique_ptr<FleetClient> client = MakeClient(topology);
  UploadCatalog(*client);
  EXPECT_TRUE(Field(Unwrap(client->Call(CheckLine(0))), "ok")->boolean);
  const uint64_t dials_before = client->stats().dials;

  // Kill the server and bring a fresh one up on the same port: the pooled
  // connection is now dead. The next call must evict it, redial, replay the
  // catalog onto the fresh session, and resend — invisibly to the caller.
  server->Stop();
  server = make_server();
  ASSERT_TRUE(server->Start().ok());

  JsonValue response = Unwrap(client->Call(CheckLine(1)), "resend after redial");
  EXPECT_TRUE(Field(response, "ok")->boolean);
  EXPECT_EQ(Field(response, "verdict")->string, "equivalent");

  FleetClient::Stats stats = client->stats();
  EXPECT_GE(stats.pool_evictions, 1u);
  EXPECT_GT(stats.dials, dials_before);
  EXPECT_GE(stats.catalog_replays, 1u);
  server->Stop();
}

TEST(FleetPool, CatalogBroadcastReachesEveryShardSession) {
  TestFleet fleet = TestFleet::Start(3);
  std::unique_ptr<FleetClient> client = MakeClient(fleet.topology);
  UploadCatalog(*client);
  // Every shard can serve a check from a pooled connection: the catalog was
  // broadcast and replays onto whatever connection each call checks out.
  for (int v = 0; v < 4; ++v) {
    JsonValue response = Unwrap(client->Call(CheckLine(v)));
    EXPECT_TRUE(Field(response, "ok")->boolean);
  }
  EXPECT_GE(client->stats().broadcasts, 1u);
  // A deterministic catalog failure is not retried into the log: a bad dep
  // fails the broadcast but later checks still replay cleanly.
  JsonValue bad = Unwrap(client->Call(
      JsonObject().Str("cmd", "dep").Str("text", "not a dependency").Build()));
  EXPECT_FALSE(Field(bad, "ok")->boolean);
  EXPECT_TRUE(Field(Unwrap(client->Call(CheckLine(0))), "ok")->boolean);
  fleet.Stop();
}

}  // namespace
}  // namespace service
}  // namespace sqleq
