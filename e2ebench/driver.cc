// The sqleqd end-to-end benchmark driver (README.md). One invocation runs
// one workload:
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --sqleqd PATH --work-dir DIR
//
// It launches real sqleqd processes, uploads the catalog over the wire,
// runs the warm-up pass (all of that is set-up, repeated kSetups times and
// reported as a median), drives the timed closed-loop phase from client
// threads of this one process in windows with a machine-speed probe
// between them, stops the daemons, checks every response
// against the oracle, and prints a report whose last line is the JSON
// result. --trace 1 instead reports the per-layer metrics: alternating
// traced and untraced slices against the daemons, then the in-process
// replay.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "corpus.h"
#include "daemon.h"
#include "equivalence/engine.h"
#include "harness.h"
#include "ir/parser.h"
#include "service/connection.h"
#include "service/fleet_client.h"
#include "service/protocol.h"
#include "service/session.h"
#include "spans.h"

namespace e2ebench {

namespace service = sqleq::service;
using sqleq::JsonValue;
using sqleq::Result;
using sqleq::Status;

service::RequestSpec SpecFor(const Item& item) {
  service::RequestSpec spec(item.cmd);
  if (item.cmd == "check") {
    spec.Str("q1", item.q1).Str("q2", item.q2);
  } else {
    spec.Str("query", item.q1);
  }
  spec.Str("semantics", service::SemanticsWireName(item.semantics));
  return spec;
}

namespace {

/// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// The timed phase runs in windows of this length, with a machine-speed
/// probe between each two (README.md, "Machine-speed scaling").
constexpr double kWindowS = 0.5;
/// Probe threads: one per core of the 4-core machine.
constexpr int kProbeThreads = 4;
/// The probe's duration on the reference machine state that scaled times
/// are expressed in.
constexpr double kRefProbeUs = 800.0;
/// Requests per p99 block: 10 samples lie beyond each block's p99.
constexpr size_t kP99Block = 1000;

/// A fixed piece of work that runs no sqleq code: mint, index and sort
/// 2^12 pseudo-random keys. How long it takes says how fast the shared
/// machine is running at the moment.
uint64_t ProbeWork() {
  std::vector<uint64_t> keys(1u << 12);
  uint64_t x = 0;
  for (uint64_t& k : keys) {
    uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    k = z ^ (z >> 31);
  }
  std::unordered_map<uint64_t, uint64_t> index;
  for (size_t i = 0; i < keys.size(); ++i) index.emplace(keys[i], i);
  std::sort(keys.begin(), keys.end());
  uint64_t sum = 0;
  for (uint64_t k : keys) sum += index.at(k);
  return sum;
}

/// Median duration in us of ProbeWork on kProbeThreads threads at once.
/// Called only while no request is in flight, so the daemons are idle.
double ProbeUs() {
  std::vector<double> us(kProbeThreads);
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kProbeThreads; ++t) {
    threads.emplace_back([&us, &sink, t] {
      const uint64_t start = NowNs();
      sink += ProbeWork();
      us[t] = static_cast<double>(NowNs() - start) / 1e3;
    });
  }
  for (std::thread& t : threads) t.join();
  return Quantile(us, 0.5);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sqleqd;
  std::string work_dir;
};

using Counters = std::map<std::string, double>;

/// The launched daemons and the client side connected to them.
struct Deployment {
  std::vector<std::unique_ptr<Daemon>> daemons;
  std::vector<std::string> memo_dirs;
  /// Single node: one connection per client thread.
  std::vector<std::unique_ptr<service::Connection>> conns;
  /// Fleet: one pooled client shared by the client threads.
  std::unique_ptr<service::FleetClient> fleet;

  void Stop() {
    conns.clear();
    if (fleet != nullptr) fleet->Close();
    fleet.reset();
    for (std::unique_ptr<Daemon>& d : daemons) d->Stop();
    daemons.clear();
    for (const std::string& dir : memo_dirs) std::filesystem::remove_all(dir);
    memo_dirs.clear();
  }
};

service::RetryPolicy ClientPolicy() {
  service::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.connect_timeout = std::chrono::milliseconds(5000);
  policy.request_timeout = std::chrono::milliseconds(120000);
  return policy;
}

Status ExpectOk(const Result<JsonValue>& response, const std::string& what) {
  if (!response.ok()) return response.status();
  const JsonValue* ok = response->Find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool || !ok->boolean) {
    return Status::Internal(what + " was refused by sqleqd");
  }
  return Status::OK();
}

/// Launches the workload's daemons, connects the clients and uploads the
/// catalog on every connection.
Result<std::unique_ptr<Deployment>> Deploy(const Corpus& c, const Options& o,
                                           const std::string& run_dir, int rep) {
  auto d = std::make_unique<Deployment>();
  std::vector<int> ports(c.shards, 0);
  std::string spec;
  if (c.fleet) {
    for (size_t i = 0; i < c.shards; ++i) {
      SQLEQ_ASSIGN_OR_RETURN(ports[i], FreeLoopbackPort());
      if (i > 0) spec += ",";
      spec += "s" + std::to_string(i) + "=127.0.0.1:" + std::to_string(ports[i]);
    }
  }
  for (size_t i = 0; i < c.shards; ++i) {
    std::vector<std::string> args = {"--port", std::to_string(ports[i]),
                                     "--workers", std::to_string(c.workers_per_shard),
                                     "--memo-bytes", std::to_string(c.memo_bytes),
                                     "--engine-threads", std::to_string(c.engine_threads)};
    if (c.max_candidates > 0) {
      args.push_back("--max-candidates");
      args.push_back(std::to_string(c.max_candidates));
    }
    if (c.disk_tier) {
      std::string dir = run_dir + "/memo-" + std::to_string(rep) + "-" + std::to_string(i);
      d->memo_dirs.push_back(dir);
      args.push_back("--memo-dir");
      args.push_back(dir);
    }
    if (c.fleet) {
      args.insert(args.end(), {"--fleet", spec, "--shard-name", "s" + std::to_string(i)});
    }
    SQLEQ_ASSIGN_OR_RETURN(
        std::unique_ptr<Daemon> daemon,
        Daemon::Launch(o.sqleqd, std::move(args),
                       run_dir + "/port-" + std::to_string(rep) + "-" + std::to_string(i),
                       run_dir + "/sqleqd.log"));
    d->daemons.push_back(std::move(daemon));
  }
  service::RequestSpec ddl("ddl");
  ddl.Str("script", c.ddl);
  if (c.fleet) {
    service::FleetClientOptions options;
    SQLEQ_ASSIGN_OR_RETURN(options.shards, service::ParseFleetSpec(spec));
    options.retry = ClientPolicy();
    options.pool_size_per_shard = c.clients;
    SQLEQ_ASSIGN_OR_RETURN(d->fleet, service::FleetClient::Create(std::move(options)));
    SQLEQ_RETURN_IF_ERROR(ExpectOk(d->fleet->Call(ddl), "ddl"));
  } else {
    SQLEQ_ASSIGN_OR_RETURN(std::string line, service::EncodeRequest(ddl));
    for (size_t i = 0; i < c.clients; ++i) {
      SQLEQ_ASSIGN_OR_RETURN(service::Connection conn,
                             service::Connection::Connect(
                                 "127.0.0.1", d->daemons[0]->port(), ClientPolicy()));
      SQLEQ_RETURN_IF_ERROR(ExpectOk(conn.Call(line), "ddl"));
      d->conns.push_back(std::make_unique<service::Connection>(std::move(conn)));
    }
  }
  return d;
}

/// Sends one request and decodes its response, timing both.
Record Issue(Deployment& d, size_t client, const Item& item, uint32_t index, uint64_t rid,
             SpanLog* log, bool keep_raw, Counters* counters) {
  Record rec;
  rec.item = index;
  std::optional<service::DecodedResponse> response;
  std::string raw;
  const uint64_t start = NowNs();
  {
    ScopedSpan request(log, "client.request", rid);
    if (d.fleet != nullptr) {
      ScopedSpan span(log, "client.fleet_call", rid);
      Result<JsonValue> body = d.fleet->Call(SpecFor(item), &raw);
      if (body.ok()) response = service::DecodeResponseObject(*std::move(body));
    } else {
      service::Connection& conn = *d.conns[client];
      Result<std::string> line = Status::Internal("unset");
      {
        ScopedSpan span(log, "client.encode", rid);
        line = service::EncodeRequest(SpecFor(item));
      }
      Result<std::optional<std::string>> got = Status::Internal("not sent");
      if (line.ok()) {
        ScopedSpan span(log, "client.wire", rid);
        if (conn.Send(*line).ok()) got = conn.ReadLine();
      }
      if (got.ok() && got->has_value()) {
        raw = **std::move(got);
        ScopedSpan span(log, "client.decode", rid);
        Result<service::DecodedResponse> decoded = service::DecodeResponse(raw);
        if (decoded.ok()) response = *std::move(decoded);
      }
    }
    if (!response.has_value()) {
      rec.outcome = Record::Outcome::kError;
    } else if (!response->ok) {
      rec.outcome = response->overloaded || response->draining ? Record::Outcome::kShed
                                                               : Record::Outcome::kError;
    } else if (service::OptionalBool(response->body, "degraded", false)) {
      rec.outcome = Record::Outcome::kShed;
    } else if (item.cmd == "check") {
      rec.verdict = service::OptionalString(response->body, "verdict").value_or("");
      if (rec.verdict == "unknown") rec.outcome = Record::Outcome::kUnknown;
    } else {
      if (!service::OptionalBool(response->body, "complete", false)) {
        rec.outcome = Record::Outcome::kIncomplete;
      }
      if (const JsonValue* list = response->body.Find("reformulations");
          list != nullptr && list->is_array()) {
        for (const JsonValue& r : list->array) rec.rewrites.push_back(r.string);
      }
    }
  }
  rec.end_ns = NowNs();
  rec.latency_ns = rec.end_ns - start;
  if (response.has_value()) {
    if (const JsonValue* metrics = response->body.Find("metrics");
        metrics != nullptr && metrics->is_object()) {
      for (const auto& [name, value] : metrics->object) (*counters)[name] += value.number;
    }
    for (const char* field : {"candidates", "cache_hits", "cache_misses"}) {
      if (std::optional<double> v = service::OptionalNumber(response->body, field)) {
        (*counters)[std::string("response.") + field] += *v;
      }
    }
  }
  if (keep_raw) rec.raw = std::move(raw);
  return rec;
}

struct Phase {
  std::vector<Record> records;  ///< in send order
  Counters counters;
  double elapsed_s = 0.0;
  bool stream_exhausted = false;
};

/// Closed loop: each client thread sends its next request only after the
/// previous response is decoded. Positions come from a shared cursor over
/// `order`; `seconds` <= 0 runs through the rest of `order` once. The phase
/// also ends at position `stop_at`, which is left for the next phase.
Phase RunPhase(Deployment& d, const Corpus& c, const std::vector<uint32_t>& order,
               size_t* cursor, double seconds, bool keep_raw,
               std::vector<std::unique_ptr<SpanLog>>* logs, size_t stop_at = SIZE_MAX) {
  const size_t limit = std::min(stop_at, order.size());
  std::atomic<size_t> next{*cursor};
  const uint64_t start = NowNs();
  const uint64_t deadline =
      seconds > 0 ? start + static_cast<uint64_t>(seconds * 1e9) : UINT64_MAX;
  struct PerThread {
    std::vector<std::pair<uint64_t, Record>> records;
    Counters counters;
  };
  std::vector<PerThread> per(c.clients);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < c.clients; ++t) {
    threads.emplace_back([&, t] {
      SpanLog* log = logs == nullptr ? nullptr : (*logs)[t].get();
      while (NowNs() < deadline) {
        const size_t i = next.fetch_add(1);
        if (i >= limit) break;
        per[t].records.emplace_back(
            i, Issue(d, t, c.items[order[i]], order[i], i, log, keep_raw,
                     &per[t].counters));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  phase.stream_exhausted = seconds > 0 && next.load() >= order.size();
  *cursor = std::min(next.load(), limit);
  std::vector<std::pair<uint64_t, Record>> merged;
  for (PerThread& p : per) {
    for (auto& r : p.records) merged.push_back(std::move(r));
    for (const auto& [name, value] : p.counters) phase.counters[name] += value;
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& r : merged) phase.records.push_back(std::move(r.second));
  return phase;
}

bool Failed(const Record& r) { return r.outcome != Record::Outcome::kOk; }

/// CPU ticks the host stole from this machine so far, and all its CPU
/// ticks (/proc/stat).
std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// One window of the timed phase.
struct Window {
  size_t first = 0, end = 0;  ///< its records, as positions in Phase::records
  double elapsed_s = 0.0;
  double cpu_s = 0.0;  ///< daemon CPU time, summed over daemons
  double probe_before_us = 0.0, probe_after_us = 0.0;
  double steal = 0.0;  ///< share of the machine's CPU time the host stole
  /// Turns a time measured in this window into reference-machine time.
  double Scale() const { return kRefProbeUs / ((probe_before_us + probe_after_us) / 2); }
};

// ---- stats verb ----

/// One stats response per daemon.
std::vector<JsonValue> StatsOf(const Deployment& d) {
  std::vector<JsonValue> out;
  Result<std::string> line = service::EncodeRequest(service::RequestSpec("stats"));
  for (const std::unique_ptr<Daemon>& daemon : d.daemons) {
    Result<service::Connection> conn =
        service::Connection::Connect("127.0.0.1", daemon->port(), ClientPolicy());
    Result<JsonValue> stats = conn.ok() && line.ok() ? conn->Call(*line)
                                                     : Result<JsonValue>(Status::Internal(""));
    out.push_back(stats.ok() ? *std::move(stats) : JsonValue{});
  }
  return out;
}

/// Per-bucket sample counts of a power-of-two histogram in a stats
/// response's Prometheus text, keyed by bucket upper bound.
std::map<double, double> BucketCounts(const JsonValue& stats, const std::string& metric) {
  std::string prefix = "sqleq_";
  for (char ch : metric) prefix += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
  prefix += "_bucket{le=\"";
  std::map<double, double> cumulative;
  const std::string text = service::OptionalString(stats, "prometheus").value_or("");
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    pos += prefix.size();
    size_t quote = text.find('"', pos);
    size_t space = text.find(' ', quote);
    size_t eol = text.find('\n', space);
    const std::string le = text.substr(pos, quote - pos);
    if (le != "+Inf") {
      cumulative[std::stod(le)] = std::stod(text.substr(space + 1, eol - space - 1));
    }
  }
  std::map<double, double> counts;
  double previous = 0.0;
  for (const auto& [le, cum] : cumulative) {
    counts[le] = cum - previous;
    previous = cum;
  }
  return counts;
}

/// Quantile of the samples a histogram gained between two stats snapshots,
/// summed over daemons, interpolated log-linearly inside the power-of-two
/// bucket (so it resolves no better than the bucket's factor of 2).
double HistogramQuantile(const std::vector<JsonValue>& before,
                         const std::vector<JsonValue>& after, const std::string& metric,
                         double q) {
  std::map<double, double> delta;
  for (size_t i = 0; i < after.size(); ++i) {
    for (const auto& [le, n] : BucketCounts(after[i], metric)) delta[le] += n;
    if (i < before.size()) {
      for (const auto& [le, n] : BucketCounts(before[i], metric)) delta[le] -= n;
    }
  }
  double total = 0.0;
  for (const auto& [le, n] : delta) total += n;
  if (total <= 0) return 0.0;
  const double target = q * total;
  double seen = 0.0;
  for (const auto& [le, n] : delta) {
    if (n > 0 && seen + n >= target) {
      return le / 2 * std::exp2((target - seen) / n);
    }
    seen += n;
  }
  return delta.rbegin()->first;
}

double DiskBytes(const std::vector<JsonValue>& stats) {
  double total = 0.0;
  for (const JsonValue& s : stats) {
    if (const JsonValue* disk = s.Find("disk")) {
      total += service::OptionalNumber(*disk, "bytes").value_or(0.0);
    }
  }
  return total;
}

// ---- oracle ----

struct OracleReport {
  size_t checked = 0;  ///< records judged
  size_t engine_calls = 0;
  size_t disagreements = 0;
  std::vector<std::string> examples;
};

/// Judges every record (README.md, "Oracle"). Engine verdicts are computed
/// once per distinct item, untimed, on a few threads of an in-process
/// engine whose session sees exactly the catalog the daemons saw.
OracleReport RunOracle(const Corpus& c, const std::vector<const Record*>& records) {
  OracleReport report;
  service::Session session;
  if (Status s = session.ApplyDdl(c.ddl); !s.ok()) {
    report.disagreements = records.size();
    report.examples.push_back("catalog: " + s.ToString());
    return report;
  }
  std::set<uint32_t> engine_items;
  for (const Record* r : records) {
    const Item& item = c.items[r->item];
    if (item.expect == Expect::kEngine || item.expect == Expect::kReformulation) {
      engine_items.insert(r->item);
    }
  }
  std::vector<uint32_t> todo(engine_items.begin(), engine_items.end());
  sqleq::EquivalenceEngine engine;
  std::map<uint32_t, std::string> verdicts;
  std::map<std::pair<uint32_t, std::string>, bool> rewrite_ok;
  std::mutex mu;
  std::atomic<size_t> next{0};
  auto equivalent = [&](const sqleq::ConjunctiveQuery& a, const sqleq::ConjunctiveQuery& b,
                        sqleq::Semantics s) -> std::string {
    sqleq::EquivRequest request(s, session.catalog().sigma, session.catalog().schema);
    Result<sqleq::EquivVerdict> v = engine.Equivalent(a, b, request);
    return v.ok() ? sqleq::VerdictToString(v->verdict) : "error: " + v.status().ToString();
  };
  // Distinct rewrites per reformulate item, gathered up front.
  std::map<uint32_t, std::set<std::string>> rewrites;
  for (const Record* r : records) {
    for (const std::string& w : r->rewrites) rewrites[r->item].insert(w);
  }
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < todo.size(); i = next.fetch_add(1)) {
      const uint32_t id = todo[i];
      const Item& item = c.items[id];
      Result<sqleq::ConjunctiveQuery> q1 = session.ResolveQuery(item.q1, "Q1");
      if (item.expect == Expect::kEngine) {
        Result<sqleq::ConjunctiveQuery> q2 = session.ResolveQuery(item.q2, "Q2");
        std::string v = q1.ok() && q2.ok() ? equivalent(*q1, *q2, item.semantics)
                                           : "error: untranslatable";
        std::lock_guard<std::mutex> lock(mu);
        verdicts[id] = v;
        continue;
      }
      auto listed = rewrites.find(id);  // read-only: threads share the map
      if (listed == rewrites.end()) continue;
      for (const std::string& w : listed->second) {
        Result<sqleq::ConjunctiveQuery> rw = sqleq::ParseQuery(w);
        bool ok = q1.ok() && rw.ok() && equivalent(*q1, *rw, item.semantics) == "equivalent";
        std::lock_guard<std::mutex> lock(mu);
        rewrite_ok[{id, w}] = ok;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  report.engine_calls = verdicts.size() + rewrite_ok.size();

  for (const Record* r : records) {
    if (Failed(*r)) continue;  // counted as failed already
    ++report.checked;
    const Item& item = c.items[r->item];
    std::string expected;
    bool agree = true;
    switch (item.expect) {
      case Expect::kEquivalentByConstruction:
      case Expect::kDeepRenaming:
        expected = "equivalent";
        agree = r->verdict == expected;
        break;
      case Expect::kEngine:
        expected = verdicts[r->item];
        agree = r->verdict == expected;
        break;
      case Expect::kReformulation:
        expected = "every rewrite equivalent";
        for (const std::string& w : r->rewrites) agree = agree && rewrite_ok[{r->item, w}];
        agree = agree && !r->rewrites.empty();
        break;
    }
    if (!agree) {
      ++report.disagreements;
      if (report.examples.size() < 5) {
        report.examples.push_back(item.cmd + " " + item.q1 + " | " + item.q2 + " [" +
                                  service::SemanticsWireName(item.semantics) +
                                  "]: got '" + r->verdict + "', expected '" + expected +
                                  "'");
      }
    }
  }
  return report;
}

// ---- reporting ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Latencies of the records whose traced flag is `traced` (all records of
/// an untraced run are untraced).
std::vector<double> LatenciesUs(const std::vector<Record>& records, bool traced) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const Record& r : records) {
    if (r.traced == traced) out.push_back(static_cast<double>(r.latency_ns) / 1e3);
  }
  return out;
}

/// Property shares of the requests actually sent (README.md, "Seeds").
std::map<std::string, double> Shares(const Corpus& c, const std::vector<uint32_t>& warmup_sent,
                                     const Phase& phase) {
  std::set<uint32_t> seen(warmup_sent.begin(), warmup_sent.end());
  double repeat = 0, deep = 0, cross = 0;
  for (const Record& r : phase.records) {
    if (!seen.insert(r.item).second) ++repeat;
    deep += c.items[r.item].deep;
    cross += c.items[r.item].cross_class;
  }
  const double n = static_cast<double>(std::max<size_t>(1, phase.records.size()));
  auto counter = [&phase](const char* name) {
    auto it = phase.counters.find(name);
    return it == phase.counters.end() ? 0.0 : it->second;
  };
  return {
      {"share.mem_resident",
       Ratio(counter("memo.hits"), counter("memo.hits") + counter("memo.misses"))},
      {"share.deep", deep / n},
      {"share.repeat", repeat / n},
      {"share.cross_class", cross / n},
  };
}

int Fail(const std::string& message) {
  std::cerr << "e2ebench: " << message << "\n";
  return 1;
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("flag " + arg + " needs a value");
    std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--sqleqd") {
      o.sqleqd = value;
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  if (o.workload.empty() || o.sqleqd.empty() || o.work_dir.empty() || o.seconds <= 0) {
    return Status::InvalidArgument(
        "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 "
        "--sqleqd PATH --work-dir DIR");
  }
  return o;
}

int Main(int argc, char** argv) {
  Result<Options> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const Options o = *parsed;

  Result<Corpus> made = MakeCorpus(o.workload, o.seed, o.seconds);
  if (!made.ok()) return Fail(made.status().ToString());
  const Corpus& c = *made;
  const std::string run_dir = o.work_dir + "/run-" + std::to_string(getpid());
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);

  std::cout << "workload " << c.workload << " seed " << o.seed << ": " << c.items.size()
            << " distinct requests, stream " << c.stream.size() << ", warm-up "
            << c.warmup.size() << "\n"
            << "deployment: " << c.shards << " sqleqd x --workers " << c.workers_per_shard
            << " --engine-threads " << c.engine_threads << ", " << c.clients
            << (c.fleet ? " FleetClient threads" : " client connections")
            << " (closed loop), --memo-bytes " << c.memo_bytes
            << (c.disk_tier ? ", --memo-dir (no fsync)" : "")
            << (c.max_candidates > 0 ? ", --max-candidates " + std::to_string(c.max_candidates)
                                     : std::string())
            << "\n";
  if (c.working_set_bytes > 0) {
    std::cout << "reuse-window working set " << c.working_set_bytes
              << " B per context; memory tier is 1/8 of it\n";
  }

  // ---- set-up, repeated; the last deployment is measured ----
  std::vector<double> setup_s, setup_raw_s;
  std::unique_ptr<Deployment> d;
  std::vector<Record> warmup_records;
  const int setups = o.trace ? 1 : kSetups;
  double probe_us = ProbeUs();
  for (int rep = 0; rep < setups; ++rep) {
    if (d != nullptr) d->Stop();
    const double probe_before = probe_us;
    const uint64_t start = NowNs();
    Result<std::unique_ptr<Deployment>> deployed = Deploy(c, o, run_dir, rep);
    if (!deployed.ok()) return Fail("set-up: " + deployed.status().ToString());
    d = std::move(*deployed);
    size_t cursor = 0;
    Phase warm = RunPhase(*d, c, c.warmup, &cursor, 0, false, nullptr);
    const double took = static_cast<double>(NowNs() - start) / 1e9;
    probe_us = ProbeUs();
    setup_raw_s.push_back(took);
    setup_s.push_back(took * kRefProbeUs / ((probe_before + probe_us) / 2));
    warmup_records = std::move(warm.records);
  }

  // ---- timed phases ----
  size_t cursor = 0;
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (size_t t = 0; t < c.clients; ++t) logs.push_back(std::make_unique<SpanLog>(t + 1));
  std::vector<double> cpu_before;
  for (const auto& daemon : d->daemons) cpu_before.push_back(daemon->CpuSeconds());
  std::vector<JsonValue> stats_before = StatsOf(*d);
  const service::FleetClient::Stats fleet_before =
      d->fleet != nullptr ? d->fleet->stats() : service::FleetClient::Stats{};
  // The timed phase runs in windows, with the machine-speed probe between
  // each two while no request is in flight. A traced run alternates traced
  // and untraced windows over the same stream, so both see the same request
  // mix and the difference of their medians is the tracing overhead.
  Phase phase;
  std::vector<Window> windows;
  double rss_at_count = -1.0;  // summed VmHWM once rss_after_requests are done
  for (int k = 0; phase.elapsed_s < o.seconds && !phase.stream_exhausted; ++k) {
    const bool traced = o.trace && k % 2 == 0;
    Window w;
    w.probe_before_us = probe_us;
    w.first = phase.records.size();
    const std::pair<double, double> steal_start = StealTicks();
    double cpu_start = 0.0;
    for (const auto& daemon : d->daemons) cpu_start += daemon->CpuSeconds();
    // The window that reaches rss_after_requests stops there, so the peak
    // RSS is read after exactly that many requests.
    Phase slice = RunPhase(*d, c, c.stream, &cursor, kWindowS, traced, traced ? &logs : nullptr,
                           rss_at_count < 0 ? c.rss_after_requests : SIZE_MAX);
    for (const auto& daemon : d->daemons) w.cpu_s += daemon->CpuSeconds();
    w.cpu_s -= cpu_start;
    for (Record& r : slice.records) {
      r.traced = traced;
      phase.records.push_back(std::move(r));
    }
    for (const auto& [name, value] : slice.counters) phase.counters[name] += value;
    phase.elapsed_s += slice.elapsed_s;
    phase.stream_exhausted = slice.stream_exhausted;
    w.end = phase.records.size();
    w.elapsed_s = slice.elapsed_s;
    if (rss_at_count < 0 && cursor >= c.rss_after_requests) {
      rss_at_count = 0.0;
      for (const auto& daemon : d->daemons) rss_at_count += daemon->PeakRssMiB();
    }
    probe_us = ProbeUs();
    w.probe_after_us = probe_us;
    const std::pair<double, double> steal_end = StealTicks();
    w.steal = Ratio(steal_end.first - steal_start.first, steal_end.second - steal_start.second);
    windows.push_back(w);
  }
  std::vector<JsonValue> stats_after = StatsOf(*d);
  const service::FleetClient::Stats fleet_after =
      d->fleet != nullptr ? d->fleet->stats() : service::FleetClient::Stats{};
  double cpu_s = 0.0, rss_mib = 0.0;
  for (size_t i = 0; i < d->daemons.size(); ++i) {
    cpu_s += d->daemons[i]->CpuSeconds() - cpu_before[i];
    rss_mib += d->daemons[i]->PeakRssMiB();
  }
  // sqleqd's footprint grows with requests served, so the peak is taken at
  // a fixed request count, not at a time that outside load would move.
  if (rss_at_count >= 0) rss_mib = rss_at_count;
  std::vector<double> peer_fetch_us;
  if (o.trace && c.fleet) {
    // memo.peer.fetch_us: memo_fetch round trips against one shard.
    Result<service::Connection> conn = service::Connection::Connect(
        "127.0.0.1", d->daemons[0]->port(), ClientPolicy());
    service::RequestSpec hello("hello");
    hello.Int("max_protocol", 2);
    service::RequestSpec fetch("memo_fetch");
    fetch.Str("key", "e2ebench-absent-key");
    Result<std::string> hello_line = service::EncodeRequest(hello);
    Result<std::string> fetch_line = service::EncodeRequest(fetch);
    if (conn.ok() && hello_line.ok() && fetch_line.ok() && conn->Call(*hello_line).ok()) {
      for (int i = 0; i < 200; ++i) {
        const uint64_t start = NowNs();
        if (!conn->Call(*fetch_line).ok()) break;
        peer_fetch_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      }
    }
  }
  d->Stop();

  // ---- oracle ----
  std::vector<const Record*> judged;
  for (const Record& r : warmup_records) judged.push_back(&r);
  for (const Record& r : phase.records) judged.push_back(&r);
  const OracleReport oracle = RunOracle(c, judged);

  const size_t attempted = phase.records.size();
  size_t failed = 0, shed = 0, unknown = 0, checks = 0;
  for (const Record& r : phase.records) {
    failed += Failed(r);
    shed += r.outcome == Record::Outcome::kShed;
    unknown += r.outcome == Record::Outcome::kUnknown;
    checks += c.items[r.item].cmd == "check";
  }
  size_t warmup_failed = 0;
  for (const Record& r : warmup_records) warmup_failed += Failed(r);
  failed += oracle.disagreements;
  const bool correct = oracle.disagreements == 0 && warmup_failed == 0;
  const double completed = static_cast<double>(attempted - std::min(attempted, failed));
  // In a traced run the latency figures are the traced slices'.
  const std::vector<double> latencies = LatenciesUs(phase.records, o.trace);
  const double p50 = Quantile(latencies, 0.5);
  const double p99 = Quantile(latencies, 0.99);

  std::cout << "timed: " << attempted << " requests in " << phase.elapsed_s << " s, "
            << static_cast<size_t>(std::floor(attempted * 0.01))
            << " samples beyond p99, failed " << failed << " (shed " << shed
            << ", unknown " << unknown << "), oracle judged " << oracle.checked
            << " responses with " << oracle.engine_calls << " engine checks, "
            << oracle.disagreements << " disagreements\n";
  for (const std::string& e : oracle.examples) std::cout << "  disagreement: " << e << "\n";
  if (phase.stream_exhausted) std::cout << "warning: timed stream exhausted early\n";
  if (warmup_failed > 0) std::cout << "warning: " << warmup_failed << " warm-up requests failed\n";
  const std::map<std::string, double> shares = Shares(c, c.warmup, phase);
  for (const auto& [name, value] : shares) std::cout << name << " = " << value << "\n";

  std::vector<Metric> metrics;
  if (!o.trace) {
    // Every time is scaled to the reference machine by the probes around
    // its window (README.md, "Machine-speed scaling"). Throughput and p99
    // are medians over windows and blocks, so a spell of stolen or
    // descheduled time, which the probe does not see, moves a few windows
    // rather than the metric.
    std::vector<double> scaled_latency, probes, raw_rates, rates;
    double scaled_cpu_s = 0.0, steal = 0.0;
    for (const Window& w : windows) {
      const double scale = w.Scale();
      double done = 0.0;
      for (size_t i = w.first; i < w.end; ++i) {
        scaled_latency.push_back(static_cast<double>(phase.records[i].latency_ns) / 1e3 * scale);
        done += !Failed(phase.records[i]);
      }
      scaled_cpu_s += w.cpu_s * scale;
      probes.push_back(w.probe_after_us);
      raw_rates.push_back(done / w.elapsed_s);
      rates.push_back(done / (w.elapsed_s * scale));
      steal += w.steal / static_cast<double>(windows.size());
    }
    std::vector<double> block_p99s;
    for (size_t b = 0; (b + 1) * kP99Block <= scaled_latency.size(); ++b) {
      block_p99s.push_back(Quantile(std::vector<double>(scaled_latency.begin() + b * kP99Block,
                                                        scaled_latency.begin() + (b + 1) * kP99Block),
                                    0.99));
    }
    std::cout << "windows: " << windows.size() << " x " << kWindowS << " s, median probe "
              << Quantile(probes, 0.5) << " us (reference " << kRefProbeUs << " us), "
              << steal * 100 << "% of CPU time stolen by the host; unscaled: "
              << completed / phase.elapsed_s << " req/s, CPU " << Ratio(cpu_s * 1e6, completed)
              << " us/req, p50 " << p50 << " us, p99 " << p99 << " us, median set-up "
              << Quantile(setup_raw_s, 0.5) << " s; req/s per window:";
    for (double rate : raw_rates) std::cout << " " << rate;
    std::cout << "\np99 over " << block_p99s.size() << " blocks of " << kP99Block
              << " requests, " << kP99Block / 100 << " samples beyond each\n";
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"p50_us", Quantile(scaled_latency, 0.5), "us"},
        {"p99_us",
         block_p99s.size() < 3 ? Quantile(scaled_latency, 0.99) : Quantile(block_p99s, 0.5),
         "us"},
        {"throughput_rps", Quantile(rates, 0.5), "req/s"},
        {"ok_frac", Ratio(completed, static_cast<double>(attempted)), "ratio"},
        {"server_cpu_us_per_req", Ratio(scaled_cpu_s * 1e6, completed), "us"},
        {"server_peak_rss_mb", rss_mib, "MiB"},
    };
    for (const Metric& m : metrics) {
      std::cout << m.name << " = " << FormatNumber(m.value) << " " << m.unit << "\n";
    }
    std::filesystem::remove_all(run_dir);
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // ---- traced: in-process replay and per-layer metrics ----
  SpanLog replay_log(100);
  ReplayInput input;
  input.corpus = &c;
  service::Session session;
  (void)session.ApplyDdl(c.ddl);
  input.catalog = &session.catalog();
  for (const Record& r : phase.records) input.requests.push_back(&r);
  if (c.disk_tier) input.store_dir = run_dir + "/replay-memo";
  input.budget_s = std::max(2.0, o.seconds * 0.75);
  const ReplayResult replay = Replay(input, &replay_log);

  const Counters& n = phase.counters;
  auto count = [&n](const std::string& name) {
    auto it = n.find(name);
    return it == n.end() ? 0.0 : it->second;
  };
  const double requests = static_cast<double>(std::max<size_t>(1, attempted));
  const double server_p50 = HistogramQuantile(stats_before, stats_after, "service.request_us", 0.5);
  const double untraced_p50 = Quantile(LatenciesUs(phase.records, false), 0.5);
  std::vector<double> all_latencies = LatenciesUs(phase.records, false);
  for (double v : latencies) all_latencies.push_back(v);
  auto r = [&replay](const char* name) {
    auto it = replay.metrics.find(name);
    return it == replay.metrics.end() ? 0.0 : it->second;
  };
  const double memo_lookups = count("memo.hits") + count("memo.misses");
  const double peer_lookups = count("memo.peer.hits") + count("memo.peer.misses");
  const double bc_lookups = count("response.cache_hits") + count("response.cache_misses");
  const double bc_pruned = count("backchase.pruned.dominance") + count("backchase.pruned.failure");
  const double fetch_us = Quantile(peer_fetch_us, 0.5);
  const double candidates = count("response.candidates");
  const double key_us = r("key.canonical_us");
  // Backchase memo ledger: a hit or a miss both pay the candidate's key; a
  // miss also chases the candidate, at the backchase time left over after
  // the keys, spread over the misses.
  const double bc_hits_per_req = count("response.cache_hits") / requests;
  const double bc_miss_per_req = count("response.cache_misses") / requests;
  const double bc_miss_us =
      Ratio(std::max(0.0, r("candb.us") - r("candb.chase_us") -
                              (bc_hits_per_req + bc_miss_per_req) * key_us),
            bc_miss_per_req);
  const double redirects =
      static_cast<double>(fleet_after.redirects_followed - fleet_before.redirects_followed);
  const double dials = static_cast<double>(fleet_after.dials - fleet_before.dials);
  const double reuses = static_cast<double>(fleet_after.pool_reuses - fleet_before.pool_reuses);

  metrics = {
      {"service.server_us.p50", server_p50, "us"},
      // The server histogram covers traced and untraced slices alike.
      {"service.wire_us.p50", Quantile(all_latencies, 0.5) - server_p50, "us"},
      {"service.queue_wait_us.p50",
       HistogramQuantile(stats_before, stats_after, "pool.queue_wait_us", 0.5), "us"},
      {"service.queue_wait_us.p99",
       HistogramQuantile(stats_before, stats_after, "pool.queue_wait_us", 0.99), "us"},
      {"service.shed_frac", static_cast<double>(shed) / requests, "ratio"},
      {"failed_frac", static_cast<double>(failed) / requests, "ratio"},
      {"protocol.encode_us", r("protocol.encode_us"), "us"},
      {"protocol.parse_us", r("protocol.parse_us"), "us"},
      {"protocol.decode_us", r("protocol.decode_us"), "us"},
      {"sql.translate_us", r("sql.translate_us"), "us"},
      {"key.canonical_us", key_us, "us"},
      {"memo.mem.hit_ratio", Ratio(count("memo.hits"), memo_lookups), "ratio"},
      {"memo.mem.hit_us", r("memo.mem.hit_us"), "us"},
      {"memo.mem.evictions_per_req", count("memo.evictions") / requests, "count"},
      {"memo.mem.bytes", r("memo.mem.bytes"), "bytes"},
      {"memo.disk.hit_ratio", Ratio(count("memo.disk.hits"), count("memo.misses")), "ratio"},
      {"memo.disk.read_us", r("memo.disk.read_us"), "us"},
      {"memo.disk.write_bytes_per_req",
       (DiskBytes(stats_after) - DiskBytes(stats_before)) / requests, "bytes"},
      {"slice.us", r("slice.us"), "us"},
      {"slice.kept_frac", Ratio(count("slice.kept"), count("slice.kept") + count("slice.pruned")),
       "ratio"},
      {"chase.run_us", r("chase.run_us"), "us"},
      {"chase.deep.run_us", r("chase.deep.run_us"), "us"},
      {"chase.steps_per_req", count("chase.steps") / requests, "count"},
      {"chase.us_per_step", r("chase.us_per_step"), "us"},
      {"chase.useful_probe_ratio",
       Ratio(count("chase.steps"), count("chase.steps") + count("chase.checks.satisfied")),
       "ratio"},
      {"equiv.decide_us", r("equiv.decide_us"), "us"},
      {"equiv.unknown_frac", Ratio(static_cast<double>(unknown), static_cast<double>(checks)),
       "ratio"},
      {"candb.us", r("candb.us"), "us"},
      {"candb.chase_us", r("candb.chase_us"), "us"},
      {"backchase.candidates_per_req", candidates / requests, "count"},
      {"backchase.accept_ratio", Ratio(count("backchase.accepted"), count("backchase.candidates")),
       "ratio"},
      {"backchase.pruned_frac", Ratio(bc_pruned, bc_pruned + count("backchase.candidates")),
       "ratio"},
      {"backchase.memo_hit_ratio", Ratio(count("response.cache_hits"), bc_lookups), "ratio"},
      {"pool.task_us.p50", HistogramQuantile(stats_before, stats_after, "pool.task_us", 0.5),
       "us"},
      {"memo.mem.net_us_per_req", r("memo.mem.net_us_per_req"), "us"},
      {"memo.disk.net_us_per_req", r("memo.disk.net_us_per_req"), "us"},
      {"memo.backchase.net_us_per_req",
       bc_lookups > 0 ? (bc_hits_per_req * (bc_miss_us - key_us) - bc_miss_per_req * key_us)
                      : 0.0,
       "us"},
      {"trace.overhead_frac", Ratio(p50 - untraced_p50, untraced_p50), "ratio"},
  };
  for (const auto& [name, value] : shares) metrics.push_back({name, value, "ratio"});
  if (c.fleet) {
    // fleet-check is not in BENCHMARK.json (README.md, "Workloads"), so its
    // routing and peer-tier metrics are reported only when it is run.
    const std::vector<Metric> fleet = {
        {"routing.signature_us", r("routing.signature_us"), "us"},
        {"routing.redirects_per_req", redirects / requests, "count"},
        {"memo.peer.hit_ratio", Ratio(count("memo.peer.hits"), peer_lookups), "ratio"},
        {"memo.peer.fetch_us", fetch_us, "us"},
        {"client.pool_reuse_ratio", Ratio(reuses, reuses + dials), "ratio"},
        {"memo.peer.net_us_per_req",
         peer_lookups > 0
             ? peer_lookups / requests *
                   (Ratio(count("memo.peer.hits"), peer_lookups) *
                        (r("replay.fresh_chase_us") - fetch_us) -
                    Ratio(count("memo.peer.misses"), peer_lookups) * fetch_us)
             : 0.0,
         "us"},
    };
    metrics.insert(metrics.end(), fleet.begin(), fleet.end());
  }

  // Self time per layer over the replay and the traced client phase.
  std::vector<const SpanLog*> all_logs = {&replay_log};
  for (const auto& log : logs) all_logs.push_back(log.get());
  const std::map<std::string, LayerSamples> client_layers =
      CollectLayers(std::vector<const SpanLog*>(all_logs.begin() + 1, all_logs.end()));
  std::cout << "replayed " << replay.requests << " traced requests in process; self time"
            << " per layer:\n";
  for (const auto* layers : {&replay.layers, &client_layers}) {
    for (const auto& [name, s] : *layers) {
      char line[200];
      std::snprintf(line, sizeof(line), "  %-22s n=%-7zu self p50 %10.2f us  total %10.2f ms\n",
                    name.c_str(), s.self_us.size(), Quantile(s.self_us, 0.5),
                    Sum(s.self_us) / 1e3);
      std::cout << line;
    }
  }
  for (const auto& [name, value] : replay.metrics) {
    if (name.rfind("calib.", 0) == 0) std::cout << name << " = " << value << "\n";
  }
  std::cout << "tracing overhead: traced p50 " << p50 << " us vs untraced p50 " << untraced_p50
            << " us\n";
  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << FormatNumber(m.value) << " " << m.unit << "\n";
  }
  const std::string trace_dir = o.work_dir + "/traces";
  std::filesystem::create_directories(trace_dir);
  const std::string trace_path =
      trace_dir + "/" + c.workload + "-seed" + std::to_string(o.seed) + ".json";
  std::ofstream(trace_path, std::ios::trunc) << ChromeTraceJson(all_logs);
  std::cout << "chrome trace: " << trace_path << "\n";
  std::filesystem::remove_all(run_dir);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
