// Tests for the tier-2 on-disk chase memo (chase/memo_store.h): record
// roundtrips, restart recovery, torn-tail and corruption tolerance, segment
// rotation + compaction under the disk budget, and the deterministic
// memo.disk.{write,read,fsync} fault sites — including short-write
// injection, the in-process model of a crash mid-append.
#include "chase/memo_store.h"

#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "chase/set_chase.h"
#include "equivalence/engine.h"
#include "test_util.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

using ::sqleq::testing::Q;
using ::sqleq::testing::Unwrap;

/// A fresh empty directory under TMPDIR, removed by the harness' tmp
/// cleanup (tests also reopen stores in place, so no eager deletion).
std::string TempDir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/sqleq_memo_store_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* made = ::mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return std::string(made);
}

MemoStoreOptions DirOptions(const std::string& dir) {
  MemoStoreOptions options;
  options.dir = dir;
  return options;
}

std::unique_ptr<MemoStore> MustOpen(MemoStoreOptions options) {
  return Unwrap(MemoStore::Open(std::move(options)), "MemoStore::Open");
}

/// Truncates the file to `keep` bytes (or grows with zeros — not used).
void Truncate(const std::string& path, long keep) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GE(static_cast<long>(data.size()), keep);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), keep);
}

/// The single segment file in `dir` (fails the test unless exactly one).
/// Fresh stores start at seq 1, so the name is memo-00000001.seg — but list
/// the directory rather than bake the numbering in.
std::string OnlySegment(const std::string& dir, MemoStore* store) {
  EXPECT_EQ(store->stats().segments, 1u);
  std::vector<std::string> segs;
  DIR* d = ::opendir(dir.c_str());
  EXPECT_NE(d, nullptr);
  while (struct dirent* ent = ::readdir(d)) {
    std::string name = ent->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".seg") == 0) {
      segs.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  EXPECT_EQ(segs.size(), 1u);
  return segs.empty() ? dir + "/missing.seg" : segs.front();
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | static_cast<unsigned char>(p[i]);
  return v;
}

void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// The payloads of every frame ([u32 length][u32 CRC-32][payload]) of the
/// segment at `path`, in file order.
std::vector<std::string> ReadPayloads(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::vector<std::string> payloads;
  for (size_t off = 0; off + 8 <= data.size();) {
    uint32_t len = LoadU32(data.data() + off);
    payloads.push_back(data.substr(off + 8, len));
    off += 8 + len;
  }
  return payloads;
}

/// Writes `payloads` as one well-framed segment file at `path`.
void WritePayloads(const std::string& path, const std::vector<std::string>& payloads) {
  std::string data;
  for (const std::string& payload : payloads) {
    AppendU32(static_cast<uint32_t>(payload.size()), &data);
    AppendU32(Crc32(payload), &data);
    data += payload;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(MemoStore, PutGetRoundtrip) {
  std::string dir = TempDir();
  std::unique_ptr<MemoStore> store = MustOpen(DirOptions(dir));
  EXPECT_EQ(Unwrap(store->Get("absent")), std::nullopt);
  ASSERT_TRUE(store->Put("k1", "body one").ok());
  ASSERT_TRUE(store->Put("k2", "body two\nwith a second line").ok());
  EXPECT_EQ(Unwrap(store->Get("k1")), std::optional<std::string>("body one"));
  EXPECT_EQ(Unwrap(store->Get("k2")),
            std::optional<std::string>("body two\nwith a second line"));
  MemoStore::Stats stats = store->stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.writes, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_GT(stats.disk_bytes, 0u);
}

TEST(MemoStore, LastWriterWinsAndIdenticalPutIsFree) {
  std::string dir = TempDir();
  std::unique_ptr<MemoStore> store = MustOpen(DirOptions(dir));
  ASSERT_TRUE(store->Put("k", "v1").ok());
  ASSERT_TRUE(store->Put("k", "v2").ok());
  EXPECT_EQ(Unwrap(store->Get("k")), std::optional<std::string>("v2"));
  EXPECT_EQ(store->stats().writes, 2u);
  // A byte-identical re-Put (the eviction-spill backstop path) appends
  // nothing.
  size_t bytes = store->stats().disk_bytes;
  ASSERT_TRUE(store->Put("k", "v2").ok());
  EXPECT_EQ(store->stats().writes, 2u);
  EXPECT_EQ(store->stats().disk_bytes, bytes);
}

TEST(MemoStore, ReopenRecoversEveryRecord) {
  std::string dir = TempDir();
  {
    std::unique_ptr<MemoStore> store = MustOpen(DirOptions(dir));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->Put("key" + std::to_string(i),
                             "value " + std::to_string(i)).ok());
    }
  }
  MetricsRegistry metrics;
  MemoStoreOptions options = DirOptions(dir);
  options.metrics = &metrics;
  std::unique_ptr<MemoStore> store = MustOpen(std::move(options));
  MemoStore::Stats stats = store->stats();
  EXPECT_EQ(stats.entries, 10u);
  EXPECT_EQ(stats.recovered, 10u);
  EXPECT_EQ(stats.corrupt_records, 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Unwrap(store->Get("key" + std::to_string(i))),
              std::optional<std::string>("value " + std::to_string(i)));
  }
  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters[metric::kMemoDiskRecovered], 10u);
}

TEST(MemoStore, TornTailIsSkippedNotFatal) {
  std::string dir = TempDir();
  std::string segment;
  size_t full_bytes = 0;
  {
    std::unique_ptr<MemoStore> store = MustOpen(DirOptions(dir));
    ASSERT_TRUE(store->Put("intact", "intact body").ok());
    ASSERT_TRUE(store->Put("torn", "this record will lose its tail").ok());
    segment = OnlySegment(dir, store.get());
    full_bytes = store->stats().disk_bytes;
  }
  // Tear mid-record: keep the frame header and half the last payload.
  Truncate(segment, static_cast<long>(full_bytes - 10));

  MetricsRegistry metrics;
  MemoStoreOptions options = DirOptions(dir);
  options.metrics = &metrics;
  std::unique_ptr<MemoStore> store = MustOpen(std::move(options));
  EXPECT_EQ(Unwrap(store->Get("intact")),
            std::optional<std::string>("intact body"));
  EXPECT_EQ(Unwrap(store->Get("torn")), std::nullopt);
  MemoStore::Stats stats = store->stats();
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.corrupt_records, 1u);
  EXPECT_EQ(metrics.Snapshot().counters[metric::kMemoDiskCorrupt], 1u);

  // New appends go to a fresh segment — never after a torn tail — and a
  // further reopen sees them.
  ASSERT_TRUE(store->Put("after", "appended after recovery").ok());
  store.reset();
  store = MustOpen(DirOptions(dir));
  EXPECT_EQ(Unwrap(store->Get("after")),
            std::optional<std::string>("appended after recovery"));
  EXPECT_EQ(Unwrap(store->Get("intact")),
            std::optional<std::string>("intact body"));
}

TEST(MemoStore, FlippedByteFailsChecksumAndStopsThatSegment) {
  std::string dir = TempDir();
  std::string segment;
  {
    std::unique_ptr<MemoStore> store = MustOpen(DirOptions(dir));
    ASSERT_TRUE(store->Put("a", "aaaaaaaaaaaaaaaa").ok());
    ASSERT_TRUE(store->Put("b", "bbbbbbbbbbbbbbbb").ok());
    segment = OnlySegment(dir, store.get());
  }
  {
    // Flip one payload byte of the FIRST record: its CRC fails, and the
    // scan conservatively stops there (frame boundaries after a corrupt
    // frame cannot be trusted), dropping "b" with it.
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(12);  // 8-byte frame header + a few bytes into the payload
    f.put('X');
  }
  std::unique_ptr<MemoStore> store = MustOpen(DirOptions(dir));
  EXPECT_EQ(store->stats().recovered, 0u);
  EXPECT_GE(store->stats().corrupt_records, 1u);
  EXPECT_EQ(Unwrap(store->Get("a")), std::nullopt);
  EXPECT_EQ(Unwrap(store->Get("b")), std::nullopt);
  // The store still accepts and serves new work.
  ASSERT_TRUE(store->Put("c", "fresh").ok());
  EXPECT_EQ(Unwrap(store->Get("c")), std::optional<std::string>("fresh"));
}

TEST(MemoStore, RotationAndCompactionHonorTheDiskBudget) {
  std::string dir = TempDir();
  MemoStoreOptions options = DirOptions(dir);
  options.segment_bytes = 1024;       // rotate often
  options.max_disk_bytes = 8 * 1024;  // force compaction
  MetricsRegistry metrics;
  options.metrics = &metrics;
  std::unique_ptr<MemoStore> store = MustOpen(std::move(options));
  const std::string filler(200, 'x');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i),
                           filler + std::to_string(i)).ok());
  }
  MemoStore::Stats stats = store->stats();
  EXPECT_LE(stats.disk_bytes, 8u * 1024u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(metrics.Snapshot().counters[metric::kMemoDiskCompactions], 0u);
  // The newest record always survives compaction.
  EXPECT_EQ(Unwrap(store->Get("key199")),
            std::optional<std::string>(filler + "199"));
  // Reopen agrees with the in-memory index.
  size_t live = stats.entries;
  store.reset();
  store = MustOpen(DirOptions(dir));
  EXPECT_EQ(store->stats().recovered, live);
  EXPECT_EQ(Unwrap(store->Get("key199")),
            std::optional<std::string>(filler + "199"));
}

TEST(MemoStoreFault, InjectedWriteFailureSurfacesAndSparesTheStore) {
  std::string dir = TempDir();
  FaultInjector faults(7);
  faults.Arm(fault_sites::kMemoDiskWrite, {FaultKind::kExhausted, 2, 0, {}, 1.0});
  MemoStoreOptions options = DirOptions(dir);
  options.faults = &faults;
  std::unique_ptr<MemoStore> store = MustOpen(std::move(options));
  ASSERT_TRUE(store->Put("k1", "first").ok());
  Status failed = store->Put("k2", "second");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(faults.FiredCount(fault_sites::kMemoDiskWrite), 1u);
  // The failed record is not indexed; the store keeps serving.
  EXPECT_EQ(Unwrap(store->Get("k2")), std::nullopt);
  ASSERT_TRUE(store->Put("k3", "third").ok());
  EXPECT_EQ(Unwrap(store->Get("k1")), std::optional<std::string>("first"));
  EXPECT_EQ(Unwrap(store->Get("k3")), std::optional<std::string>("third"));
}

TEST(MemoStoreFault, InjectedShortWriteLeavesARecoverableTornTail) {
  std::string dir = TempDir();
  FaultInjector faults(11);
  faults.Arm(fault_sites::kMemoDiskWrite, {FaultKind::kShortWrite, 2, 0, {}, 1.0});
  MemoStoreOptions options = DirOptions(dir);
  options.faults = &faults;
  std::unique_ptr<MemoStore> store = MustOpen(std::move(options));
  ASSERT_TRUE(store->Put("whole", "a record that lands in full").ok());
  Status torn = store->Put("torn", "a record that is cut mid-frame");
  EXPECT_FALSE(torn.ok());
  EXPECT_NE(torn.message().find("short write"), std::string::npos) << torn.ToString();
  EXPECT_EQ(Unwrap(store->Get("torn")), std::nullopt);
  // The next Put rotates off the poisoned segment and succeeds.
  ASSERT_TRUE(store->Put("next", "after the torn append").ok());
  EXPECT_GE(store->stats().segments, 2u);

  // Restart: exactly the crash-mid-append picture — the torn frame is
  // skipped, everything else recovers.
  store.reset();
  MetricsRegistry metrics;
  MemoStoreOptions reopen = DirOptions(dir);
  reopen.metrics = &metrics;
  store = MustOpen(std::move(reopen));
  EXPECT_EQ(Unwrap(store->Get("whole")),
            std::optional<std::string>("a record that lands in full"));
  EXPECT_EQ(Unwrap(store->Get("next")),
            std::optional<std::string>("after the torn append"));
  EXPECT_EQ(Unwrap(store->Get("torn")), std::nullopt);
  EXPECT_EQ(store->stats().recovered, 2u);
}

TEST(MemoStoreFault, InjectedReadFailureIsAMissNotACrash) {
  std::string dir = TempDir();
  FaultInjector faults(3);
  MemoStoreOptions options = DirOptions(dir);
  options.faults = &faults;
  std::unique_ptr<MemoStore> store = MustOpen(std::move(options));
  ASSERT_TRUE(store->Put("k", "v").ok());
  faults.Arm(fault_sites::kMemoDiskRead, {FaultKind::kExhausted, 1, 0, {}, 1.0});
  Result<std::optional<std::string>> read = store->Get("k");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(faults.FiredCount(fault_sites::kMemoDiskRead), 1u);
  // Next read (site fires only on hit 1) serves the record intact.
  EXPECT_EQ(Unwrap(store->Get("k")), std::optional<std::string>("v"));
}

TEST(MemoStoreFault, InjectedFsyncFailureKeepsTheRecord) {
  std::string dir = TempDir();
  FaultInjector faults(5);
  faults.Arm(fault_sites::kMemoDiskFsync, {FaultKind::kExhausted, 1, 0, {}, 1.0});
  MemoStoreOptions options = DirOptions(dir);
  options.faults = &faults;
  options.fsync_each_put = true;
  std::unique_ptr<MemoStore> store = MustOpen(std::move(options));
  // The bytes reached the file even though the barrier failed: the record
  // stays indexed (process-crash durability is unaffected) and the error
  // surfaces to the caller.
  Status put = store->Put("k", "v");
  EXPECT_FALSE(put.ok());
  EXPECT_EQ(faults.FiredCount(fault_sites::kMemoDiskFsync), 1u);
  EXPECT_EQ(Unwrap(store->Get("k")), std::optional<std::string>("v"));
  // Second Put: fsync site no longer fires.
  ASSERT_TRUE(store->Put("k2", "v2").ok());
}

TEST(MemoStore, ChaseOutcomeBodyRoundtrip) {
  ChaseStepRecord tgd{"d1", true, {Atom("t", {Term::Var("Y")})}, {}, {}, {}};
  ChaseStepRecord egd{"e1", false, {}, Term::Var("Y"), Term::Var("X"),
                      Q("Q(X) :- r(X, Y), s(Y), t(Y).")};
  ChaseOutcome outcome{Q("Q(X) :- r(X, X), s(X), t(X)."), {tgd, egd},
                       /*failed=*/false};
  std::string body = SerializeChaseOutcomeBody(outcome);
  ChaseOutcome back = Unwrap(ParseChaseOutcomeBody(body), "ParseChaseOutcomeBody");
  EXPECT_EQ(back.result.ToString(), outcome.result.ToString());
  ASSERT_EQ(back.trace.size(), 2u);
  EXPECT_EQ(back.trace[0].dep_label, "d1");
  EXPECT_TRUE(back.trace[0].is_tgd);
  EXPECT_EQ(RenderTrace(back.result, back.trace),
            (std::vector<std::string>{"Q(X) :- r(X, Y), s(Y), t(Y).",
                                      "Q(X) :- r(X, X), s(X), t(X)."}));
  EXPECT_FALSE(back.failed);

  ChaseOutcome failed{Q("Q(X) :- r(X, X)."), {}, /*failed=*/true};
  ChaseOutcome failed_back =
      Unwrap(ParseChaseOutcomeBody(SerializeChaseOutcomeBody(failed)));
  EXPECT_TRUE(failed_back.failed);
  EXPECT_TRUE(failed_back.trace.empty());

  EXPECT_FALSE(ParseChaseOutcomeBody("not a record").ok());
  EXPECT_FALSE(ParseChaseOutcomeBody("failed 0\nresult Q\n").ok());
}

TEST(MemoStore, ChaseOutcomeGoldenBytesDecodeAndReencodeIdentically) {
  // Fixed bytes of the v2 record body format, for a live and a failed
  // chase: trace lines are step deltas (a tgd's added atoms; a failing
  // egd's two constants).
  const std::string live =
      "failed 0\n"
      "result Q:P\tH\tV:X\tA:p\tV:X\tI:9223372036854775807\tA:s\tV:X\tV:v#3\n"
      "trace sigma1\tT\tA:s\tV:X\tV:v#3\n"
      "end\n";
  const std::string failed =
      "failed 1\n"
      "result Q:P\tH\tV:X\tA:p\tV:X\tS:a\\nb\n"
      "trace sigma2\tF\tI:1\tI:2\n"
      "end\n";
  for (const std::string& golden : {live, failed}) {
    ChaseOutcome outcome = Unwrap(ParseChaseOutcomeBody(golden), "golden");
    EXPECT_EQ(SerializeChaseOutcomeBody(outcome), golden);
  }
  ChaseOutcome live_outcome = Unwrap(ParseChaseOutcomeBody(live));
  EXPECT_EQ(RenderTrace(live_outcome.result, live_outcome.trace),
            std::vector<std::string>{"P(X) :- p(X, 9223372036854775807), s(X, v#3)."});
  EXPECT_TRUE(Unwrap(ParseChaseOutcomeBody(failed)).failed);
  // A v1 trace line (the whole query after the step) is not a v2 line.
  EXPECT_FALSE(ParseChaseOutcomeBody("failed 0\nresult Q:P\tH\tV:X\tA:p\tV:X\n"
                                     "trace sigma1\t1\tP(X) :- p(X).\nend\n")
                   .ok());
}

TEST(MemoStore, ChaseOutcomeBodyRejectsBadFlagsAndOverflow) {
  const std::string rest = "result Q:P\tH\tV:X\tA:p\tV:X\nend\n";
  EXPECT_TRUE(ParseChaseOutcomeBody("failed 1\n" + rest).ok());
  for (const char* flag : {"failed 2\n", "failed yes\n", "failed 10\n", "failed \n"}) {
    Result<ChaseOutcome> parsed = ParseChaseOutcomeBody(flag + rest);
    ASSERT_FALSE(parsed.ok()) << flag;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << flag;
  }
  Result<ChaseOutcome> overflowed = ParseChaseOutcomeBody(
      "failed 0\nresult Q:P\tH\tV:X\tA:p\tV:X\tI:99999999999999999999\nend\n");
  ASSERT_FALSE(overflowed.ok());
  EXPECT_EQ(overflowed.status().code(), StatusCode::kInvalidArgument);
}

TEST(MemoStore, EngineContextPrefixIsStable) {
  // Durable segments name their chase context by a hash of the engine's
  // context fingerprint: semantics, Σ, schema and the key-based fast-path
  // flag. The v2 record format dropped the letters of the removed chase
  // flags (v1 records are recomputed anyway), so this pins the v2 prefix.
  std::shared_ptr<MemoStore> store = MustOpen(DirOptions(TempDir()));
  EquivalenceEngine engine;
  engine.set_memo_store(store);
  Schema schema;
  schema.Relation("p", 2).Relation("r", 1);
  EquivRequest request(Semantics::kSet, testing::Sigma({"p(X, Y) -> r(X)."}), schema);
  EquivVerdict verdict = Unwrap(
      engine.Equivalent(Q("Q1(X) :- p(X, Y)."), Q("Q2(X) :- p(X, Y), r(X)."), request));
  EXPECT_EQ(verdict.verdict, Verdict::kEquivalent);
  const std::string prefix = "ctx:106dc1817e67e86d|";
  std::optional<std::string> sentinel = Unwrap(store->Get(prefix + "@context"));
  ASSERT_TRUE(sentinel.has_value());
  EXPECT_EQ(*sentinel, "S\n[sigma1] p(X, Y) -> r(X)\n\np(c0, c1)\nr(c0)\n\nK");
  EXPECT_TRUE(Unwrap(store->Get(prefix + "H?0;|p(?0,?1)|slice:1/1:1")).has_value());
  EXPECT_TRUE(
      Unwrap(store->Get(prefix + "H?0;|p(?0,?1)|r(?0)|slice:1/1:1")).has_value());
}

TEST(MemoStore, V1RecordsCountAsCorruptAndAreRechased) {
  // A directory as a v1 build left it: the same records under the v1
  // envelope. Q2's record is also doctored to claim its chase failed, so a
  // verdict read from it would be "not equivalent".
  Schema schema;
  schema.Relation("p", 2).Relation("r", 1);
  EquivRequest request(Semantics::kSet, testing::Sigma({"p(X, Y) -> r(X)."}), schema);
  const ConjunctiveQuery q1 = Q("Q1(X) :- p(X, Y).");
  const ConjunctiveQuery q2 = Q("Q2(X) :- p(X, Y), r(X).");
  const std::string warm_dir = TempDir();
  std::shared_ptr<MemoStore> warm = MustOpen(DirOptions(warm_dir));
  {
    EquivalenceEngine engine;
    engine.set_memo_store(warm);
    ASSERT_EQ(Unwrap(engine.Equivalent(q1, q2, request)).verdict, Verdict::kEquivalent);
  }
  std::vector<std::string> payloads = ReadPayloads(OnlySegment(warm_dir, warm.get()));
  ASSERT_EQ(payloads.size(), 3u);  // the context sentinel and two outcomes
  size_t doctored = 0;
  for (std::string& payload : payloads) {
    ASSERT_TRUE(payload.starts_with("sqleq-memo-record v2\n")) << payload;
    payload.replace(0, 20, "sqleq-memo-record v1");
    size_t flag = payload.find("\nfailed 0\n");
    if (payload.find("r(?0)") != std::string::npos && flag != std::string::npos) {
      payload.replace(flag, 10, "\nfailed 1\n");
      ++doctored;
    }
  }
  ASSERT_EQ(doctored, 1u);
  const std::string old_dir = TempDir();
  WritePayloads(old_dir + "/memo-00000001.seg", payloads);

  std::shared_ptr<MemoStore> store = MustOpen(DirOptions(old_dir));
  EXPECT_EQ(store->stats().corrupt_records, payloads.size());
  EXPECT_EQ(store->stats().entries, 0u);
  EquivalenceEngine engine;
  engine.set_memo_store(store);
  // Equivalent: the doctored "failed" record of Q2 was not read.
  EquivVerdict verdict = Unwrap(engine.Equivalent(q1, q2, request));
  EXPECT_EQ(verdict.verdict, Verdict::kEquivalent);
  EXPECT_EQ(engine.cache_stats().misses, 2u);
  // The recomputed outcomes are written back as v2 records.
  EXPECT_EQ(store->stats().entries, payloads.size());
}

}  // namespace
}  // namespace sqleq
