// Exit-code contract of tools/check_bench_regress over small Google
// Benchmark JSON fixtures, in both baseline shapes the repo commits:
// pinned single-iteration rows (`<run_name>/iterations:1`) and repetition
// aggregates (`<run_name>_median`, `_mean`, `_stddev`, `_cv`). The fresh
// side is always a single-iteration smoke run. Runs the real binary
// (SQLEQ_BENCH_REGRESS_BIN, injected by tests/CMakeLists.txt).
//
//   0  median fresh/baseline ratio within the threshold
//   1  regression, or no benchmark shared between the files
//   2  usage / IO / parse problems
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef SQLEQ_BENCH_REGRESS_BIN
#error "SQLEQ_BENCH_REGRESS_BIN must point at the built check_bench_regress binary"
#endif

namespace sqleq {
namespace {

struct Row {
  std::string run_name;
  double cpu_time;
  std::string aggregate;  // empty for an iteration row
};

std::string RowJson(const Row& row) {
  std::string name = row.run_name;
  std::string tail = "\"run_type\": \"iteration\"";
  if (!row.aggregate.empty()) {
    name += "_" + row.aggregate;
    tail = "\"run_type\": \"aggregate\", \"aggregate_name\": \"" + row.aggregate + "\"";
  }
  return "{\"name\": \"" + name + "\", \"run_name\": \"" + row.run_name + "\", " + tail +
         ", \"iterations\": 1, \"real_time\": " + std::to_string(row.cpu_time) +
         ", \"cpu_time\": " + std::to_string(row.cpu_time) + ", \"time_unit\": \"ms\"}";
}

/// Writes the fixture under a name scoped by the running test: ctest runs
/// each test in its own process, in parallel, so a shared file name would
/// let one test truncate another's baseline mid-read.
std::string WriteBench(const std::string& name, const std::vector<Row>& rows) {
  std::string test = ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string path = ::testing::TempDir() + "bench_regress_" + test + "_" + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << "{\"context\": {}, \"benchmarks\": [";
  for (size_t i = 0; i < rows.size(); ++i) out << (i > 0 ? ", " : "") << RowJson(rows[i]);
  out << "]}\n";
  EXPECT_TRUE(out.good());
  return path;
}

/// Runs `check_bench_regress <fresh> <baseline> 1.5`; returns the exit code.
int RunRegress(const std::string& fresh, const std::string& baseline) {
  std::string cmd = std::string(SQLEQ_BENCH_REGRESS_BIN) + " " + fresh + " " +
                    baseline + " 1.5 > /dev/null 2> /dev/null";
  int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, -1);
  return WEXITSTATUS(rc);
}

/// A single-iteration smoke run: BM_A/1 and BM_B/1 at the given times.
std::string Fresh(const std::string& name, double a, double b) {
  return WriteBench(name, {{"BM_A/1/iterations:1", a, ""}, {"BM_B/1/iterations:1", b, ""}});
}

/// A repetition-aggregate baseline with medians 10 and 20; the means are
/// far off, so a tool reading them instead of the medians misjudges.
std::string AggregateBaseline() {
  std::vector<Row> rows;
  for (const auto& [run, median] : {std::pair<std::string, double>{"BM_A/1", 10},
                                    std::pair<std::string, double>{"BM_B/1", 20}}) {
    rows.push_back({run, median * 5, "mean"});
    rows.push_back({run, median, "median"});
    rows.push_back({run, median, "stddev"});
    rows.push_back({run, 0.5, "cv"});
  }
  return WriteBench("aggregate_baseline", rows);
}

TEST(BenchRegressCli, IterationBaselineWithinThreshold) {
  std::string baseline =
      WriteBench("iteration_baseline",
                 {{"BM_A/1/iterations:1", 10, ""}, {"BM_B/1/iterations:1", 20, ""}});
  EXPECT_EQ(RunRegress(Fresh("iter_ok", 12, 22), baseline), 0);
  EXPECT_EQ(RunRegress(Fresh("iter_slow", 20, 40), baseline), 1);
}

TEST(BenchRegressCli, AggregateBaselineMatchesIterationRows) {
  std::string baseline = AggregateBaseline();
  EXPECT_EQ(RunRegress(Fresh("agg_ok", 11, 21), baseline), 0);
  EXPECT_EQ(RunRegress(Fresh("agg_fast", 2, 4), baseline), 0);
  EXPECT_EQ(RunRegress(Fresh("agg_slow", 20, 40), baseline), 1);
}

TEST(BenchRegressCli, NoSharedBenchmarkFails) {
  std::string fresh = WriteBench("other", {{"BM_C/1/iterations:1", 1, ""}});
  EXPECT_EQ(RunRegress(fresh, AggregateBaseline()), 1);
}

TEST(BenchRegressCli, MissingFileIsUsageError) {
  EXPECT_EQ(RunRegress(::testing::TempDir() + "no_such_bench.json", AggregateBaseline()),
            2);
}

}  // namespace
}  // namespace sqleq
