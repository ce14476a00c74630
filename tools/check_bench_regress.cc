// check_bench_regress: compares a freshly measured BENCH_<name>.json against
// a committed baseline and fails when the suite regressed.
//
// Both files are Google Benchmark JSON (the shape check_bench_json pins).
// Rows are matched by run name with any "/iterations:N" or "/repeats:N"
// component dropped, so a pinned SQLEQ_BENCH_ITERS=1 smoke row
// (`<run_name>/iterations:1`) meets the same benchmark in a baseline
// committed either the same way or as repetition aggregates
// (`<run_name>_median`, `_mean`, ...). Per benchmark the tool takes the
// aggregate median row when the file has one, else the median cpu_time of
// its iteration rows (one row per name in a smoke run, so just that
// value), and forms the ratio fresh / baseline. The verdict is the MEDIAN
// of those per-benchmark ratios: a suite-wide slowdown fails, one noisy
// entry in a single-iteration smoke run does not. `tools/ci.sh
// bench-smoke` runs this for the chase-scaling and homomorphism suites
// before the fresh output replaces the baseline.
//
//   check_bench_regress <fresh.json> <baseline.json> [threshold]
//
// `threshold` defaults to 1.5 (fail when the median ratio exceeds 1.5x).
// Exit status: 0 when within threshold, 1 on regression (or when the files
// share no benchmark names), 2 on usage/IO/parse problems.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

namespace {

using sqleq::JsonValue;

/// cpu_time rows of one benchmark in one Google Benchmark JSON file.
/// At least one of the two is non-empty.
struct BenchTimes {
  std::vector<double> iterations;
  std::vector<double> medians;  // aggregate "median" rows
  double Value() const;
};

/// By run name without its iterations/repeats component.
using Samples = std::map<std::string, BenchTimes>;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double BenchTimes::Value() const {
  return medians.empty() ? Median(iterations) : Median(medians);
}

/// `run_name` minus "/iterations:N" and "/repeats:N" components.
std::string BenchKey(const std::string& run_name) {
  std::string key;
  size_t begin = 0;
  while (begin <= run_name.size()) {
    size_t end = run_name.find('/', begin);
    if (end == std::string::npos) end = run_name.size();
    std::string part = run_name.substr(begin, end - begin);
    if (part.rfind("iterations:", 0) != 0 && part.rfind("repeats:", 0) != 0) {
      if (!key.empty()) key += '/';
      key += part;
    }
    begin = end + 1;
  }
  return key;
}

bool LoadSamples(const char* path, Samples* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "check_bench_regress: cannot open %s\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  sqleq::Result<JsonValue> parsed = sqleq::ParseJson(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "check_bench_regress: %s: not valid JSON: %s\n", path,
                 parsed.status().ToString().c_str());
    return false;
  }
  const JsonValue* benchmarks =
      parsed->is_object() ? parsed->Find("benchmarks") : nullptr;
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    std::fprintf(stderr, "check_bench_regress: %s: missing \"benchmarks\" array\n",
                 path);
    return false;
  }
  for (const JsonValue& entry : benchmarks->array) {
    if (!entry.is_object()) continue;
    const JsonValue* name = entry.Find("run_name");
    if (name == nullptr) name = entry.Find("name");
    const JsonValue* cpu = entry.Find("cpu_time");
    if (name == nullptr || !name->is_string() || cpu == nullptr ||
        !cpu->is_number() || cpu->number <= 0) {
      continue;  // malformed rows are check_bench_json's problem
    }
    const JsonValue* type = entry.Find("run_type");
    const JsonValue* aggregate = entry.Find("aggregate_name");
    if (type == nullptr || !type->is_string() || type->string != "aggregate") {
      (*out)[BenchKey(name->string)].iterations.push_back(cpu->number);
    } else if (aggregate != nullptr && aggregate->is_string() &&
               aggregate->string == "median") {
      (*out)[BenchKey(name->string)].medians.push_back(cpu->number);
    }  // mean/stddev/cv aggregates do not gate
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::fprintf(stderr,
                 "usage: %s <fresh.json> <baseline.json> [threshold]\n",
                 argv[0]);
    return 2;
  }
  double threshold = 1.5;
  if (argc == 4) {
    char* end = nullptr;
    threshold = std::strtod(argv[3], &end);
    if (end == argv[3] || *end != '\0' || threshold <= 0) {
      std::fprintf(stderr, "check_bench_regress: bad threshold %s\n", argv[3]);
      return 2;
    }
  }

  Samples fresh;
  Samples baseline;
  if (!LoadSamples(argv[1], &fresh) || !LoadSamples(argv[2], &baseline)) {
    return 2;
  }

  std::vector<double> ratios;
  double worst_ratio = 0.0;
  std::string worst_name;
  for (const auto& [name, base_times] : baseline) {
    auto it = fresh.find(name);
    if (it == fresh.end()) continue;  // renamed/retired benchmarks don't gate
    double ratio = it->second.Value() / base_times.Value();
    ratios.push_back(ratio);
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst_name = name;
    }
  }
  if (ratios.empty()) {
    std::fprintf(stderr,
                 "check_bench_regress: %s and %s share no benchmark names\n",
                 argv[1], argv[2]);
    return 1;
  }

  double median_ratio = Median(ratios);
  std::printf(
      "check_bench_regress: %s vs %s: %zu shared benchmark(s), median ratio "
      "%.3fx, worst %.3fx (%s), threshold %.2fx\n",
      argv[1], argv[2], ratios.size(), median_ratio, worst_ratio,
      worst_name.c_str(), threshold);
  if (median_ratio > threshold) {
    std::fprintf(stderr,
                 "check_bench_regress: REGRESSION: median cpu_time ratio "
                 "%.3fx exceeds %.2fx\n",
                 median_ratio, threshold);
    return 1;
  }
  return 0;
}
