// Shared driver for the bench_* binaries, replacing benchmark::benchmark_main:
// unless the caller already passed --benchmark_out, results are additionally
// written as Google Benchmark JSON to BENCH_<name>.json in the working
// directory (<name> = binary basename without the bench_ prefix), the
// machine-readable output `tools/ci.sh bench-smoke` validates with
// check_bench_json. Pinned-iteration runs come from SQLEQ_BENCH_ITERS via
// bench_util.h's SQLEQ_BENCHMARK registration macro. Google Benchmark writes
// a non-finite number (the cv of a counter that is 0 in every repetition) as
// the bare token NaN or Infinity, which is not JSON; the default
// BENCH_<name>.json is rewritten with null in its place (a file named by the
// caller's own --benchmark_out is left as Google Benchmark wrote it).
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

/// bench/bench_candb -> candb.
std::string BenchName(const char* argv0) {
  std::string name = argv0;
  size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  if (name.empty()) name = "unnamed";
  return name;
}

/// Replaces the tokens NaN, Infinity and their negations outside string
/// literals with null.
std::string NonFiniteToNull(std::string_view json) {
  std::string out;
  out.reserve(json.size());
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < json.size()) {
        out += json[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    size_t sign = c == '-' ? 1 : 0;
    bool replaced = false;
    for (std::string_view token : {"NaN", "Infinity"}) {
      if (json.compare(i + sign, token.size(), token) == 0) {
        out += "null";
        i += sign + token.size() - 1;
        replaced = true;
        break;
      }
    }
    if (!replaced) out += c;
  }
  return out;
}

void RewriteNonFinite(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::stringstream text;
  text << in.rdbuf();
  in.close();
  const std::string original = text.str();
  std::string fixed = NonFiniteToNull(original);
  if (fixed != original) std::ofstream(path, std::ios::trunc) << fixed;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_path;
  std::string out_flag;
  std::string format_flag;
  if (!has_out) {
    out_path = "BENCH_" + BenchName(argv[0]) + ".json";
    out_flag = "--benchmark_out=" + out_path;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!out_path.empty()) RewriteNonFinite(out_path);
  return 0;
}
