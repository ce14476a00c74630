// sqleq-lint: standalone Σ-lint driver over sqleq script files (the command
// language src/shell/engine.h documents). Statically analyzes each script —
// no data is loaded and no chase-and-backchase runs — and prints the
// diagnostics plus a per-file summary line.
//
//   sqleq-lint script.sqleq [more.sqleq ...]
//   sqleq-lint --strict script.sqleq     # warnings count as errors
//   sqleq-lint --metrics-out lint.prom --trace-out lint.json script.sqleq
//   echo "DEP p(X) -> r(X);" | sqleq-lint
//
// --metrics-out writes lint counters (files, statements, per-severity
// diagnostics) in Prometheus text format; --trace-out writes one span per
// linted input as Chrome trace_event JSON (docs/observability.md).
//
// Exit status: 0 when every file is clean (no errors, no warnings), 1 when
// there are warnings but no errors, 2 when any file has at least one
// error-severity diagnostic, 3 on usage/IO problems. --strict escalates
// warnings to errors at emission time, so a warnings-only run exits 2 under
// it (docs/diagnostics.md documents the contract).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "shell/lint.h"
#include "util/telemetry.h"

namespace {

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--strict] [--metrics-out <file>] [--trace-out <file>] "
               "[script-file ...]\n"
               "  lints sqleq scripts (stdin when no files are given)\n"
               "  --strict       escalate warnings to errors\n"
               "  --metrics-out  write lint counters (Prometheus text)\n"
               "  --trace-out    write per-file spans (Chrome trace JSON)\n"
               "  exit: 0 clean, 1 warnings only, 2 errors, 3 usage/IO\n",
               prog);
  return 3;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Lints one input under a "lint.file" span, tallying the counters SHOW in
/// --metrics-out.
sqleq::shell::LintResult LintOne(const std::string& text,
                                 const sqleq::AnalyzeOptions& opts,
                                 sqleq::MetricsRegistry* metrics,
                                 sqleq::TraceSink* trace) {
  sqleq::TraceSpan span(trace, "lint.file");
  sqleq::shell::LintResult result = sqleq::shell::LintScript(text, opts);
  namespace metric = sqleq::metric;
  metrics->counter(metric::kLintFiles).Add();
  metrics->counter(metric::kLintStatements).Add(result.statements);
  metrics->counter(metric::kLintErrors)
      .Add(result.report.CountOf(sqleq::Severity::kError));
  metrics->counter(metric::kLintWarnings)
      .Add(result.report.CountOf(sqleq::Severity::kWarning));
  metrics->counter(metric::kLintNotes)
      .Add(result.report.CountOf(sqleq::Severity::kInfo));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  std::string metrics_out;
  std::string trace_out;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--metrics-out" || arg == "--trace-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a file argument\n", arg.c_str());
        return Usage(argv[0]);
      }
      (arg == "--metrics-out" ? metrics_out : trace_out) = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  sqleq::MetricsRegistry metrics;
  sqleq::AnalyzeOptions opts = sqleq::AnalyzeOptions::Full();
  opts.warnings_as_errors = strict;
  opts.metrics = &metrics;  // analysis.diag.<code> counters in --metrics-out

  sqleq::TraceSink trace_sink;
  sqleq::TraceSink* trace = trace_out.empty() ? nullptr : &trace_sink;

  bool any_errors = false;
  bool any_warnings = false;
  if (files.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    sqleq::shell::LintResult result = LintOne(buffer.str(), opts, &metrics, trace);
    std::fputs(result.ToString().c_str(), stdout);
    any_errors = result.HasErrors();
    any_warnings = result.report.CountOf(sqleq::Severity::kWarning) > 0;
  } else {
    for (const std::string& file : files) {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", file.c_str());
        return 3;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      sqleq::shell::LintResult result =
          LintOne(buffer.str(), opts, &metrics, trace);
      if (files.size() > 1) std::printf("== %s ==\n", file.c_str());
      std::fputs(result.ToString().c_str(), stdout);
      any_errors = any_errors || result.HasErrors();
      any_warnings =
          any_warnings || result.report.CountOf(sqleq::Severity::kWarning) > 0;
    }
  }

  if (!metrics_out.empty() &&
      !WriteFile(metrics_out, metrics.Snapshot().ToPrometheusText())) {
    return 3;
  }
  if (!trace_out.empty() &&
      !WriteFile(trace_out, trace_sink.ToChromeTraceJson())) {
    return 3;
  }
  if (any_errors) return 2;
  return any_warnings ? 1 : 0;
}
