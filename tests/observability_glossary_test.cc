// Glossary-sync test: the metric glossary in docs/observability.md and the
// metric-name constants in src/util/telemetry.h stay in lockstep.
//
// 1. Every `inline constexpr char k...[] = "<name>";` in the metric
//    namespace has a backticked entry in the first column of a glossary
//    table row. A prefix constant (a name ending in '.') is documented by a
//    placeholder family built on it, e.g. `analysis.diag.<code>`.
// 2. Every plain glossary name (no `<placeholder>`) is such a constant.
//    Dynamic families (`chase.fired.<label>`, `backchase.level.<k>.pruned`)
//    count only when written with their placeholder, and are exempt here.
//
// Both files are parsed at test time, so adding a metric constant fails this
// test until the glossary documents it, and a stale glossary row fails it
// until the row is removed.
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef SQLEQ_OBSERVABILITY_MD
#error "SQLEQ_OBSERVABILITY_MD must point at docs/observability.md"
#endif
#ifndef SQLEQ_TELEMETRY_H
#error "SQLEQ_TELEMETRY_H must point at src/util/telemetry.h"
#endif

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The string values of every `inline constexpr char k...[]` declaration,
/// including those whose initializer wraps onto the next line.
std::set<std::string> ParseMetricConstants(const std::string& path) {
  const std::string text = ReadFile(path);
  static const std::regex kDecl(
      R"(inline\s+constexpr\s+char\s+k\w+\[\]\s*=\s*"([^"]*)\")");
  std::set<std::string> names;
  for (std::sregex_iterator it(text.begin(), text.end(), kDecl), end; it != end;
       ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

/// The backticked names in the first column of every table row under the
/// "## Metric glossary" heading (up to the next "## " heading).
std::set<std::string> ParseGlossary(const std::string& path) {
  std::istringstream in(ReadFile(path));
  std::set<std::string> names;
  bool in_glossary = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_glossary = line == "## Metric glossary";
      continue;
    }
    if (!in_glossary || line.rfind("|", 0) != 0) continue;
    const size_t cell_end = line.find('|', 1);
    if (cell_end == std::string::npos) continue;
    const std::string cell = line.substr(1, cell_end - 1);
    for (size_t open = cell.find('`'); open != std::string::npos;
         open = cell.find('`', open)) {
      const size_t close = cell.find('`', open + 1);
      if (close == std::string::npos) {
        ADD_FAILURE() << "unbalanced backtick in glossary row: " << line;
        break;
      }
      names.insert(cell.substr(open + 1, close - open - 1));
      open = close + 1;
    }
  }
  return names;
}

bool IsPlaceholderFamily(const std::string& name) {
  return name.find('<') != std::string::npos;
}

const std::set<std::string>& Constants() {
  static const auto* names =
      new std::set<std::string>(ParseMetricConstants(SQLEQ_TELEMETRY_H));
  return *names;
}

const std::set<std::string>& Glossary() {
  static const auto* names =
      new std::set<std::string>(ParseGlossary(SQLEQ_OBSERVABILITY_MD));
  return *names;
}

TEST(ObservabilityGlossary, ParsesBothSources) {
  // Guards against a parser that silently matches nothing.
  EXPECT_GT(Constants().size(), 40u);
  EXPECT_EQ(Constants().count("chase.runs"), 1u);
  EXPECT_EQ(Constants().count("analysis.diag."), 1u);
  EXPECT_GT(Glossary().size(), 40u);
  EXPECT_EQ(Glossary().count("chase.runs"), 1u);
  EXPECT_EQ(Glossary().count("chase.fired.<label>"), 1u);
}

TEST(ObservabilityGlossary, EveryMetricConstantIsDocumented) {
  for (const std::string& name : Constants()) {
    if (!name.empty() && name.back() == '.') {
      // A prefix constant: some placeholder family must extend it.
      bool documented = false;
      for (const std::string& entry : Glossary()) {
        if (entry.rfind(name + "<", 0) == 0) documented = true;
      }
      EXPECT_TRUE(documented) << "prefix constant \"" << name
                              << "\" has no `" << name
                              << "<...>` entry in docs/observability.md";
      continue;
    }
    EXPECT_EQ(Glossary().count(name), 1u)
        << "metric \"" << name << "\" is missing from the glossary in "
        << "docs/observability.md";
  }
}

TEST(ObservabilityGlossary, EveryPlainGlossaryNameIsAMetricConstant) {
  for (const std::string& name : Glossary()) {
    if (IsPlaceholderFamily(name)) continue;
    EXPECT_EQ(Constants().count(name), 1u)
        << "glossary entry `" << name << "` is not a metric constant in "
        << "src/util/telemetry.h";
  }
}

}  // namespace
