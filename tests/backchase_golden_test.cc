// Differential goldens for the backchase lattice sweep. Each fixture runs
// at every candidate budget from 1 up to the first complete run, and with a
// `backchase.candidate` fault armed at hits 1..6; each run records the
// canonical result, the serialized checkpoint, and every backchase.*
// counter. The goldens under tests/golden/backchase/ pin those bytes, so a
// rewrite of the sweep must reproduce them exactly, and every checkpoint
// they hold must resume to the complete run's result. Deadline cuts depend
// on timing and stay out of the goldens.
//
// Regenerate with SQLEQ_UPDATE_GOLDENS=1 ./backchase_golden_test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chase/chase_cache.h"
#include "constraints/builders.h"
#include "reformulation/candb.h"
#include "reformulation/views.h"
#include "test_util.h"
#include "util/fault.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

using testing::Example41Schema;
using testing::Example41Sigma;
using testing::Q;
using testing::Unwrap;

/// Example 4.1's Q1 widened with `extra` u-joins.
ConjunctiveQuery WidenedQ1(int extra) {
  std::string text = "Q1(X) :- p(X, Y), t(X, Y, W), s(X, Z), r(X), u(X, U0)";
  for (int i = 1; i <= extra; ++i) {
    text += ", u(X, U" + std::to_string(i) + ")";
  }
  return Q(text + ".");
}

/// Star join fact(K, A1..An) ⋈ dim_i(A_i, B_i) with views v_i(K, B_i), K the
/// key of fact (the bench_views fixture).
struct StarFixture {
  Schema schema;
  ConjunctiveQuery query;
  ViewSet views;
  DependencySet sigma;
};

StarFixture MakeStar(int n) {
  StarFixture out{Schema(), Q("Q(X) :- fact(X, A1)."), ViewSet(), {}};
  out.schema.Relation("fact", static_cast<size_t>(n + 1));
  out.sigma = Unwrap(MakeKeyEgds("fact", static_cast<size_t>(n + 1), {0}, "key_fact"));
  std::string fact = "fact(K";
  for (int i = 1; i <= n; ++i) fact += ", A" + std::to_string(i);
  fact += ")";
  std::string head = "Q(K";
  std::string body = fact;
  for (int i = 1; i <= n; ++i) {
    std::string idx = std::to_string(i);
    out.schema.Relation("dim" + idx, 2);
    body += ", dim" + idx + "(A" + idx + ", B" + idx + ")";
    head += ", B" + idx;
    EXPECT_TRUE(out.views
                    .Add(Q("v" + idx + "(K, B" + idx + ") :- " + fact + ", dim" + idx +
                           "(A" + idx + ", B" + idx + ")."))
                    .ok());
  }
  out.query = Q(head + ") :- " + body + ".");
  return out;
}

template <typename R>
std::string Record(const R& r, const std::vector<ConjunctiveQuery>& outputs,
                   const MetricsRegistry& metrics) {
  std::string out = "U=" + CanonicalQueryKey(r.universal_plan) + "\n";
  for (const ConjunctiveQuery& q : outputs) out += "R=" + CanonicalQueryKey(q) + "\n";
  out += "examined=" + std::to_string(r.candidates_examined) +
         " hits=" + std::to_string(r.chase_cache_hits) +
         " misses=" + std::to_string(r.chase_cache_misses) +
         " complete=" + (r.complete ? "1" : "0");
  if (r.exhaustion.has_value()) out += " limit=" + r.exhaustion->limit;
  out += "\n";
  out += r.checkpoint.has_value() ? r.checkpoint->Serialize() : "no checkpoint\n";
  for (const auto& [name, value] : metrics.Snapshot().counters) {
    if (name.rfind("backchase.", 0) == 0) {
      out += name + "=" + std::to_string(value) + "\n";
    }
  }
  return out;
}

/// One run of a fixture under `options`: the record plus whether it finished.
using RunFn = std::function<std::pair<std::string, bool>(CandBOptions)>;

/// Every candidate budget up to the first complete run, then faults at hits
/// 1..6. Fresh-variable names restart per run so checkpoint bytes are stable.
std::string Sweep(const RunFn& run) {
  std::string out;
  for (size_t budget = 1;; ++budget) {
    CandBOptions options;
    options.context.budget.max_candidates = budget;
    Term::ResetFreshCounterForTesting();
    auto [record, complete] = run(options);
    out += "## max_candidates=" + std::to_string(budget) + "\n" + record;
    if (complete) break;
    EXPECT_LT(budget, 4096u) << "sweep never completes";
    if (budget >= 4096) break;
  }
  for (uint64_t start = 1; start <= 6; ++start) {
    FaultInjector faults(7);
    FaultSpec spec;
    spec.kind = FaultKind::kExhausted;
    spec.start = start;
    faults.Arm(fault_sites::kBackchaseCandidate, spec);
    CandBOptions options;
    options.context.faults = &faults;
    Term::ResetFreshCounterForTesting();
    out += "## fault start=" + std::to_string(start) + "\n" + run(options).first;
  }
  return out;
}

RunFn CandBRun(ConjunctiveQuery q, Semantics sem) {
  return [q, sem](CandBOptions options) {
    MetricsRegistry metrics;
    options.context.metrics = &metrics;
    CandBResult r = Unwrap(
        ChaseAndBackchase(q, Example41Sigma(), sem, Example41Schema(), options));
    return std::make_pair(Record(r, r.reformulations, metrics), r.complete);
  };
}

RunFn StarRun(int n) {
  return [n](CandBOptions base) {
    StarFixture f = MakeStar(n);
    RewriteOptions options;
    static_cast<CandBOptions&>(options) = base;
    options.allow_base_atoms = true;
    MetricsRegistry metrics;
    options.context.metrics = &metrics;
    Term::ResetFreshCounterForTesting();
    RewriteResult r = Unwrap(
        RewriteWithViews(f.query, f.views, f.sigma, Semantics::kSet, f.schema, options));
    return std::make_pair(Record(r, r.rewritings, metrics), r.complete);
  };
}

/// Splits a golden file into its "## ..." sections.
std::vector<std::string> Sections(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t next = text.find("\n## ", pos);
    next = next == std::string::npos ? text.size() : next + 1;
    out.push_back(text.substr(pos, next - pos));
    pos = next;
  }
  return out;
}

/// Sweeps the fixture and compares every run with its golden section, then
/// resumes every golden checkpoint: each must finish with the complete
/// run's result.
void CheckFixture(const std::string& name, const RunFn& run) {
  const std::string path = std::string(SQLEQ_GOLDEN_DIR) + "/" + name + ".txt";
  const std::string got = Sweep(run);
  if (std::getenv("SQLEQ_UPDATE_GOLDENS") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<std::string> want = Sections(text.str());
  const std::vector<std::string> have = Sections(got);
  ASSERT_EQ(have.size(), want.size()) << name;
  for (size_t i = 0; i < have.size(); ++i) {
    ASSERT_EQ(have[i], want[i]) << name << " section " << i;
  }

  // The budgeted run that completed; its record up to the (absent)
  // checkpoint is what every resume must reproduce.
  constexpr std::string_view kNoCheckpoint = "no checkpoint\n";
  std::string complete;
  for (const std::string& section : want) {
    size_t end = section.find(kNoCheckpoint);
    if (section.rfind("## max_candidates=", 0) == 0 && end != std::string::npos) {
      size_t body = section.find('\n') + 1;
      complete = section.substr(body, end - body);
    }
  }
  ASSERT_FALSE(complete.empty()) << name;
  size_t resumed = 0;
  for (const std::string& section : want) {
    size_t at = section.find("sqleq-candb-checkpoint v1\n");
    if (at == std::string::npos) continue;
    CandBCheckpoint cp = Unwrap(CandBCheckpoint::Deserialize(section.substr(at)));
    CandBOptions options;
    options.resume = &cp;
    std::string record = run(options).first;
    EXPECT_EQ(record.substr(0, record.find(kNoCheckpoint)), complete)
        << name << " resumed from " << section.substr(0, section.find('\n'));
    ++resumed;
  }
  EXPECT_GT(resumed, 0u) << name;
}

TEST(BackchaseGolden, Example41Q1UnderSet) {
  CheckFixture("q1_set", CandBRun(WidenedQ1(0), Semantics::kSet));
}

TEST(BackchaseGolden, Example41Q1UnderBag) {
  CheckFixture("q1_bag", CandBRun(WidenedQ1(0), Semantics::kBag));
}

TEST(BackchaseGolden, Example41Q1UnderBagSet) {
  CheckFixture("q1_bagset", CandBRun(WidenedQ1(0), Semantics::kBagSet));
}

TEST(BackchaseGolden, WidenedQ1UnderSet) {
  CheckFixture("q1_wide2_set", CandBRun(WidenedQ1(2), Semantics::kSet));
}

TEST(BackchaseGolden, ViewsStar3) { CheckFixture("views_star3", StarRun(3)); }

}  // namespace
}  // namespace sqleq
