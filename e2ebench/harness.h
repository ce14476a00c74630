// Shared types of the benchmark driver (driver.cc) and the traced
// in-process replay (replay.cc).
#ifndef SQLEQ_E2EBENCH_HARNESS_H_
#define SQLEQ_E2EBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus.h"
#include "service/protocol.h"
#include "spans.h"
#include "sql/translate.h"

namespace e2ebench {

/// One request of a measured phase, as the client saw it.
struct Record {
  enum class Outcome : uint8_t { kOk, kError, kShed, kUnknown, kIncomplete };

  uint32_t item = 0;
  uint64_t latency_ns = 0;
  uint64_t end_ns = 0;  ///< completion time (NowNs)
  Outcome outcome = Outcome::kOk;
  std::string verdict;                ///< check
  std::vector<std::string> rewrites;  ///< reformulate
  std::string raw;                    ///< response line (traced slices only)
  bool traced = false;                ///< sent in a traced slice
};

/// The request line a client sends for `item` (no id: ids would engage the
/// daemon's idempotency cache, which real callers do not rely on).
sqleq::service::RequestSpec SpecFor(const Item& item);

struct ReplayInput {
  const Corpus* corpus = nullptr;
  const sqleq::sql::Catalog* catalog = nullptr;
  /// The timed requests, traced and untraced, in send order; spans are
  /// recorded for the traced ones only.
  std::vector<const Record*> requests;
  /// Directory for the replay's MemoStore; empty when the workload runs
  /// without the disk tier.
  std::string store_dir;
  /// Stop replaying once this much wall time is spent.
  double budget_s = 10.0;
};

struct ReplayResult {
  size_t requests = 0;
  std::map<std::string, LayerSamples> layers;
  /// Per-layer metrics measured in process (replay-derived names of the
  /// per_layer list, plus the memory- and disk-tier ledger inputs).
  std::map<std::string, double> metrics;
};

/// Replays the requests in process through the layer functions, in
/// pipeline order, recording spans into `log`.
ReplayResult Replay(const ReplayInput& input, SpanLog* log);

}  // namespace e2ebench

#endif  // SQLEQ_E2EBENCH_HARNESS_H_
