// Request corpora of the end-to-end benchmark (README.md): for each
// workload, the catalog uploaded to sqleqd, the distinct requests, the
// timed request order, the warm-up requests, and the deployment (clients,
// shards, workers, memo sizing). Everything is a pure function of
// (workload, seed); the daemons only ever see the generated SQL text.
#ifndef SQLEQ_E2EBENCH_CORPUS_H_
#define SQLEQ_E2EBENCH_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/eval.h"
#include "util/status.h"

namespace e2ebench {

/// How a response is judged (README.md, "Oracle").
enum class Expect {
  /// A generator variant against its base under set semantics: equivalent
  /// by construction.
  kEquivalentByConstruction,
  /// An Appendix H request against its renaming: equivalent under every
  /// semantics.
  kDeepRenaming,
  /// Compared with an in-process EquivalenceEngine verdict.
  kEngine,
  /// reformulate: complete, and every rewrite engine-equivalent to the input.
  kReformulation,
};

/// One distinct request.
struct Item {
  std::string cmd;  ///< "check" or "reformulate"
  std::string q1;   ///< SQL; the reformulate input for reformulate
  std::string q2;   ///< SQL; check only
  sqleq::Semantics semantics = sqleq::Semantics::kSet;
  Expect expect = Expect::kEngine;
  bool deep = false;         ///< Appendix H m=6 request
  bool cross_class = false;  ///< check of two different generator classes
  /// Size class used to stratify orderings: body atoms of q1 plus q2 for a
  /// check, universal-plan atoms for a reformulate.
  size_t atoms = 0;
};

struct Corpus {
  std::string workload;
  /// CREATE TABLE script uploaded with the ddl verb on every connection.
  std::string ddl;
  std::vector<Item> items;
  /// Timed request order, as indices into items. Clients take the next
  /// position from a shared cursor, so reuse distances hold across clients.
  std::vector<uint32_t> stream;
  /// Requests sent during set-up, before the first timed request.
  std::vector<uint32_t> warmup;

  // Deployment.
  size_t clients = 2;
  size_t shards = 1;
  size_t workers_per_shard = 2;
  size_t engine_threads = 1;
  /// sqleqd --memo-bytes: the per-context memory-tier bound.
  size_t memo_bytes = 64u << 20;
  /// sqleqd --memo-dir (no --memo-fsync: buffered appends, no fsync).
  bool disk_tier = false;
  /// sqleqd --max-candidates; 0 keeps the daemon default.
  size_t max_candidates = 0;
  /// Requests go through FleetClient instead of one Connection per client.
  bool fleet = false;
  /// Working set of one reuse window, in memo bytes per context (spill
  /// workloads; what memo_bytes is an eighth of).
  size_t working_set_bytes = 0;
  /// server_peak_rss_mb is read once this many timed requests are done
  /// (at the end of the run if it never gets there).
  size_t rss_after_requests = 0;
};

/// Builds the corpus of `workload` for `seed`, with a timed stream long
/// enough for `seconds` of traffic.
sqleq::Result<Corpus> MakeCorpus(const std::string& workload, uint64_t seed,
                                 double seconds);

}  // namespace e2ebench

#endif  // SQLEQ_E2EBENCH_CORPUS_H_
