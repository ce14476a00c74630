#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "chase/chase_cache.h"
#include "chase/chase_plan.h"
#include "sql/render.h"
#include "sql/translate.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/schema_templates.h"

namespace e2ebench {
namespace {

using sqleq::ConjunctiveQuery;
using sqleq::RelationInfo;
using sqleq::Result;
using sqleq::Rng;
using sqleq::Schema;
using sqleq::Semantics;
using sqleq::Status;
namespace workload = sqleq::workload;

constexpr Semantics kRotation[3] = {Semantics::kSet, Semantics::kBag,
                                    Semantics::kBagSet};
/// Appendix H family size of the deep share (BENCH_chase_scaling m=6).
constexpr int kAppendixHM = 6;
/// One deep request every kDeepEvery timed requests (~5%).
constexpr size_t kDeepEvery = 20;
/// reformulate caps: universal plans of at most kMaxPlanAtoms atoms have
/// at most 2^5 - 1 backchase candidates, so the --max-candidates cap below
/// never trips and every result is complete. Larger plans made the p99
/// tail hinge on a handful of queries per seed (README.md, "Workloads").
constexpr size_t kMaxPlanAtoms = 5;
constexpr size_t kMaxCandidates = 512;
/// reformulate warm-up requests (distinct queries kept out of the stream).
constexpr size_t kReformulateWarmup = 96;
/// check-resident generates this many queries and keeps one variant per
/// class. The generator attaches each variant to a uniformly drawn earlier
/// base, so the first bases collect dozens of variants. With every variant
/// of 1000 queries kept, those few bases set the corpus's mean query size,
/// which ranged from 5.2 to 6.2 atoms over seeds 1..10 and moved p50, CPU
/// and peak RSS by as much.
constexpr size_t kResidentQueries = 4000;

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i];
  }
  return out;
}

/// The template as a CREATE TABLE script (keys and FOREIGN KEYs, so the
/// daemon derives the same Σ the generator used), FK targets first.
std::string TemplateDdl(const workload::SchemaTemplate& t) {
  std::vector<RelationInfo> rels = t.catalog.schema.Relations();
  std::map<std::string, const RelationInfo*> by_name;
  for (const RelationInfo& r : rels) by_name[r.name] = &r;
  auto columns = [](const RelationInfo& r, const std::vector<size_t>& cols) {
    std::vector<std::string> names;
    for (size_t c : cols) names.push_back(r.attributes[c]);
    return Join(names);
  };
  std::set<std::string> emitted;
  std::string out;
  bool progress = true;
  while (progress && emitted.size() < rels.size()) {
    progress = false;
    for (const RelationInfo& r : rels) {
      if (emitted.count(r.name) > 0) continue;
      bool ready = true;
      for (const workload::ForeignKeyEdge& fk : t.fks) {
        if (fk.src == r.name && fk.dst != r.name && emitted.count(fk.dst) == 0) {
          ready = false;
        }
      }
      if (!ready) continue;
      std::vector<std::string> defs;
      for (const std::string& a : r.attributes) defs.push_back(a + " INT");
      for (size_t k = 0; k < r.declared_keys.size(); ++k) {
        defs.push_back(std::string(k == 0 ? "PRIMARY KEY" : "UNIQUE") + " (" +
                       columns(r, r.declared_keys[k]) + ")");
      }
      for (const workload::ForeignKeyEdge& fk : t.fks) {
        if (fk.src != r.name) continue;
        defs.push_back("FOREIGN KEY (" + columns(r, fk.src_cols) + ") REFERENCES " +
                       fk.dst + " (" + columns(*by_name.at(fk.dst), fk.dst_cols) +
                       ")");
      }
      out += "CREATE TABLE " + r.name + " (" + Join(defs) + ");\n";
      emitted.insert(r.name);
      progress = true;
    }
  }
  return out;
}

/// The Appendix H family (Example H.2) as DDL: p_i(a, b) with both columns
/// keys and, for i < j, FOREIGN KEYs p_i.a -> p_j.b and p_i.b -> p_j.a —
/// exactly σ(1)_{i,j}, σ(2)_{i,j} and the two fds per relation.
std::string AppendixHDdl(int m) {
  std::string out;
  for (int i = m; i >= 1; --i) {
    std::string def = "CREATE TABLE p" + std::to_string(i) +
                      " (a INT PRIMARY KEY, b INT UNIQUE";
    for (int j = i + 1; j <= m; ++j) {
      std::string pj = "p" + std::to_string(j);
      def += ", FOREIGN KEY (a) REFERENCES " + pj + " (b)";
      def += ", FOREIGN KEY (b) REFERENCES " + pj + " (a)";
    }
    out += def + ");\n";
  }
  return out;
}

/// An Appendix H request: Q(X) :- p1(X, c) against its alias renaming. The
/// constant makes every request a distinct memo key; the renaming is a
/// memory-tier hit right after the first chase.
Item DeepItem(uint64_t constant, Semantics semantics) {
  const std::string c = std::to_string(constant);
  Item item;
  item.cmd = "check";
  item.q1 = "SELECT t0.a FROM p1 t0 WHERE t0.b = " + c;
  item.q2 = "SELECT r1.a FROM p1 r1 WHERE r1.b = " + c;
  item.semantics = semantics;
  item.expect = Expect::kDeepRenaming;
  item.deep = true;
  return item;
}

Result<std::string> Sql(const ConjunctiveQuery& q, const Schema& schema,
                        Semantics semantics) {
  return sqleq::sql::RenderSql(q, schema, semantics);
}

/// Appends the check pairs of one generated workload to `items`: each
/// variant against its base (the first `per_class` variants of each class
/// when `per_class` > 0), plus cross-class pairs making about 20% of the
/// total, semantics rotating set / bag / bag-set. Returns the new item
/// indices in a seed-shuffled order.
Result<std::vector<uint32_t>> AppendPairs(const workload::Workload& w,
                                          const Schema& schema, Rng& rng,
                                          size_t* rotation,
                                          std::vector<Item>* items,
                                          size_t per_class = 0) {
  std::vector<uint32_t> added;
  std::vector<size_t> variants;
  std::map<size_t, size_t> class_variants;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    if (!w.queries[i].is_variant) continue;
    if (per_class > 0 && class_variants[w.queries[i].class_id]++ >= per_class) continue;
    variants.push_back(i);
  }
  auto add = [&](size_t a, size_t b, bool cross) -> Status {
    Item item;
    item.cmd = "check";
    item.semantics = kRotation[(*rotation)++ % 3];
    SQLEQ_ASSIGN_OR_RETURN(item.q1, Sql(w.queries[a].query, schema, item.semantics));
    SQLEQ_ASSIGN_OR_RETURN(item.q2, Sql(w.queries[b].query, schema, item.semantics));
    item.cross_class = cross;
    item.atoms = w.queries[a].query.body().size() + w.queries[b].query.body().size();
    item.expect = !cross && item.semantics == Semantics::kSet
                      ? Expect::kEquivalentByConstruction
                      : Expect::kEngine;
    added.push_back(static_cast<uint32_t>(items->size()));
    items->push_back(std::move(item));
    return Status::OK();
  };
  for (size_t v : variants) {
    SQLEQ_RETURN_IF_ERROR(add(v, w.queries[v].class_id, false));
  }
  const size_t cross = variants.size() / 4;
  for (size_t made = 0, tries = 0; made < cross && tries < 100 * cross + 100; ++tries) {
    size_t a = rng.Index(w.queries.size());
    size_t b = rng.Index(w.queries.size());
    if (w.queries[a].class_id == w.queries[b].class_id) continue;
    SQLEQ_RETURN_IF_ERROR(add(a, b, true));
    ++made;
  }
  rng.Shuffle(&added);
  return added;
}

/// `order` rearranged so that every prefix holds the semantics and item
/// sizes in about the proportions of the whole: sorted by (semantics, size)
/// (ties keep their seed-shuffled order), then read with a stride near N/φ
/// that is coprime to N. Popularity ranks and request order built on it
/// have the same mix for every seed, so a seed changes which queries run,
/// not how heavy the mix is.
std::vector<uint32_t> Stratified(std::vector<uint32_t> order, const std::vector<Item>& items) {
  std::stable_sort(order.begin(), order.end(), [&items](uint32_t a, uint32_t b) {
    return std::make_pair(items[a].semantics, items[a].atoms) <
           std::make_pair(items[b].semantics, items[b].atoms);
  });
  const size_t n = order.size();
  size_t stride = std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * 0.6180339887));
  while (std::gcd(stride, n) != 1) ++stride;
  std::vector<uint32_t> out(n);
  for (size_t r = 0; r < n; ++r) out[r] = order[(r * stride) % n];
  return out;
}

/// Seed of the `k`-th generated sub-workload of a run.
uint64_t SubSeed(uint64_t seed, uint64_t k) {
  return seed * 1000003u + k * 7919u + 1;
}

Result<Corpus> MakeResident(uint64_t seed, double seconds) {
  Corpus c;
  c.workload = "check-resident";
  SQLEQ_ASSIGN_OR_RETURN(workload::SchemaTemplate t,
                         workload::MakeSchemaTemplate("warehouse"));
  c.ddl = TemplateDdl(t);
  SQLEQ_ASSIGN_OR_RETURN(sqleq::sql::Catalog catalog,
                         sqleq::sql::CatalogFromScript(c.ddl));
  workload::WorkloadOptions options;
  options.schema_template = "warehouse";
  options.seed = SubSeed(seed, 0);
  options.num_queries = kResidentQueries;
  options.overlap_rate = 0.8;
  options.max_join_depth = 4;
  SQLEQ_ASSIGN_OR_RETURN(workload::Workload w, workload::GenerateWorkload(options));
  Rng rng(SubSeed(seed, 1));
  size_t rotation = 0;
  SQLEQ_ASSIGN_OR_RETURN(std::vector<uint32_t> shuffled,
                         AppendPairs(w, catalog.schema, rng, &rotation, &c.items, 1));
  // Zipf(0.8) popularity over a stratified ranking of the items: skewed,
  // yet the most popular pairs have the corpus's size mix whatever the seed.
  const std::vector<uint32_t> order = Stratified(std::move(shuffled), c.items);
  std::vector<double> cdf(order.size());
  double total = 0.0;
  for (size_t r = 0; r < order.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 0.8);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> unit(0.0, total);
  const size_t length = std::max<size_t>(20000, static_cast<size_t>(seconds * 40000));
  c.stream.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    size_t r = std::lower_bound(cdf.begin(), cdf.end(), unit(rng.engine())) - cdf.begin();
    c.stream.push_back(order[std::min(r, order.size() - 1)]);
  }
  c.warmup = order;
  c.rss_after_requests = 40000;
  return c;
}

/// check-spill and fleet-check: tpch pairs at join depth 3..6, each block
/// of pairs requested once in order and once more shuffled, so the second
/// request of a pair comes a whole block later; one Appendix H request
/// every kDeepEvery positions.
Result<Corpus> MakeSpill(const std::string& name, uint64_t seed, double seconds) {
  Corpus c;
  c.workload = name;
  SQLEQ_ASSIGN_OR_RETURN(workload::SchemaTemplate t,
                         workload::MakeSchemaTemplate("tpch"));
  c.ddl = TemplateDdl(t) + AppendixHDdl(kAppendixHM);
  SQLEQ_ASSIGN_OR_RETURN(sqleq::sql::Catalog catalog,
                         sqleq::sql::CatalogFromScript(c.ddl));
  workload::WorkloadOptions options;
  options.schema_template = "tpch";
  options.num_queries = 120;
  options.overlap_rate = 0.6;
  options.min_join_depth = 3;
  options.max_join_depth = 6;

  Rng rng(SubSeed(seed, 1));
  size_t rotation = 0;
  uint64_t deep_constant = 100000;
  size_t deep_rotation = 0;
  auto next_deep = [&]() {
    c.items.push_back(DeepItem(deep_constant++, kRotation[deep_rotation++ % 3]));
    return static_cast<uint32_t>(c.items.size() - 1);
  };

  // Warm-up: one block of its own (requested once) plus one deep request
  // per semantics; nothing in it recurs in the timed stream.
  options.seed = SubSeed(seed, 2);
  SQLEQ_ASSIGN_OR_RETURN(workload::Workload warm, workload::GenerateWorkload(options));
  SQLEQ_ASSIGN_OR_RETURN(c.warmup,
                         AppendPairs(warm, catalog.schema, rng, &rotation, &c.items));
  for (int i = 0; i < 3; ++i) c.warmup.push_back(next_deep());

  // Working set of one reuse window: chase a sample of the first block in
  // process and scale its per-outcome bytes to the block.
  size_t block_queries = 0;
  const size_t target = std::max<size_t>(4000, static_cast<size_t>(seconds * 2500));
  for (uint64_t block = 0; c.stream.size() < target; ++block) {
    options.seed = SubSeed(seed, 100 + block);
    SQLEQ_ASSIGN_OR_RETURN(workload::Workload w, workload::GenerateWorkload(options));
    SQLEQ_ASSIGN_OR_RETURN(std::vector<uint32_t> pairs,
                           AppendPairs(w, catalog.schema, rng, &rotation, &c.items));
    if (block == 0) {
      block_queries = w.queries.size();
      sqleq::ChaseMemo memo(catalog.sigma, Semantics::kSet, catalog.schema, {});
      for (size_t i = 0; i < pairs.size() && i < 40; ++i) {
        Result<sqleq::sql::TranslatedQuery> q =
            sqleq::sql::TranslateSql(c.items[pairs[i]].q1, catalog);
        if (q.ok() && q->cq.has_value()) (void)memo.Chase(*q->cq);
      }
      sqleq::ChaseMemo::Stats s = memo.stats();
      const size_t per_outcome = s.entries == 0 ? 4096 : s.bytes / s.entries;
      // Each context (semantics) sees a third of the block's queries.
      c.working_set_bytes = per_outcome * block_queries / 3;
    }
    std::vector<uint32_t> repeat = pairs;
    rng.Shuffle(&repeat);
    for (const std::vector<uint32_t>* pass : {&pairs, &repeat}) {
      for (uint32_t p : *pass) {
        if ((c.stream.size() + 1) % kDeepEvery == 0) c.stream.push_back(next_deep());
        c.stream.push_back(p);
      }
    }
  }
  c.disk_tier = true;
  c.memo_bytes = std::max<size_t>(c.working_set_bytes / 8, 1024);
  c.rss_after_requests = 4000;
  if (name == "fleet-check") {
    c.fleet = true;
    c.shards = 2;
    c.workers_per_shard = 1;
    c.rss_after_requests = 3000;
  }
  return c;
}

/// reformulate: tpch and warehouse variant queries at join depth <= 4 in one
/// union catalog, each requested twice (once in its block, once more in the
/// block's shuffled repeat), semantics rotating per query.
Result<Corpus> MakeReformulate(uint64_t seed, double seconds) {
  Corpus c;
  c.workload = "reformulate";
  SQLEQ_ASSIGN_OR_RETURN(workload::SchemaTemplate tpch,
                         workload::MakeSchemaTemplate("tpch"));
  SQLEQ_ASSIGN_OR_RETURN(workload::SchemaTemplate warehouse,
                         workload::MakeSchemaTemplate("warehouse"));
  c.ddl = TemplateDdl(tpch) + TemplateDdl(warehouse);
  SQLEQ_ASSIGN_OR_RETURN(sqleq::sql::Catalog catalog,
                         sqleq::sql::CatalogFromScript(c.ddl));
  sqleq::ChasePlan plan(catalog.sigma, Semantics::kSet, catalog.schema);

  std::vector<std::vector<std::pair<ConjunctiveQuery, size_t>>> pools(2);
  const char* templates[2] = {"tpch", "warehouse"};
  for (size_t k = 0; k < 2; ++k) {
    workload::WorkloadOptions options;
    options.schema_template = templates[k];
    options.seed = SubSeed(seed, 10 + k);
    // About 60% of the generated queries survive as reformulate inputs;
    // generate enough that each distinct query recurs only about twice.
    options.num_queries = std::max<size_t>(400, static_cast<size_t>(seconds * 450));
    options.overlap_rate = 0.8;
    options.max_join_depth = 4;
    SQLEQ_ASSIGN_OR_RETURN(workload::Workload w, workload::GenerateWorkload(options));
    for (const workload::WorkloadQuery& wq : w.queries) {
      if (!wq.is_variant) continue;
      Result<sqleq::ChaseOutcome> u = plan.Run(wq.query);
      if (!u.ok() || u->failed || u->result.body().size() > kMaxPlanAtoms) continue;
      pools[k].emplace_back(wq.query, u->result.body().size());
    }
  }
  std::vector<uint32_t> distinct;
  size_t rotation = 0;
  for (size_t i = 0; i < std::max(pools[0].size(), pools[1].size()); ++i) {
    for (size_t k = 0; k < 2; ++k) {
      if (i >= pools[k].size()) continue;
      Item item;
      item.cmd = "reformulate";
      item.semantics = kRotation[rotation++ % 3];
      SQLEQ_ASSIGN_OR_RETURN(item.q1,
                             Sql(pools[k][i].first, catalog.schema, item.semantics));
      item.atoms = pools[k][i].second;
      item.expect = Expect::kReformulation;
      distinct.push_back(static_cast<uint32_t>(c.items.size()));
      c.items.push_back(std::move(item));
    }
  }
  if (distinct.size() < 2 * kReformulateWarmup) {
    return Status::Internal("reformulate corpus came out too small");
  }
  Rng rng(SubSeed(seed, 3));
  rng.Shuffle(&distinct);
  distinct = Stratified(std::move(distinct), c.items);
  c.warmup.assign(distinct.begin(), distinct.begin() + kReformulateWarmup);
  const size_t target = std::max<size_t>(400, static_cast<size_t>(seconds * 1000));
  constexpr size_t kBlock = 16;
  for (size_t start = 0; c.stream.size() < target; start += kBlock) {
    std::vector<uint32_t> block;
    for (size_t i = 0; i < kBlock; ++i) {
      const size_t k = (start + i) % (distinct.size() - kReformulateWarmup);
      block.push_back(distinct[kReformulateWarmup + k]);
    }
    std::vector<uint32_t> repeat = block;
    rng.Shuffle(&repeat);
    c.stream.insert(c.stream.end(), block.begin(), block.end());
    c.stream.insert(c.stream.end(), repeat.begin(), repeat.end());
  }
  c.clients = 1;
  c.workers_per_shard = 1;
  c.engine_threads = 2;
  c.max_candidates = kMaxCandidates;
  c.rss_after_requests = 4000;
  return c;
}

}  // namespace

Result<Corpus> MakeCorpus(const std::string& name, uint64_t seed, double seconds) {
  if (name == "check-resident") return MakeResident(seed, seconds);
  if (name == "check-spill" || name == "fleet-check") {
    return MakeSpill(name, seed, seconds);
  }
  if (name == "reformulate") return MakeReformulate(seed, seconds);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace e2ebench
