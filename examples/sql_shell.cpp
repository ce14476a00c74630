// End-to-end scripted session: load a SQL schema + data, evaluate queries
// under the semantics the SQL standard assigns them, prove/refute
// equivalences under the DDL-induced dependencies, rewrite over materialized
// views, and rank the reformulations with the cost model.
#include <cstdio>

#include "db/eval.h"
#include "ir/parser.h"
#include "equivalence/engine.h"
#include "reformulation/candb.h"
#include "reformulation/cost.h"
#include "reformulation/views.h"
#include "sql/render.h"
#include "sql/translate.h"

namespace {

void Check(const sqleq::Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(sqleq::Result<T> r) {
  Check(r.status());
  return std::move(r).value();
}

/// Q1 ≡Σ,X Q2 through a throwaway EquivalenceEngine (replaces the
/// deprecated per-semantics wrappers).
sqleq::Result<bool> Equivalent(const sqleq::ConjunctiveQuery& q1,
                               const sqleq::ConjunctiveQuery& q2,
                               const sqleq::DependencySet& sigma,
                               sqleq::Semantics semantics,
                               const sqleq::Schema& schema) {
  sqleq::EquivalenceEngine engine;
  SQLEQ_ASSIGN_OR_RETURN(
      sqleq::EquivVerdict verdict,
      engine.Equivalent(q1, q2, sqleq::EquivRequest{semantics, sigma, schema}));
  return sqleq::VerdictToBool(verdict);
}

}  // namespace

int main() {
  using namespace sqleq;

  // ---- 1. Load schema and data. ----
  sql::LoadedDatabase loaded = Unwrap(sql::LoadScript(R"(
    CREATE TABLE customer (cid INT PRIMARY KEY, region TEXT);
    CREATE TABLE orders (oid INT PRIMARY KEY, cid INT, total INT,
                         FOREIGN KEY (cid) REFERENCES customer (cid));
    CREATE TABLE clicks (cid INT, page TEXT);
    INSERT INTO customer VALUES (1, 'eu'), (2, 'us');
    INSERT INTO orders VALUES (100, 1, 30), (101, 1, 50), (102, 2, 20);
    INSERT INTO clicks VALUES (1, 'home');
    INSERT INTO clicks VALUES (1, 'home');
    INSERT INTO clicks VALUES (2, 'search');
  )"));
  const sql::Catalog& catalog = loaded.catalog;
  std::printf("Loaded instance:\n%s\n", loaded.database.ToString().c_str());

  // ---- 2. Evaluate a query under its SQL semantics. ----
  sql::TranslatedQuery q = Unwrap(sql::TranslateSql(
      "SELECT c.cid FROM customer c, clicks k WHERE c.cid = k.cid", catalog));
  std::printf("query     : %s\n", q.ToString().c_str());
  Bag answer = Unwrap(Evaluate(*q.cq, loaded.database, q.semantics));
  std::printf("answer    : %s  (clicks is a bag: duplicates survive)\n\n",
              answer.ToString().c_str());

  // ---- 3. Equivalence under the DDL-induced dependencies. ----
  sql::TranslatedQuery lhs = Unwrap(sql::TranslateSql(
      "SELECT o.oid FROM orders o, customer c WHERE o.cid = c.cid", catalog));
  sql::TranslatedQuery rhs =
      Unwrap(sql::TranslateSql("SELECT o.oid FROM orders o", catalog));
  bool equivalent = Unwrap(Equivalent(*lhs.cq, *rhs.cq, catalog.sigma,
                                      lhs.semantics, catalog.schema));
  std::printf("fk+key prove the customer join redundant (no DISTINCT needed): %s\n\n",
              equivalent ? "yes" : "no");

  // ---- 4. Minimize with C&B and rank by cost. ----
  CandBResult candb = Unwrap(ChaseAndBackchase(*lhs.cq, catalog.sigma, lhs.semantics,
                                               catalog.schema));
  CostModel model;
  model.SetRows("orders", 1e6).SetRows("customer", 1e4).SetRows("clicks", 1e8);
  std::printf("C&B outputs (%zu candidates examined):\n", candb.candidates_examined);
  for (const ConjunctiveQuery& reform : candb.reformulations) {
    CostEstimate cost = EstimateCost(reform, model);
    std::printf("  %-60s cost=%.0f\n",
                Unwrap(sql::RenderSql(reform, catalog.schema, lhs.semantics)).c_str(),
                cost.intermediate_tuples);
  }
  std::optional<size_t> best = PickCheapest(candb.reformulations, model);
  if (best.has_value()) {
    std::printf("cheapest: %s\n\n",
                Unwrap(sql::RenderSql(candb.reformulations[*best], catalog.schema,
                                      lhs.semantics))
                    .c_str());
  }

  // ---- 5. Rewrite over materialized views. ----
  ViewSet views;
  Check(views.Add(Unwrap(
      ParseQuery("v_cust_orders(O, C, R) :- orders(O, C, T), customer(C, R)."))));
  sql::TranslatedQuery vq = Unwrap(sql::TranslateSql(
      "SELECT o.oid, c.region FROM orders o, customer c WHERE o.cid = c.cid",
      catalog));
  RewriteResult rewrites = Unwrap(RewriteWithViews(
      *vq.cq, views, catalog.sigma, vq.semantics, catalog.schema));
  std::printf("rewritings of the orders-customer join over v_cust_orders:\n");
  for (const ConjunctiveQuery& r : rewrites.rewritings) {
    std::printf("  %s\n", r.ToString().c_str());
  }
  return 0;
}
