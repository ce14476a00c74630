// Unit tests for weak acyclicity (Definition H.1).
#include "constraints/weak_acyclicity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace sqleq {
namespace {

using testing::Sigma;

TEST(WeakAcyclicity, EmptySigmaIsWeaklyAcyclic) {
  EXPECT_TRUE(IsWeaklyAcyclic({}));
}

TEST(WeakAcyclicity, EgdsContributeNothing) {
  DependencySet sigma = Sigma({"r(X, Y), r(X, Z) -> Y = Z."});
  EXPECT_TRUE(IsWeaklyAcyclic(sigma));
  EXPECT_TRUE(BuildDependencyGraph(sigma).empty());
}

TEST(WeakAcyclicity, SimpleAcyclicTgd) {
  DependencySet sigma = Sigma({"p(X, Y) -> s(X, Z)."});
  EXPECT_TRUE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, SelfLoopWithExistentialRejected) {
  // The textbook non-terminating tgd: p(X,Y) → ∃Z p(Y,Z).
  DependencySet sigma = Sigma({"p(X, Y) -> p(Y, Z)."});
  EXPECT_FALSE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, FullTgdCyclesAreFine) {
  // Cycles without special edges are allowed: p(X,Y) → p(Y,X).
  DependencySet sigma = Sigma({"p(X, Y) -> p(Y, X)."});
  EXPECT_TRUE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, TwoStepSpecialCycleRejected) {
  DependencySet sigma = Sigma({
      "p(X, Y) -> q(Y, Z).",  // special (p,?) ->* (q,1)
      "q(X, Y) -> p(Y, Z).",  // special back into p
  });
  EXPECT_FALSE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, DagOfSpecialEdgesAccepted) {
  DependencySet sigma = Sigma({
      "p(X, Y) -> q(Y, Z).",
      "q(X, Y) -> r(Y, Z).",
  });
  EXPECT_TRUE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, Example41SigmaIsWeaklyAcyclic) {
  EXPECT_TRUE(IsWeaklyAcyclic(testing::Example41Sigma()));
}

TEST(WeakAcyclicity, AppendixHFamilyIsWeaklyAcyclic) {
  // The σ(1)_{i,j} / σ(2)_{i,j} family of Example H.1 for m = 3: strictly
  // acyclic (indices only increase).
  DependencySet sigma = Sigma({
      "p1(X, Y) -> p2(Z, X).",
      "p1(X, Y) -> p2(Y, W).",
      "p1(X, Y) -> p3(Z, X).",
      "p1(X, Y) -> p3(Y, W).",
      "p2(X, Y) -> p3(Z, X).",
      "p2(X, Y) -> p3(Y, W).",
  });
  EXPECT_TRUE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, GraphEdgesClassifyRegularAndSpecial) {
  DependencySet sigma = Sigma({"p(X, Y) -> q(X, Z)."});
  std::vector<PositionEdge> edges = BuildDependencyGraph(sigma);
  bool saw_regular = false, saw_special = false;
  for (const PositionEdge& e : edges) {
    EXPECT_EQ(e.from.relation, "p");
    EXPECT_EQ(e.from.index, 0u);  // X occurs in p at position 0 only
    if (e.special) {
      saw_special = true;
      EXPECT_EQ(e.to, (Position{"q", 1}));
    } else {
      saw_regular = true;
      EXPECT_EQ(e.to, (Position{"q", 0}));
    }
  }
  EXPECT_TRUE(saw_regular);
  EXPECT_TRUE(saw_special);
}

TEST(WeakAcyclicity, BodyOnlyVariablesAddNoEdges) {
  // Y never reaches the head: no edges from (p, 1).
  DependencySet sigma = Sigma({"p(X, Y) -> q(X, X)."});
  for (const PositionEdge& e : BuildDependencyGraph(sigma)) {
    EXPECT_NE(e.from, (Position{"p", 1}));
  }
}

TEST(WeakAcyclicity, PositionToString) {
  EXPECT_EQ((Position{"p", 2}).ToString(), "(p, 2)");
}

// --- edge cases around self-loops, repeated existentials, egd/tgd mixing ---

TEST(WeakAcyclicity, SpecialEdgeIntoDeadEndPositionAccepted) {
  // p(X, Y) -> p(X, Z): regular self-loop on (p, 0) plus a special edge
  // (p, 0) =>* (p, 1) — but nothing ever leaves (p, 1) (Y is body-only), so
  // no cycle passes through the special edge. The chase saturates.
  DependencySet sigma = Sigma({"p(X, Y) -> p(X, Z)."});
  EXPECT_TRUE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, SpecialSelfLoopOnSinglePositionRejected) {
  // p(X, Y) -> p(Y, Z): Y sits at (p, 1) in the body and the existential Z
  // lands at (p, 1) in the head — a special edge from (p, 1) to itself, the
  // shortest possible special cycle.
  DependencySet sigma = Sigma({"p(X, Y) -> p(Y, Z)."});
  std::optional<SpecialCycle> cycle = FindSpecialCycle(sigma);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->edges.size(), 1u);  // self-loop: empty path back
  EXPECT_TRUE(cycle->edges.front().special);
  EXPECT_EQ(cycle->edges.front().from, (Position{"p", 1}));
  EXPECT_EQ(cycle->edges.front().to, (Position{"p", 1}));
  EXPECT_EQ(cycle->ToString(), "(p, 1) =>* (p, 1)");
}

TEST(WeakAcyclicity, RegularSelfLoopAloneAccepted) {
  // p(X, Y) -> p(Y, X) has regular self-loops only (both head vars
  // universal): weakly acyclic even though every position is on a cycle.
  DependencySet sigma = Sigma({"p(X, Y) -> p(Y, X).", "p(X, X) -> p(X, X)."});
  EXPECT_TRUE(IsWeaklyAcyclic(sigma));
  EXPECT_FALSE(FindSpecialCycle(sigma).has_value());
}

TEST(WeakAcyclicity, RepeatedExistentialVariableMakesOneSpecialTargetPerPosition) {
  // The same existential Z fills two head positions: both are special
  // targets of (p, 0).
  DependencySet sigma = Sigma({"p(X, Y) -> q(X, Z, Z)."});
  std::vector<PositionEdge> edges = BuildDependencyGraph(sigma);
  size_t special = 0;
  for (const PositionEdge& e : edges) {
    if (e.special) {
      ++special;
      EXPECT_EQ(e.from, (Position{"p", 0}));
      EXPECT_EQ(e.to.relation, "q");
      EXPECT_TRUE(e.to.index == 1 || e.to.index == 2);
    }
  }
  EXPECT_EQ(special, 2u);
  EXPECT_TRUE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, RepeatedExistentialClosingCycleRejected) {
  DependencySet sigma = Sigma({
      "p(X, Y) -> q(X, Z, Z).",
      "q(X, Y, W) -> p(Y, X).",  // (q,1) flows back into (p,0)
  });
  EXPECT_FALSE(IsWeaklyAcyclic(sigma));
}

TEST(WeakAcyclicity, EgdsMixedWithTgdsCreateNoSpecialEdges) {
  // The egd touches the same predicates as the tgds but must contribute no
  // edges at all: the verdict is identical with and without it.
  DependencySet tgds = Sigma({
      "p(X, Y) -> q(Y, Z).",
      "q(X, Y) -> r(Y).",
  });
  DependencySet mixed = Sigma({
      "p(X, Y) -> q(Y, Z).",
      "q(X, Y) -> r(Y).",
      "q(X, Y), q(X, Z) -> Y = Z.",
  });
  EXPECT_EQ(BuildDependencyGraph(tgds).size(), BuildDependencyGraph(mixed).size());
  EXPECT_TRUE(IsWeaklyAcyclic(mixed));

  DependencySet bad_mixed = Sigma({
      "p(X, Y) -> p(Y, Z).",
      "p(X, Y), p(X, Z) -> Y = Z.",
  });
  EXPECT_FALSE(IsWeaklyAcyclic(bad_mixed));
}

// --- witness cycles ---

TEST(SpecialCycleWitness, SelfLoopWitnessIsSingleEdge) {
  std::optional<SpecialCycle> cycle =
      FindSpecialCycle(Sigma({"p(X, Y) -> p(Y, Z)."}));
  ASSERT_TRUE(cycle.has_value());
  ASSERT_GE(cycle->edges.size(), 1u);
  EXPECT_TRUE(cycle->edges.front().special);
  // The remaining edges lead from the special target back to the source.
  EXPECT_EQ(cycle->edges.back().to, cycle->edges.front().from);
}

TEST(SpecialCycleWitness, TwoStepWitnessRoundTrips) {
  std::optional<SpecialCycle> cycle = FindSpecialCycle(Sigma({
      "p(X, Y) -> q(Y, Z).",
      "q(X, Y) -> p(Y, Z).",
  }));
  ASSERT_TRUE(cycle.has_value());
  EXPECT_TRUE(cycle->edges.front().special);
  EXPECT_EQ(cycle->edges.back().to, cycle->edges.front().from);
  std::string text = cycle->ToString();
  EXPECT_NE(text.find("=>*"), std::string::npos) << text;
}

TEST(SpecialCycleWitness, DeterministicAcrossCalls) {
  DependencySet sigma = Sigma({
      "p(X, Y) -> q(Y, Z).",
      "q(X, Y) -> p(Y, Z).",
      "r(X, Y) -> r(Y, Z).",
  });
  std::optional<SpecialCycle> a = FindSpecialCycle(sigma);
  std::optional<SpecialCycle> b = FindSpecialCycle(sigma);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->ToString(), b->ToString());
}

// --- stratification ---

TEST(Stratification, WeaklyAcyclicImpliesStratified) {
  StratificationResult r = CheckStratification(Sigma({"p(X, Y) -> q(X, Z)."}));
  EXPECT_TRUE(r.weakly_acyclic);
  EXPECT_TRUE(r.stratified);
  EXPECT_FALSE(r.witness.has_value());
  EXPECT_TRUE(r.offending_component.empty());
}

TEST(Stratification, SelfFiringSpecialLoopNotStratified) {
  StratificationResult r = CheckStratification(Sigma({"p(X, Y) -> p(Y, Z)."}));
  EXPECT_FALSE(r.weakly_acyclic);
  EXPECT_FALSE(r.stratified);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(r.witness->edges.front().special);
  EXPECT_EQ(r.offending_component, std::vector<size_t>{0});
}

TEST(Stratification, MutualRecursionReportsBothMembers) {
  StratificationResult r = CheckStratification(Sigma({
      "p(X, Y) -> q(Y, Z).",
      "q(X, Y) -> p(Y, Z).",
  }));
  EXPECT_FALSE(r.stratified);
  EXPECT_EQ(r.offending_component, (std::vector<size_t>{0, 1}));
}

TEST(Stratification, ConstantClashSeversFiringEdge) {
  // Globally there is a special cycle (p,0) =>* (q,1) -> (p,0), but the
  // first tgd only writes q-tuples ending in 2 while the second only reads
  // q-tuples ending in 3: the firing graph is acyclic, every component is
  // weakly acyclic on its own, and the chase terminates by stratification.
  StratificationResult r = CheckStratification(Sigma({
      "p(X, 1) -> q(X, Z, 2).",
      "q(X, Y, 3) -> p(Y, 1).",
  }));
  EXPECT_FALSE(r.weakly_acyclic);
  EXPECT_TRUE(r.stratified);
  // The informational witness carries the global cycle.
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(r.witness->edges.front().special);
  EXPECT_TRUE(r.offending_component.empty());
}

TEST(Stratification, MatchingConstantsKeepFiringEdge) {
  // Same shape but the constants agree: the cycle is real.
  StratificationResult r = CheckStratification(Sigma({
      "p(X, 1) -> q(X, Z, 2).",
      "q(X, Y, 2) -> p(Y, 1).",
  }));
  EXPECT_FALSE(r.weakly_acyclic);
  EXPECT_FALSE(r.stratified);
  EXPECT_EQ(r.offending_component, (std::vector<size_t>{0, 1}));
}

TEST(Stratification, EgdBridgesComponents) {
  // The egd rewrites q-tuples (wildcard writes), so it may enable the
  // q-reader even though the q-writer's constants clash — the egd glues all
  // three into one component and the cycle is flagged.
  StratificationResult r = CheckStratification(Sigma({
      "p(X, 1) -> q(X, Z, 2).",
      "q(X, Y, 3) -> p(Y, 1).",
      "q(X, Y, W), q(X, Y2, W2) -> Y = Y2.",
  }));
  EXPECT_FALSE(r.weakly_acyclic);
  EXPECT_FALSE(r.stratified);
}

// ---- The linear special-cycle search against the BFS reference ----------

/// The search before it went through one Tarjan pass: a BFS from the target
/// of every special edge, in edge order, back to its source.
std::optional<std::vector<PositionEdge>> ReferencePath(
    const std::vector<PositionEdge>& edges, const Position& src, const Position& dst) {
  if (src == dst) return std::vector<PositionEdge>{};
  std::map<Position, std::vector<const PositionEdge*>> adj;
  for (const PositionEdge& e : edges) adj[e.from].push_back(&e);
  std::map<Position, const PositionEdge*> parent;
  std::vector<Position> frontier{src};
  std::set<Position> visited{src};
  while (!frontier.empty()) {
    std::vector<Position> next;
    for (const Position& cur : frontier) {
      auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (const PositionEdge* e : it->second) {
        if (!visited.insert(e->to).second) continue;
        parent[e->to] = e;
        if (e->to == dst) {
          std::vector<PositionEdge> path;
          for (Position at = dst; !(at == src); at = parent[at]->from) {
            path.push_back(*parent[at]);
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        next.push_back(e->to);
      }
    }
    frontier = std::move(next);
  }
  return std::nullopt;
}

std::optional<SpecialCycle> ReferenceSpecialCycle(const std::vector<PositionEdge>& edges) {
  for (const PositionEdge& e : edges) {
    if (!e.special) continue;
    std::optional<std::vector<PositionEdge>> back = ReferencePath(edges, e.to, e.from);
    if (!back.has_value()) continue;
    SpecialCycle cycle;
    cycle.edges.push_back(e);
    cycle.edges.insert(cycle.edges.end(), back->begin(), back->end());
    return cycle;
  }
  return std::nullopt;
}

StratificationResult ReferenceStratification(const DependencySet& sigma) {
  StratificationResult out;
  out.weakly_acyclic = !ReferenceSpecialCycle(BuildDependencyGraph(sigma)).has_value();
  out.stratified = true;
  if (out.weakly_acyclic) return out;
  for (const std::vector<size_t>& component : FiringComponents(sigma)) {
    DependencySet subset;
    for (size_t i : component) subset.push_back(sigma[i]);
    std::optional<SpecialCycle> cycle = ReferenceSpecialCycle(BuildDependencyGraph(subset));
    if (!cycle.has_value()) continue;
    out.stratified = false;
    out.witness = std::move(cycle);
    out.offending_component = component;
    return out;
  }
  out.witness = ReferenceSpecialCycle(BuildDependencyGraph(sigma));
  return out;
}

std::string Render(const std::optional<SpecialCycle>& cycle) {
  return cycle.has_value() ? cycle->ToString() : "none";
}

/// A random Σ of 1-6 draws over p/2, q/3 and r/1: tgds with one or two
/// body atoms, one or two head atoms, existential head variables and
/// constants, the occasional key egd, and the occasional pair of tgds whose
/// special cycle clashing constants cut.
DependencySet RandomSigma(Rng* rng) {
  const std::vector<std::pair<std::string, int>> relations = {{"p", 2}, {"q", 3}, {"r", 1}};
  auto atom = [&](const std::vector<std::string>& vars) {
    const auto& [name, arity] = relations[rng->Index(relations.size())];
    std::string out = name + "(";
    for (int i = 0; i < arity; ++i) {
      if (i > 0) out += ", ";
      out += rng->Chance(0.3) ? std::to_string(rng->UniformInt(1, 2))
                              : vars[rng->Index(vars.size())];
    }
    return out + ")";
  };
  std::vector<std::string> deps;
  int count = rng->UniformInt(1, 6);
  for (int d = 0; d < count; ++d) {
    if (rng->Chance(0.15)) {
      deps.push_back("q(X, Y, Z), q(X, Y, W) -> Z = W.");
      continue;
    }
    if (rng->Chance(0.2)) {
      // A special cycle through q that constants may cut in the firing
      // graph: stratified exactly when the two constants differ.
      deps.push_back("p(X, 1) -> q(X, Z, " + std::to_string(rng->UniformInt(1, 2)) + ").");
      deps.push_back("q(X, Y, " + std::to_string(rng->UniformInt(1, 2)) + ") -> p(Y, 1).");
      continue;
    }
    std::string body = atom({"X", "Y", "Z"});
    if (rng->Chance(0.4)) body += ", " + atom({"X", "Y", "Z"});
    std::string head = atom({"X", "Y", "U", "V"});
    if (rng->Chance(0.4)) head += ", " + atom({"X", "Y", "U", "V"});
    deps.push_back(body + " -> " + head + ".");
  }
  return Sigma(deps);
}

TEST(WeakAcyclicity, LinearSearchMatchesBfsReferenceOnRandomSigma) {
  Rng rng(20091);
  size_t cyclic = 0, unstratified = 0;
  for (int round = 0; round < 400; ++round) {
    DependencySet sigma = RandomSigma(&rng);
    std::string context = SigmaToString(sigma);
    std::optional<SpecialCycle> expected = ReferenceSpecialCycle(BuildDependencyGraph(sigma));
    EXPECT_EQ(Render(FindSpecialCycle(sigma)), Render(expected)) << context;
    EXPECT_EQ(IsWeaklyAcyclic(sigma), !expected.has_value()) << context;
    StratificationResult got = CheckStratification(sigma);
    StratificationResult want = ReferenceStratification(sigma);
    EXPECT_EQ(got.weakly_acyclic, want.weakly_acyclic) << context;
    EXPECT_EQ(got.stratified, want.stratified) << context;
    EXPECT_EQ(Render(got.witness), Render(want.witness)) << context;
    EXPECT_EQ(got.offending_component, want.offending_component) << context;
    cyclic += expected.has_value() ? 1 : 0;
    unstratified += want.stratified ? 0 : 1;
  }
  // The generator reaches every branch: acyclic, cyclic-but-stratified and
  // unstratified inputs all occur.
  EXPECT_GT(cyclic, 100u);
  EXPECT_GT(unstratified, 50u);
  EXPECT_GT(cyclic, unstratified + 10);
  EXPECT_LT(cyclic, 300u);
}

}  // namespace
}  // namespace sqleq
