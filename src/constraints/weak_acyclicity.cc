#include "constraints/weak_acyclicity.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace sqleq {
namespace {

/// The tgd indices of `sigma` restricted to `members` (all of Σ when
/// `members` is empty is NOT implied — callers pass the full index range).
std::vector<PositionEdge> BuildGraphForSubset(const DependencySet& sigma,
                                              const std::vector<size_t>& members) {
  DependencySet subset;
  subset.reserve(members.size());
  for (size_t i : members) subset.push_back(sigma[i]);
  return BuildDependencyGraph(subset);
}

/// Shortest path from `src` to `dst` along `edges`, as the edge sequence,
/// or nullopt when unreachable. BFS with parent-edge tracking keeps the
/// witness minimal and deterministic.
std::optional<std::vector<PositionEdge>> FindPath(
    const std::vector<PositionEdge>& edges, const Position& src,
    const Position& dst) {
  if (src == dst) return std::vector<PositionEdge>{};
  std::map<Position, std::vector<const PositionEdge*>> adj;
  for (const PositionEdge& e : edges) adj[e.from].push_back(&e);

  std::map<Position, const PositionEdge*> parent;  // position -> edge used to reach it
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
          Position at = dst;
          while (!(at == src)) {
            const PositionEdge* pe = parent[at];
            path.push_back(*pe);
            at = pe->from;
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

/// Strongly connected components of the graph with adjacency lists
/// `succ`, by iterative Tarjan, each in the order it was popped.
std::vector<std::vector<size_t>> TarjanComponents(
    const std::vector<std::vector<size_t>>& succ) {
  const size_t n = succ.size();
  constexpr size_t kUnvisited = static_cast<size_t>(-1);
  std::vector<size_t> index(n, kUnvisited), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  std::vector<std::vector<size_t>> components;
  size_t next_index = 0;

  struct Frame {
    size_t v;
    size_t child = 0;
  };
  for (size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    std::vector<Frame> frames{{root}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < succ[f.v].size()) {
        size_t w = succ[f.v][f.child++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        if (lowlink[f.v] == index[f.v]) {
          std::vector<size_t> component;
          size_t w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component.push_back(w);
          } while (w != f.v);
          components.push_back(std::move(component));
        }
        size_t v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] = std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }
  return components;
}

/// A special-edge cycle in the given edge set, or nullopt. A special edge
/// lies on a cycle iff its endpoints share a strongly connected component,
/// so one Tarjan pass decides the question; the BFS runs only to build the
/// witness of the first such edge in edge order: that edge, then the
/// shortest path from its target back to its source.
std::optional<SpecialCycle> FindSpecialCycleInGraph(
    const std::vector<PositionEdge>& edges) {
  std::map<Position, size_t> ids;
  std::vector<std::pair<size_t, size_t>> ends;
  ends.reserve(edges.size());
  std::vector<std::vector<size_t>> succ;
  for (const PositionEdge& e : edges) {
    size_t from = ids.emplace(e.from, ids.size()).first->second;
    size_t to = ids.emplace(e.to, ids.size()).first->second;
    succ.resize(ids.size());
    succ[from].push_back(to);
    ends.emplace_back(from, to);
  }
  std::vector<size_t> component_of(succ.size());
  std::vector<std::vector<size_t>> components = TarjanComponents(succ);
  for (size_t c = 0; c < components.size(); ++c) {
    for (size_t v : components[c]) component_of[v] = c;
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    const PositionEdge& e = edges[i];
    if (!e.special || component_of[ends[i].first] != component_of[ends[i].second]) {
      continue;
    }
    std::optional<std::vector<PositionEdge>> back = FindPath(edges, e.to, e.from);
    SpecialCycle cycle;
    cycle.edges.push_back(e);
    cycle.edges.insert(cycle.edges.end(), back->begin(), back->end());
    return cycle;
  }
  return std::nullopt;
}

}  // namespace

std::vector<WrittenAtomView> DependencyWrites(const Dependency& dep) {
  std::vector<WrittenAtomView> out;
  if (dep.IsTgd()) {
    for (const Atom& h : dep.tgd().head()) out.push_back({&h, false});
  } else {
    for (const Atom& b : dep.egd().body()) out.push_back({&b, true});
  }
  return out;
}

bool MayMatchAtom(const WrittenAtomView& written, const Atom& read) {
  const Atom& w = *written.atom;
  if (w.predicate() != read.predicate() || w.arity() != read.arity()) return false;
  if (written.wildcard) return true;
  for (size_t i = 0; i < w.arity(); ++i) {
    const Term& a = w.args()[i];
    const Term& b = read.args()[i];
    if (!a.IsVariable() && !b.IsVariable() && !(a == b)) return false;
  }
  return true;
}

/// Tarjan over the may-match firing graph.
std::vector<std::vector<size_t>> FiringComponents(const DependencySet& sigma) {
  size_t n = sigma.size();
  std::vector<std::vector<WrittenAtomView>> writes(n);
  for (size_t i = 0; i < n; ++i) writes[i] = DependencyWrites(sigma[i]);
  std::vector<std::vector<size_t>> succ(n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      bool fires = false;
      for (const WrittenAtomView& w : writes[a]) {
        for (const Atom& r : sigma[b].body()) {
          if (MayMatchAtom(w, r)) {
            fires = true;
            break;
          }
        }
        if (fires) break;
      }
      if (fires) succ[a].push_back(b);
    }
  }

  std::vector<std::vector<size_t>> components = TarjanComponents(succ);
  for (std::vector<size_t>& component : components) {
    std::sort(component.begin(), component.end());
  }
  std::sort(components.begin(), components.end());
  return components;
}

std::string SpecialCycle::ToString() const {
  if (edges.empty()) return "(empty cycle)";
  std::string out = edges.front().from.ToString();
  for (const PositionEdge& e : edges) {
    out += e.special ? " =>* " : " -> ";
    out += e.to.ToString();
  }
  return out;
}

std::vector<PositionEdge> BuildDependencyGraph(const DependencySet& sigma) {
  std::vector<PositionEdge> edges;
  for (const Dependency& dep : sigma) {
    if (!dep.IsTgd()) continue;
    const Tgd& tgd = dep.tgd();
    std::unordered_set<Term, TermHash> existential;
    for (Term v : tgd.ExistentialVariables()) existential.insert(v);

    // For every universal variable X occurring in the head, and for every
    // occurrence of X in the body at position (R, i):
    //   (a) regular edge to each head occurrence of X,
    //   (b) special edge to each head position holding an existential var.
    std::unordered_set<Term, TermHash> head_universals;
    for (const Atom& h : tgd.head()) {
      for (Term t : h.args()) {
        if (t.IsVariable() && existential.count(t) == 0) head_universals.insert(t);
      }
    }
    for (const Atom& b : tgd.body()) {
      for (size_t i = 0; i < b.arity(); ++i) {
        Term x = b.args()[i];
        if (!x.IsVariable() || head_universals.count(x) == 0) continue;
        Position from{b.predicate(), i};
        for (const Atom& h : tgd.head()) {
          for (size_t j = 0; j < h.arity(); ++j) {
            Term y = h.args()[j];
            if (!y.IsVariable()) continue;
            Position to{h.predicate(), j};
            if (y == x) {
              edges.push_back({from, to, /*special=*/false});
            } else if (existential.count(y) > 0) {
              edges.push_back({from, to, /*special=*/true});
            }
          }
        }
      }
    }
  }
  return edges;
}

std::optional<SpecialCycle> FindSpecialCycle(const DependencySet& sigma) {
  return FindSpecialCycleInGraph(BuildDependencyGraph(sigma));
}

bool IsWeaklyAcyclic(const DependencySet& sigma) {
  return !FindSpecialCycle(sigma).has_value();
}

StratificationResult CheckStratification(const DependencySet& sigma) {
  StratificationResult out;
  std::optional<SpecialCycle> global = FindSpecialCycle(sigma);
  out.weakly_acyclic = !global.has_value();
  if (out.weakly_acyclic) {
    out.stratified = true;
    return out;
  }
  out.stratified = true;
  for (const std::vector<size_t>& component : FiringComponents(sigma)) {
    std::vector<PositionEdge> edges = BuildGraphForSubset(sigma, component);
    std::optional<SpecialCycle> cycle = FindSpecialCycleInGraph(edges);
    if (!cycle.has_value()) continue;
    out.stratified = false;
    out.witness = std::move(cycle);
    out.offending_component = component;
    return out;
  }
  // Not weakly acyclic, yet every firing component is: stratified, chase
  // still terminates. Surface the global cycle as an informational witness.
  out.witness = std::move(global);
  return out;
}

}  // namespace sqleq
