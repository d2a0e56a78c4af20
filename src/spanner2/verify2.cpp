#include "spanner2/verify2.hpp"

#include <algorithm>
#include <limits>
#include <span>

namespace ftspan {

std::size_t spanner_two_paths(const Digraph& g,
                              const std::vector<char>& in_spanner, Vertex u,
                              Vertex v) {
  std::size_t count = 0;
  for (const Arc& a : g.out_neighbors(u)) {
    if (a.to == v || !in_spanner[a.edge]) continue;
    const auto second = g.edge_id(a.to, v);
    if (second && in_spanner[*second]) ++count;
  }
  return count;
}

bool edge_satisfied(const Digraph& g, const std::vector<char>& in_spanner,
                    EdgeId id, std::size_t r) {
  if (in_spanner[id]) return true;
  const DiEdge& e = g.edge(id);
  return spanner_two_paths(g, in_spanner, e.u, e.v) >= r + 1;
}

bool is_ft_2spanner(const Digraph& g, const std::vector<char>& in_spanner,
                    std::size_t r) {
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (!edge_satisfied(g, in_spanner, id, r)) return false;
  return true;
}

std::vector<EdgeId> unsatisfied_edges(const Digraph& g,
                                      const std::vector<char>& in_spanner,
                                      std::size_t r) {
  std::vector<EdgeId> out;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (!edge_satisfied(g, in_spanner, id, r)) out.push_back(id);
  return out;
}

double spanner_cost(const Digraph& g, const std::vector<char>& in_spanner) {
  double c = 0;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (in_spanner[id]) c += g.edge(id).w;
  return c;
}

bool is_ft_2spanner_by_definition(const Digraph& g,
                                  const std::vector<char>& in_spanner,
                                  std::size_t r, std::size_t max_fault_sets) {
  // H \ F must 2-span G \ F in hops (costs only price the objective): each
  // surviving arc (u,v) is kept, or a kept u->z->v survives, z outside F.
  const std::size_t n = g.num_vertices();
  std::vector<char> failed(n, 0);
  bool valid = true;
  for_each_fault_set(
      "is_ft_2spanner_by_definition", /*edge_faults=*/false, n, r,
      max_fault_sets, [&](std::span<const Vertex> faults) {
        for (const Vertex f : faults) failed[f] = 1;
        for (EdgeId id = 0; valid && id < g.num_edges(); ++id) {
          const DiEdge& e = g.edge(id);
          if (failed[e.u] || failed[e.v] || in_spanner[id]) continue;
          bool spanned = false;
          for (const Arc& a : g.out_neighbors(e.u)) {
            if (a.to == e.v || failed[a.to] || !in_spanner[a.edge]) continue;
            const auto second = g.edge_id(a.to, e.v);
            if (second && in_spanner[*second]) {
              spanned = true;
              break;
            }
          }
          valid = spanned;
        }
        for (const Vertex f : faults) failed[f] = 0;
      });
  return valid;
}

namespace {

/// Cost of completing the 2-path u -> mid -> v (cost of arcs not yet in the
/// spanner), or infinity if some arc is missing from G.
double completion_cost(const Digraph& g, const std::vector<char>& in_spanner,
                       Vertex u, Vertex mid, Vertex v) {
  const auto first = g.edge_id(u, mid);
  const auto second = g.edge_id(mid, v);
  if (!first || !second) return std::numeric_limits<double>::infinity();
  double c = 0;
  if (!in_spanner[*first]) c += g.edge(*first).w;
  if (!in_spanner[*second]) c += g.edge(*second).w;
  return c;
}

}  // namespace

std::size_t greedy_repair(const Digraph& g, std::vector<char>& in_spanner,
                          std::size_t r) {
  std::size_t added = 0;
  // Fixing one edge only ever adds arcs, which cannot unsatisfy another
  // edge, so a single pass over edges suffices.
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (edge_satisfied(g, in_spanner, id, r)) continue;
    const DiEdge& e = g.edge(id);

    // Option (b): complete the cheapest *incomplete* 2-paths until r+1
    // spanner paths exist. Every midpoint in G is completable; paths already
    // complete in the spanner are counted by `have`.
    const std::vector<Vertex> mids = g.two_path_midpoints(e.u, e.v);
    const std::size_t have = spanner_two_paths(g, in_spanner, e.u, e.v);
    const std::size_t need = r + 1 - have;  // > 0 since unsatisfied

    std::vector<std::pair<double, Vertex>> incomplete;  // (cost, midpoint)
    for (Vertex mid : mids) {
      const double c = completion_cost(g, in_spanner, e.u, mid, e.v);
      if (c > 0) incomplete.emplace_back(c, mid);
    }
    std::sort(incomplete.begin(), incomplete.end());

    const bool paths_possible = incomplete.size() >= need;
    double path_cost = 0;
    if (paths_possible)
      for (std::size_t i = 0; i < need; ++i) path_cost += incomplete[i].first;

    if (!paths_possible || e.w <= path_cost) {
      in_spanner[id] = 1;
      ++added;
    } else {
      for (std::size_t i = 0; i < need; ++i) {
        const Vertex mid = incomplete[i].second;
        const auto first = g.edge_id(e.u, mid);
        const auto second = g.edge_id(mid, e.v);
        if (!in_spanner[*first]) {
          in_spanner[*first] = 1;
          ++added;
        }
        if (!in_spanner[*second]) {
          in_spanner[*second] = 1;
          ++added;
        }
      }
    }
  }
  return added;
}

std::vector<char> greedy_ft_2spanner(const Digraph& g, std::size_t r) {
  std::vector<char> in_spanner(g.num_edges(), 0);
  greedy_repair(g, in_spanner, r);
  return in_spanner;
}

}  // namespace ftspan
