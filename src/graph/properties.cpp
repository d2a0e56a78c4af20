#include "graph/properties.hpp"

#include <algorithm>

#include "graph/union_find.hpp"

namespace ftspan {

namespace {

constexpr std::size_t kUnreached = static_cast<std::size_t>(-1);

/// Hop counts from `source` on G \ faults by BFS; kUnreached where no path
/// survives (everywhere when the source itself has failed).
std::vector<std::size_t> hop_counts(const Graph& g, Vertex source,
                                    const VertexSet* faults = nullptr) {
  std::vector<std::size_t> hops(g.num_vertices(), kUnreached);
  if (faults != nullptr && faults->contains(source)) return hops;
  std::vector<Vertex> queue{source};
  hops[source] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (const Arc& a : g.neighbors(v)) {
      if (hops[a.to] != kUnreached) continue;
      if (faults != nullptr && faults->contains(a.to)) continue;
      hops[a.to] = hops[v] + 1;
      queue.push_back(a.to);
    }
  }
  return hops;
}

}  // namespace

bool is_connected(const Graph& g, const VertexSet* faults) {
  return num_components(g, faults) <= 1;
}

std::size_t num_components(const Graph& g, const VertexSet* faults) {
  const std::size_t n = g.num_vertices();
  UnionFind uf(n);
  std::size_t dead = 0;
  for (Vertex v = 0; v < n; ++v)
    if (faults != nullptr && faults->contains(v)) ++dead;
  for (const Edge& e : g.edges()) {
    if (faults != nullptr && (faults->contains(e.u) || faults->contains(e.v)))
      continue;
    uf.unite(e.u, e.v);
  }
  // Components counted by union-find include each dead vertex as a singleton.
  return uf.num_components() - dead;
}

std::size_t hop_eccentricity(const Graph& g, Vertex v,
                             const VertexSet* faults) {
  std::size_t ecc = 0;
  for (const std::size_t h : hop_counts(g, v, faults))
    if (h != kUnreached) ecc = std::max(ecc, h);
  return ecc;
}

std::size_t hop_diameter(const Graph& g, const VertexSet* faults) {
  std::size_t d = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (faults != nullptr && faults->contains(v)) continue;
    d = std::max(d, hop_eccentricity(g, v, faults));
  }
  return d;
}

std::size_t weak_diameter(const Graph& g, const std::vector<Vertex>& subset) {
  std::size_t d = 0;
  for (Vertex v : subset) {
    const std::vector<std::size_t> hops = hop_counts(g, v);
    for (Vertex u : subset)
      if (hops[u] != kUnreached) d = std::max(d, hops[u]);
  }
  return d;
}

std::vector<std::size_t> degree_histogram(const Graph& g) {
  std::vector<std::size_t> hist(g.max_degree() + 1, 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) ++hist[g.degree(v)];
  return hist;
}

bool is_weakly_connected(const Digraph& g) {
  const std::size_t n = g.num_vertices();
  if (n <= 1) return true;
  UnionFind uf(n);
  for (const DiEdge& e : g.edges()) uf.unite(e.u, e.v);
  return uf.num_components() == 1;
}

}  // namespace ftspan
