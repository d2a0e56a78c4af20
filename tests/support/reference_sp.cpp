#include "support/reference_sp.hpp"

#include <functional>
#include <queue>
#include <utility>

namespace ftspan::test {

namespace {

template <class G, class Out>
ReferenceTree dijkstra_over(const G& g, Vertex source, const VertexSet* faults,
                            Weight bound, Out out) {
  const std::size_t n = g.num_vertices();
  ReferenceTree t{std::vector<Weight>(n, kInfiniteWeight),
                  std::vector<Vertex>(n, kInvalidVertex)};
  const auto failed = [faults](Vertex v) {
    return faults != nullptr && faults->contains(v);
  };
  if (failed(source)) return t;

  using Entry = std::pair<Weight, Vertex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::vector<bool> done(n, false);
  t.dist[source] = 0;
  queue.emplace(0, source);
  while (!queue.empty()) {
    const Vertex u = queue.top().second;
    queue.pop();
    if (done[u]) continue;  // stale entry: u was settled at a smaller key
    done[u] = true;
    for (const Arc& a : out(g, u)) {
      if (done[a.to] || failed(a.to)) continue;
      const Weight nd = t.dist[u] + a.w;
      if (nd > bound || nd >= t.dist[a.to]) continue;
      t.dist[a.to] = nd;
      t.parent[a.to] = u;
      queue.emplace(nd, a.to);
    }
  }
  return t;
}

template <class G, class Out>
bool tight_over(const G& g, const ReferenceTree& ref, Vertex p, Vertex v,
                Out out) {
  if (!ref.reachable(p)) return false;
  for (const Arc& a : out(g, p))
    if (a.to == v && ref.dist[p] + a.w == ref.dist[v]) return true;
  return false;
}

const auto undirected = [](const Graph& g, Vertex v) {
  return g.neighbors(v);
};
const auto directed = [](const Digraph& g, Vertex v) {
  return g.out_neighbors(v);
};

}  // namespace

ReferenceTree reference_dijkstra(const Graph& g, Vertex source,
                                 const VertexSet* faults, Weight bound) {
  return dijkstra_over(g, source, faults, bound, undirected);
}

ReferenceTree reference_dijkstra(const Digraph& g, Vertex source,
                                 const VertexSet* faults, Weight bound) {
  return dijkstra_over(g, source, faults, bound, directed);
}

bool is_tight_parent(const Graph& g, const ReferenceTree& ref, Vertex p,
                     Vertex v) {
  return tight_over(g, ref, p, v, undirected);
}

bool is_tight_parent(const Digraph& g, const ReferenceTree& ref, Vertex p,
                     Vertex v) {
  return tight_over(g, ref, p, v, directed);
}

}  // namespace ftspan::test
