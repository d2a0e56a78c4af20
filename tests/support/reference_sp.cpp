#include "support/reference_sp.hpp"

#include <functional>
#include <queue>
#include <utility>

namespace ftspan::test {

ReferenceTree reference_dijkstra(const Graph& g, Vertex source,
                                 const VertexSet* faults, Weight bound) {
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
    for (const Arc& a : g.neighbors(u)) {
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

bool is_tight_parent(const Graph& g, const ReferenceTree& ref, Vertex p,
                     Vertex v) {
  if (!ref.reachable(p)) return false;
  for (const Arc& a : g.neighbors(p))
    if (a.to == v && ref.dist[p] + a.w == ref.dist[v]) return true;
  return false;
}

}  // namespace ftspan::test
