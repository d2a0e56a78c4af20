#include "ftspanner/baselines.hpp"

#include <algorithm>

#include "spanner/greedy.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"  // for_each_fault_set

namespace ftspan {

std::vector<EdgeId> union_over_faults_spanner(const Graph& g, std::size_t r,
                                              const BaseSpanner& base,
                                              std::uint64_t seed,
                                              std::size_t max_fault_sets) {
  const std::size_t n = g.num_vertices();
  Rng rng(seed);
  std::vector<char> in_spanner(g.num_edges(), 0);
  VertexSet faults(n);
  for_each_fault_set("union_over_faults_spanner", /*edge_faults=*/false, n, r,
                     max_fault_sets, [&](std::span<const Vertex> f) {
                       faults.clear();
                       for (const Vertex v : f) faults.insert(v);
                       for (EdgeId id : base(g, &faults, rng()))
                         in_spanner[id] = 1;
                     });

  std::vector<EdgeId> out;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (in_spanner[id]) out.push_back(id);
  return out;
}

std::vector<EdgeId> layered_greedy_spanner(const Graph& g, double k,
                                           std::size_t r) {
  // One edge-weight sort for all layers; each layer is one greedy pass of a
  // pooled workspace over the edges no earlier layer took, in weight order.
  const GreedyContext ctx(g);
  GreedyWorkspace ws;
  std::vector<char> taken(g.num_edges(), 0);
  std::vector<EdgeId> order, out;
  for (std::size_t layer = 0; layer <= r; ++layer) {
    order.clear();
    for (const GreedyContext::OrderedEdge& e : ctx.sorted)
      if (!taken[e.id]) order.push_back(e.id);
    for (const EdgeId id : ws.run(ctx, k, order)) {
      taken[id] = 1;
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ftspan
