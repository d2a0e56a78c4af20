#include "ftspanner/baselines.hpp"

#include <algorithm>
#include <stdexcept>

#include "spanner/greedy.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"  // count_fault_sets

namespace ftspan {

std::vector<EdgeId> union_over_faults_spanner(const Graph& g, std::size_t r,
                                              const BaseSpanner& base,
                                              std::uint64_t seed,
                                              std::size_t max_fault_sets) {
  const std::size_t n = g.num_vertices();
  if (count_fault_sets(n, r) > max_fault_sets)
    throw std::runtime_error(
        "union_over_faults_spanner: too many fault sets for the exact union");

  Rng rng(seed);
  std::vector<char> in_spanner(g.num_edges(), 0);

  // Enumerate fault sets of size exactly 0..r.
  for (std::size_t size = 0; size <= std::min(r, n); ++size) {
    std::vector<Vertex> comb(size);
    for (std::size_t i = 0; i < size; ++i) comb[i] = static_cast<Vertex>(i);
    while (true) {
      VertexSet faults(n);
      for (Vertex v : comb) faults.insert(v);
      for (EdgeId id : base(g, &faults, rng())) in_spanner[id] = 1;

      if (size == 0) break;
      std::size_t i = size;
      while (i > 0) {
        --i;
        if (comb[i] != static_cast<Vertex>(n - size + i)) break;
        if (i == 0) {
          i = size;
          break;
        }
      }
      if (i == size) break;
      ++comb[i];
      for (std::size_t j = i + 1; j < size; ++j)
        comb[j] = static_cast<Vertex>(comb[j - 1] + 1);
    }
  }

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
