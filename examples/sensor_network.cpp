// Sensor-network scenario: edge (link) failures and approximate distance
// queries.
//
// Wireless links fail far more often than sensor nodes, so here the fault
// model is EDGE faults: we build an r-edge-fault-tolerant 3-spanner of a
// random geometric network (ft_edge_greedy_spanner in
// ftspanner/conversion.hpp — the Theorem 2.1 conversion with edges
// oversampled instead of vertices), knock out random link sets, and measure
// detours. A Thorup–Zwick distance oracle built on the backbone answers
// route-length queries in O(k) time without storing all-pairs tables.
#include <cstdio>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/sp_engine.hpp"
#include "spanner/distance_oracle.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ftspan;

int main() {
  const std::size_t n = 250;
  const std::size_t r = 2;  // tolerate any 2 simultaneous link failures
  const double k = 3.0;

  const Graph net = random_geometric(n, 0.13, /*seed=*/21);
  std::printf("sensor network: %zu nodes, %zu links, connected: %s\n",
              net.num_vertices(), net.num_edges(),
              is_connected(net) ? "yes" : "no");

  ConversionOptions opt;
  opt.iteration_constant = 0.5;
  const auto ft = ft_edge_greedy_spanner(net, k, r, /*seed=*/22, opt);
  const Graph backbone = net.edge_subgraph(ft.edges);
  std::printf("edge-fault-tolerant backbone: %zu links (%.1f%%), "
              "%zu oversampling iterations\n",
              backbone.num_edges(),
              100.0 * backbone.num_edges() / net.num_edges(), ft.iterations);

  // Link-failure scenarios: fail r random backbone links, compare detours.
  Rng rng(23);
  Table t({"scenario", "failed links", "routes", "mean detour", "max detour"});
  DijkstraEngine on_net, on_bb;
  for (int scenario = 1; scenario <= 5; ++scenario) {
    // Failed links as edge-id bitsets of each graph.
    VertexSet dead_net(net.num_edges());
    VertexSet dead_bb(backbone.num_edges());
    std::size_t failed = 0;
    while (failed < r) {
      const EdgeId bb = static_cast<EdgeId>(rng.uniform_index(backbone.num_edges()));
      if (dead_bb.contains(bb)) continue;
      dead_bb.insert(bb);
      const Edge& e = backbone.edge(bb);
      dead_net.insert(*net.edge_id(e.u, e.v));
      ++failed;
    }

    Stats detour;
    std::size_t routes = 0;
    for (int i = 0; i < 400 && routes < 120; ++i) {
      const Vertex a = static_cast<Vertex>(rng.uniform_index(n));
      const Vertex b = static_cast<Vertex>(rng.uniform_index(n));
      if (a == b) continue;
      const Vertex target[1] = {b};
      on_net.run_avoiding_edges(net, a, dead_net, target);
      on_bb.run_avoiding_edges(backbone, a, dead_bb, target);
      const Weight dn = on_net.dist(b), db = on_bb.dist(b);
      if (dn >= kInfiniteWeight || dn <= 0) continue;
      if (db >= kInfiniteWeight) {
        std::printf("  !! backbone lost a route (should not happen)\n");
        continue;
      }
      detour.add(db / dn);
      ++routes;
    }
    t.row()
        .cell(scenario)
        .cell(failed)
        .cell(routes)
        .cell(detour.mean(), 3)
        .cell(detour.max(), 3);
  }
  t.print();

  // Distance oracle on the backbone: constant-time approximate queries.
  const DistanceOracle oracle(backbone, /*k=*/2, /*seed=*/24);
  DijkstraEngine eng;
  Stats ratio;
  for (int i = 0; i < 200; ++i) {
    const Vertex a = static_cast<Vertex>(rng.uniform_index(n));
    const Vertex b = static_cast<Vertex>(rng.uniform_index(n));
    if (a == b) continue;
    const Weight exact = eng.bounded_pair(backbone, a, b);
    if (exact >= kInfiniteWeight || exact <= 0) continue;
    ratio.add(oracle.query(a, b) / exact);
  }
  std::printf("\ndistance oracle on backbone (k=2, stretch <= 3): "
              "%zu entries (vs %zu for all-pairs), observed stretch mean "
              "%.3f max %.3f\n",
              oracle.size(), n * n, ratio.mean(), ratio.max());
  return 0;
}
