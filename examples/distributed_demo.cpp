// Distributed demo: the LOCAL-model algorithms end to end.
//
// 1. Padded decomposition of a grid (Lemma 3.7) by message flooding.
// 2. Distributed Baswana-Sen spanner (the base algorithm of Theorem 2.3).
// 3. Distributed fault-tolerant conversion (Theorem 2.3).
// 4. Distributed 2-spanner (Algorithm 2 / Theorem 3.9).
#include <cstdio>

#include "graph/generators.hpp"
#include "local/dist_2spanner.hpp"
#include "local/dist_spanner.hpp"
#include "local/padded_decomposition.hpp"
#include "validate/stretch_oracle.hpp"

using namespace ftspan;
using namespace ftspan::local;

int main() {
  // --- 1. Padded decomposition on a 12x12 grid. ---
  {
    const Graph g = grid(12, 12);
    RunStats stats;
    const auto d = distributed_padded_decomposition(g, /*seed=*/3, {}, &stats);
    std::size_t padded = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) padded += is_padded(g, d, v);
    std::printf("[1] padded decomposition of 12x12 grid: %zu clusters, "
                "max diameter %zu, padded %zu/%zu, %zu LOCAL rounds, %zu msgs\n",
                d.centers().size(), max_cluster_diameter(g, d), padded,
                g.num_vertices(), stats.rounds, stats.messages);
  }

  // --- 2. Distributed Baswana-Sen 3-spanner. ---
  const Graph g = gnp(100, 0.15, /*seed=*/4);
  {
    const auto res = distributed_baswana_sen(g, 2, /*seed=*/5);
    const Graph h = g.edge_subgraph(res.edges);
    const bool ok = StretchOracle(g, h, 3.0).check_exact(0).valid;
    std::printf("[2] distributed Baswana-Sen on G(100, .15): %zu -> %zu edges "
                "in %zu rounds; 3-spanner: %s\n",
                g.num_edges(), res.edges.size(), res.stats.rounds,
                ok ? "yes" : "NO");
  }

  // --- 3. Distributed FT conversion (Theorem 2.3), r = 1. ---
  {
    const auto res = distributed_ft_spanner(g, 2, 1, /*seed=*/6);
    const Graph h = g.edge_subgraph(res.edges);
    const auto check =
        StretchOracle(g, h, 3.0).check_sampled(1, 30, 50, /*seed=*/7);
    std::printf("[3] distributed 1-FT 3-spanner: %zu edges, %zu iterations, "
                "%zu rounds; sampled validity: %s\n",
                res.edges.size(), res.iterations, res.stats.rounds,
                check.valid ? "yes" : "NO");
  }

  // --- 4. Algorithm 2 on a small directed overlay. ---
  {
    const Digraph d = di_gnp(14, 0.4, /*seed=*/8);
    const auto res = distributed_ft_2spanner(d, 1, /*seed=*/9);
    std::printf("[4] Algorithm 2 (distributed 1-FT 2-spanner) on G(14,.4): "
                "cost %.1f, x~ cost %.1f, %zu rounds over %zu iterations, "
                "valid: %s\n",
                res.cost, res.x_tilde_cost, res.stats.rounds, res.iterations,
                res.valid ? "yes" : "NO");
  }
  return 0;
}
