// Cross-module integration and property tests: each test here ties two or
// more subsystems together (e.g. branch-and-bound against brute-force
// enumeration, LP solutions against the constraint family they were
// separated from, the conversion over a different base construction).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ftspanner/conversion.hpp"
#include "ftspanner/edge_faults.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/sp_engine.hpp"
#include "spanner/distance_oracle.hpp"
#include "spanner/thorup_zwick.hpp"
#include "spanner2/exact_bb.hpp"
#include "spanner2/formulation.hpp"
#include "spanner2/rounding.hpp"
#include "spanner2/verify2.hpp"
#include "support/reference_sp.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

// --- exact branch & bound vs brute force over all edge subsets ---

double brute_force_opt(const Digraph& g, std::size_t r) {
  const std::size_t m = g.num_edges();
  double best = kInfiniteWeight;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    std::vector<char> in(m, 0);
    double cost = 0;
    for (std::size_t e = 0; e < m; ++e)
      if (mask >> e & 1) {
        in[e] = 1;
        cost += g.edge(static_cast<EdgeId>(e)).w;
      }
    if (cost >= best) continue;
    if (is_ft_2spanner(g, in, r)) best = cost;
  }
  return best;
}

TEST(Crosscutting, ExactBbMatchesBruteForce) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const Digraph g = di_gnp(5, 0.6, seed, 3.0);
    if (g.num_edges() > 14) continue;  // keep 2^m manageable
    for (std::size_t r : {0u, 1u}) {
      const double brute = brute_force_opt(g, r);
      const auto bb = exact_min_ft_2spanner(g, r);
      ASSERT_TRUE(bb.proven_optimal);
      EXPECT_NEAR(bb.cost, brute, 1e-6) << "seed=" << seed << " r=" << r;
    }
  }
}

// --- LP (4) optimum satisfies every knapsack-cover inequality ---

TEST(Crosscutting, Lp4SolutionSurvivesFullSeparation) {
  for (std::uint64_t seed : {5ull, 6ull}) {
    const Digraph g = di_gnp(10, 0.4, seed);
    const std::size_t r = 2;
    TwoSpannerLp lp = build_two_spanner_lp(g, r);
    const SeparationOracle oracle = knapsack_cover_oracle(lp);
    CuttingPlaneOptions opt;
    const auto res = solve_with_cuts(lp.model, oracle, opt);
    ASSERT_EQ(res.solution.status, LpStatus::kOptimal);
    // The oracle must find nothing at the returned optimum...
    EXPECT_TRUE(oracle(res.solution.x).empty());
    // ...and the model's own constraints must hold numerically.
    EXPECT_LT(lp.model.max_violation(res.solution.x), 1e-6);
  }
}

// --- conversion theorem over the Thorup–Zwick base (Theorem 2.1 is
//     generic in the base construction) ---

TEST(Crosscutting, ConversionOverThorupZwickBase) {
  const Graph g = gnp(14, 0.6, 7);
  const BaseSpanner base = [](const Graph& graph, const VertexSet* mask,
                              std::uint64_t seed) {
    return thorup_zwick_spanner(graph, 2, seed, mask);
  };
  const auto res = fault_tolerant_spanner(g, 1, base, 11);
  const Graph h = g.edge_subgraph(res.edges);
  const auto check = StretchOracle(g, h, 3.0).check_exact(1);
  EXPECT_TRUE(check.valid) << check.worst_stretch;
}

// --- vertex-FT implies the spanner also handles single *edge* faults on
//     2-connected remainders? Not in general — but an (r=2)-vertex-FT
//     spanner tolerates any single edge fault: failing one endpoint of the
//     edge is at least as damaging as failing the edge, for pairs avoiding
//     that endpoint. We test the implication we can prove: the r-vertex-FT
//     spanner passes the sampled *edge*-fault check with r_edge = 1 when
//     its stretch certificates avoid single vertices (observed empirically
//     on these instances). ---

TEST(Crosscutting, VertexFtSpannerSurvivesSingleEdgeFaultsEmpirically) {
  const Graph g = complete(12);
  const auto res = ft_greedy_spanner(g, 3.0, 2, 13);
  const Graph h = g.edge_subgraph(res.edges);
  const auto check = check_edge_ft_spanner_exact(g, h, 3.0, 1);
  EXPECT_TRUE(check.valid) << check.worst_stretch;
}

// --- distance oracle built on a spanner: stretches compose ---

TEST(Crosscutting, OracleOnSpannerComposesStretch) {
  const Graph g = gnp_connected(40, 0.2, 17, 4.0);
  const Graph h = g.edge_subgraph(thorup_zwick_spanner(g, 2, 19));  // 3-spanner
  const DistanceOracle oracle(h, 2, 23);  // stretch 3 on h
  for (Vertex u = 0; u < 40; u += 3) {
    const auto exact = test::reference_dijkstra(g, u);
    for (Vertex v = 1; v < 40; v += 3) {
      if (u == v) continue;
      // Composition: oracle(u,v) <= 3 * d_h(u,v) <= 9 * d_g(u,v).
      EXPECT_LE(oracle.query(u, v), 9.0 * exact.dist[v] + 1e-9);
      EXPECT_GE(oracle.query(u, v), exact.dist[v] - 1e-9);
    }
  }
}

// --- rounding on the undirectable: bidirected instances should cost at
//     most twice their undirected counterpart's LP bound ---

TEST(Crosscutting, BidirectedLpTwiceUndirectedHeuristicBound) {
  const Graph g = gnp(12, 0.5, 29);
  const Digraph d = bidirect(g);
  const auto lp = solve_lp4(d, 1);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  // Any undirected r-FT 2-spanner E'' yields a directed one of double cost;
  // greedy on the undirected side gives such an E''.
  Digraph d_unit = bidirect(g);
  const auto greedy_directed = greedy_ft_2spanner(d_unit, 1);
  EXPECT_LE(lp.value, spanner_cost(d_unit, greedy_directed) + 1e-6);
}

// --- conversion size grows with r under the default (r-scaled) iteration
//     count. (At a FIXED iteration budget this can fail: higher r keeps
//     fewer survivors per iteration, shrinking each contribution.) ---

TEST(Crosscutting, ConversionSizeMonotoneInRWithDefaultIterations) {
  const Graph g = complete(24);
  ConversionOptions opt;
  opt.iteration_constant = 0.25;  // practical preset; keeps runtime small
  std::size_t prev = 0;
  for (std::size_t r : {1u, 2u, 4u}) {
    const auto res = ft_greedy_spanner(g, 3.0, r, 31, opt);
    // Allow 10% slack for sampling noise.
    EXPECT_GE(res.edges.size() * 11, prev * 10) << "r=" << r;
    prev = res.edges.size();
  }
}

// --- validators agree: sampled check never passes what exact rejects
//     (on the same fault model and instance) ---

TEST(Crosscutting, SampledCheckIsWeakerThanExact) {
  const Graph g = complete(10);
  const Graph star_h = star(10);
  const StretchOracle oracle(g, star_h, 2.0);
  const auto exact = oracle.check_exact(1);
  ASSERT_FALSE(exact.valid);
  // Sampled with an adversary finds it too (the converse need not hold).
  const auto sampled = oracle.check_sampled(1, 10, 40, /*seed=*/3);
  EXPECT_FALSE(sampled.valid);
}

// --- fault masks and subgraph_without agree for distances ---

TEST(Crosscutting, MaskAndMaterializedSubgraphAgree) {
  const Graph g = gnp_connected(30, 0.2, 37, 5.0);
  VertexSet f(30, {3, 11, 22});
  const Graph without = g.subgraph_without(f);
  DijkstraEngine masked;
  for (Vertex u : {0u, 7u, 29u}) {
    masked.run(g, u, &f);
    const auto materialized = test::reference_dijkstra(without, u);
    for (Vertex v = 0; v < 30; ++v) {
      if (f.contains(v) || f.contains(u)) continue;
      EXPECT_EQ(masked.dist(v), materialized.dist[v])
          << "u=" << u << " v=" << v;
    }
  }
}

// --- LP (4) value is monotone in r ---

TEST(Crosscutting, Lp4MonotoneInR) {
  const Digraph g = di_gnp(12, 0.45, 41);
  double prev = -1;
  for (std::size_t r : {0u, 1u, 2u, 3u}) {
    const auto res = solve_lp4(g, r);
    ASSERT_EQ(res.status, LpStatus::kOptimal);
    EXPECT_GE(res.value, prev - 1e-7) << "r=" << r;
    prev = res.value;
  }
}

// --- greedy repair is idempotent ---

TEST(Crosscutting, GreedyRepairIdempotent) {
  const Digraph g = di_gnp(12, 0.4, 43);
  std::vector<char> in(g.num_edges(), 0);
  greedy_repair(g, in, 2);
  auto snapshot = in;
  EXPECT_EQ(greedy_repair(g, in, 2), 0u);
  EXPECT_EQ(in, snapshot);
}

}  // namespace
}  // namespace ftspan
