#include "spanner/greedy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/sp_engine.hpp"
#include "support/reference_sp.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

TEST(GreedySpanner, RejectsBadStretch) {
  EXPECT_THROW(greedy_spanner(path(3), 0.5), std::invalid_argument);
  // A NaN or infinite k keeps no edge at all; both are refused instead.
  EXPECT_THROW(greedy_spanner(path(3), std::nan("")), std::invalid_argument);
  EXPECT_THROW(greedy_spanner(path(3), kInfiniteWeight), std::invalid_argument);
}

TEST(GreedyWorkspace, SetEngineRejectsInvalidBucketMax) {
  GreedyWorkspace ws;
  for (const Weight b : {-1.0, 0.0, 0.5, std::nan(""), kInfiniteWeight})
    EXPECT_THROW(ws.set_engine(SpEnginePolicy::kAuto, b),
                 std::invalid_argument)
        << b;
  EXPECT_NO_THROW(ws.set_engine(SpEnginePolicy::kDelta, 1.0));
}

TEST(GreedySpanner, TreeIsKeptEntirely) {
  // A tree has no redundant edges; any k-spanner must keep all of them.
  const Graph g = path(20);
  EXPECT_EQ(greedy_spanner(g, 3.0).size(), g.num_edges());
}

TEST(GreedySpanner, CompleteGraphStretch3IsSparse) {
  const Graph g = complete(40);
  const auto edges = greedy_spanner(g, 3.0);
  // K_n with unit weights: a 3-spanner can be a star (n-1 edges); the greedy
  // kept-edge set has girth > 4 so it is far below n²/2.
  EXPECT_LT(edges.size(), g.num_edges() / 4);
  const Graph h = g.edge_subgraph(edges);
  EXPECT_TRUE(StretchOracle(g, h, 3.0).check_exact(0).valid);
}

TEST(GreedySpanner, StretchOneKeepsShortestPathsExactly) {
  const Graph g = gnp_connected(30, 0.3, 7, 5.0);
  const Graph h = greedy_spanner_graph(g, 1.0);
  EXPECT_TRUE(StretchOracle(g, h, 1.0).check_exact(0).valid);
}

TEST(GreedySpanner, GirthProperty) {
  // Greedy k-spanner has girth > k+1: every kept edge, when added, had no
  // alternative path of length <= k*w. For unit weights and k = 3 that
  // forbids triangles and 4-cycles.
  const Graph g = gnp(40, 0.3, 11);
  const Graph h = greedy_spanner_graph(g, 3.0);
  for (const Edge& e : h.edges()) {
    // Remove e; the remaining distance must exceed 3.
    Graph without(h.num_vertices());
    for (const Edge& f : h.edges())
      if (f.u != e.u || f.v != e.v) without.add_edge(f.u, f.v, f.w);
    EXPECT_GT(DijkstraEngine().bounded_pair(without, e.u, e.v, nullptr, 3.0),
              3.0);
  }
}

// The naive greedy: a materialized spanner Graph, one textbook bounded
// Dijkstra per candidate (tests/support/reference_sp.hpp, which sums every
// path forward from the candidate's u), and "keep iff d > k·w". It visits
// `order` (ids into g) and skips the edges a fault touches.
std::vector<EdgeId> reference_greedy(const Graph& g, double k,
                                     const std::vector<EdgeId>& order,
                                     const VertexSet* faults) {
  Graph h(g.num_vertices());
  std::vector<EdgeId> kept;
  for (const EdgeId id : order) {
    const Edge& e = g.edge(id);
    if (faults != nullptr && (faults->contains(e.u) || faults->contains(e.v)))
      continue;
    const Weight kw = k * e.w;
    const Weight d =
        test::reference_dijkstra(h, e.u, faults, kw * (1 + kStretchSlack))
            .dist[e.v];
    if (d > kw) {
      h.add_edge(e.u, e.v, e.w);
      kept.push_back(id);
    }
  }
  return kept;
}

// Decimal weights 0.1/0.2/0.3 at k = 2 and 3 put many paths right at k·w:
// (0.1 + 0.2) + 0.3 = 0.6000000000000001 but 0.1 + (0.2 + 0.3) = 0.6 =
// 2 · 0.3, so whether a candidate is kept depends on the summation order.
// The greedy's decision stops its search at the first path within k·w; it
// must still keep exactly the edges the naive forward greedy keeps, in
// weight order with and without a fault mask and in a shuffled order of
// the caller's choosing, and the near-ties must really have been re-run in
// forward order. (An acceptance threshold of exactly k·w would reject a
// candidate whose two-half sum is 0.6 while its forward sum is
// 0.6000000000000001: 5 of these 24 instances would then keep other edges.)
TEST(GreedyWorkspace, NearTiesDecideAsTheForwardGreedy) {
  const Weight levels[] = {0.1, 0.2, 0.3};
  std::uint64_t fallbacks = 0, early = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Graph base = gnp(40, 0.15, seed);
    Graph g(base.num_vertices());
    Rng rng(hash_combine(seed, 0x71e));
    for (const Edge& e : base.edges())
      g.add_edge(e.u, e.v, levels[rng.uniform_index(3)]);
    const GreedyContext ctx(g);
    std::vector<EdgeId> by_weight;
    for (const GreedyContext::OrderedEdge& e : ctx.sorted)
      by_weight.push_back(e.id);
    std::vector<EdgeId> shuffled = by_weight;
    rng.shuffle(shuffled);
    VertexSet faults(g.num_vertices());
    for (int i = 0; i < 3; ++i)
      faults.insert(static_cast<Vertex>(rng.uniform_index(40)));

    for (const double k : {2.0, 3.0}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " k=" + std::to_string(k));
      EXPECT_EQ(greedy_spanner(g, k),
                reference_greedy(g, k, by_weight, nullptr));
      EXPECT_EQ(greedy_spanner(g, k, &faults),
                reference_greedy(g, k, by_weight, &faults));
      GreedyWorkspace ws;
      const auto kept = ws.run(ctx, k, std::span<const EdgeId>(shuffled));
      EXPECT_EQ(std::vector<EdgeId>(kept.begin(), kept.end()),
                reference_greedy(g, k, shuffled, nullptr));
      fallbacks += ws.counters().tie_fallbacks;
      early += ws.counters().accepted_early;
    }
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(early, 0u);
}

TEST(GreedySpanner, FaultMaskRestrictsSpanner) {
  const Graph g = complete(20);
  VertexSet f(20, {0, 1, 2});
  const auto edges = greedy_spanner(g, 3.0, &f);
  for (EdgeId id : edges) {
    EXPECT_FALSE(f.contains(g.edge(id).u));
    EXPECT_FALSE(f.contains(g.edge(id).v));
  }
  // And it spans the survivors.
  const Graph h = g.edge_subgraph(edges);
  EXPECT_TRUE(StretchOracle(g, h, 3.0).evaluate_sets({f}).valid);
}

TEST(GreedySpanner, WeightedStretchRespected) {
  const Graph g = gnp_connected(35, 0.25, 13, 8.0);
  for (double k : {2.0, 3.0, 5.0}) {
    const Graph h = greedy_spanner_graph(g, k);
    EXPECT_TRUE(StretchOracle(g, h, k).check_exact(0).valid) << "k=" << k;
  }
}

TEST(GreedySpanner, SizeBoundFormula) {
  EXPECT_NEAR(greedy_size_bound(100, 3.0), std::pow(100.0, 1.5), 1e-9);
  EXPECT_NEAR(greedy_size_bound(64, 7.0), std::pow(64.0, 1.25), 1e-9);
}

TEST(GreedySpanner, SizeWithinTheoreticalBound) {
  // O(n^{1+2/(k+1)}) with a modest constant; verify constant <= 4 here.
  for (std::uint64_t seed : {1ull, 2ull}) {
    const Graph g = gnp(200, 0.2, seed);
    const auto edges = greedy_spanner(g, 3.0);
    EXPECT_LT(static_cast<double>(edges.size()),
              4.0 * greedy_size_bound(200, 3.0));
  }
}

TEST(GreedySpanner, MonotoneInStretch) {
  const Graph g = gnp(60, 0.3, 17);
  const auto s3 = greedy_spanner(g, 3.0);
  const auto s5 = greedy_spanner(g, 5.0);
  const auto s9 = greedy_spanner(g, 9.0);
  EXPECT_GE(s3.size(), s5.size());
  EXPECT_GE(s5.size(), s9.size());
}

// Property sweep: greedy output is always a valid k-spanner.
class GreedySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, double, int>> {};

TEST_P(GreedySweep, AlwaysValid) {
  const auto [n, p, k, seed] = GetParam();
  const Graph g = gnp(n, p, static_cast<std::uint64_t>(seed), 4.0);
  const Graph h = greedy_spanner_graph(g, k);
  EXPECT_TRUE(StretchOracle(g, h, k).check_exact(0).valid);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GreedySweep,
    ::testing::Combine(::testing::Values<std::size_t>(10, 30, 60),
                       ::testing::Values(0.1, 0.4),
                       ::testing::Values(3.0, 5.0, 7.0),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace ftspan
