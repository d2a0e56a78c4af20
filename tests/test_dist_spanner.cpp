#include "local/dist_spanner.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan::local {
namespace {

using ftspan::Graph;
using ftspan::VertexSet;
using ftspan::StretchOracle;

TEST(DistBaswanaSen, K1TakesWholeGraph) {
  const Graph g = ftspan::gnp(20, 0.3, 1);
  const auto res = distributed_baswana_sen(g, 1, 7);
  EXPECT_EQ(res.edges.size(), g.num_edges());
  EXPECT_EQ(res.stats.rounds, 0u);  // purely local
}

TEST(DistBaswanaSen, Stretch3OnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph g = ftspan::gnp(50, 0.25, seed);
    const auto res = distributed_baswana_sen(g, 2, seed * 11);
    const Graph h = g.edge_subgraph(res.edges);
    EXPECT_TRUE(StretchOracle(g, h, 3.0).check_exact(0).valid)
        << "seed=" << seed;
  }
}

TEST(DistBaswanaSen, Stretch5) {
  for (std::uint64_t seed : {4ull, 5ull}) {
    const Graph g = ftspan::gnp(50, 0.3, seed);
    const auto res = distributed_baswana_sen(g, 3, seed);
    const Graph h = g.edge_subgraph(res.edges);
    EXPECT_TRUE(StretchOracle(g, h, 5.0).check_exact(0).valid);
  }
}

TEST(DistBaswanaSen, SparsifiesDenseGraph) {
  const Graph g = ftspan::complete(60);
  const auto res = distributed_baswana_sen(g, 2, 9);
  EXPECT_LT(res.edges.size(), g.num_edges() / 2);
}

TEST(DistBaswanaSen, RoundsQuadraticInK) {
  const Graph g = ftspan::gnp(40, 0.3, 11);
  const auto k2 = distributed_baswana_sen(g, 2, 1);
  const auto k4 = distributed_baswana_sen(g, 4, 1);
  // Per phase: phase flood rounds + 2 info + 2 announce; joining adds 2.
  // k=2: 1 phase -> 1+4 + 2 = 7; k=4: 3 phases -> (1+4)+(2+4)+(3+4) + 2 = 20.
  EXPECT_EQ(k2.stats.rounds, 7u);
  EXPECT_EQ(k4.stats.rounds, 20u);
}

TEST(DistBaswanaSen, FaultMaskRespected) {
  const Graph g = ftspan::gnp(30, 0.4, 13);
  VertexSet f(30, {0, 7, 19});
  const auto res = distributed_baswana_sen(g, 2, 13, &f);
  for (auto id : res.edges) {
    EXPECT_FALSE(f.contains(g.edge(id).u));
    EXPECT_FALSE(f.contains(g.edge(id).v));
  }
  const Graph h = g.edge_subgraph(res.edges);
  EXPECT_TRUE(StretchOracle(g, h, 3.0).evaluate_sets({f}).valid);
}

TEST(DistFtSpanner, ExactFaultToleranceSmall) {
  const Graph g = ftspan::gnp(12, 0.6, 17);
  const auto res = distributed_ft_spanner(g, 2, 1, 19);
  const Graph h = g.edge_subgraph(res.edges);
  const auto check = StretchOracle(g, h, 3.0).check_exact(1);
  EXPECT_TRUE(check.valid) << "worst " << check.worst_stretch;
}

TEST(DistFtSpanner, IterationCountMatchesTheorem) {
  const Graph g = ftspan::gnp(16, 0.5, 23);
  ftspan::ConversionOptions opt;
  opt.iteration_constant = 0.5;
  const auto res = distributed_ft_spanner(g, 2, 2, 23, opt);
  EXPECT_EQ(res.iterations, ftspan::conversion_iterations(2, 16, 0.5));
  // Rounds scale with iterations (each iteration ~ O(k²) + 1 rounds).
  EXPECT_GE(res.stats.rounds, res.iterations * 8);
}

TEST(DistFtSpanner, UnionGrowsWithR) {
  const Graph g = ftspan::complete(14);
  ftspan::ConversionOptions opt;
  opt.iterations = 30;
  const auto r1 = distributed_ft_spanner(g, 2, 1, 3, opt);
  Graph h1 = g.edge_subgraph(r1.edges);
  // More iterations/faults should not shrink the spanner on average; at
  // minimum the r=1 spanner is a valid 3-spanner.
  EXPECT_TRUE(StretchOracle(g, h1, 3.0).check_exact(0).valid);
}

class DistBsSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistBsSweep, StretchBound) {
  const auto [k, seed] = GetParam();
  const Graph g = ftspan::gnp(40, 0.3, static_cast<std::uint64_t>(seed));
  const auto res = distributed_baswana_sen(
      g, static_cast<std::size_t>(k), static_cast<std::uint64_t>(seed) * 5);
  const Graph h = g.edge_subgraph(res.edges);
  EXPECT_TRUE(StretchOracle(g, h, 2.0 * k - 1.0).check_exact(0).valid);
}

INSTANTIATE_TEST_SUITE_P(Grid, DistBsSweep,
                         ::testing::Combine(::testing::Values(2, 3),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace ftspan::local
