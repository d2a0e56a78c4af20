#include "spanner/baswana_sen.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

TEST(BaswanaSen, RejectsK0) {
  EXPECT_THROW(baswana_sen_spanner(path(3), 0, 1), std::invalid_argument);
}

TEST(BaswanaSen, K1ReturnsWholeGraph) {
  const Graph g = gnp(30, 0.3, 1);
  EXPECT_EQ(baswana_sen_spanner(g, 1, 7).size(), g.num_edges());
}

TEST(BaswanaSen, K1RespectsFaults) {
  const Graph g = complete(10);
  VertexSet f(10, {0});
  const auto edges = baswana_sen_spanner(g, 1, 7, &f);
  EXPECT_EQ(edges.size(), g.num_edges() - 9);  // drop 0's edges
}

TEST(BaswanaSen, Stretch3OnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const Graph g = gnp(60, 0.2, seed);
    const Graph h = baswana_sen_spanner_graph(g, 2, seed * 31);
    EXPECT_TRUE(StretchOracle(g, h, 3.0).check_exact(0).valid)
        << "seed=" << seed;
  }
}

TEST(BaswanaSen, Stretch5Weighted) {
  for (std::uint64_t seed : {5ull, 6ull}) {
    const Graph g = gnp(60, 0.3, seed, 6.0);
    const Graph h = baswana_sen_spanner_graph(g, 3, seed);
    EXPECT_TRUE(StretchOracle(g, h, 5.0).check_exact(0).valid)
        << "seed=" << seed;
  }
}

TEST(BaswanaSen, SparsifiesDenseGraphs) {
  const Graph g = complete(100);
  const auto edges = baswana_sen_spanner(g, 2, 11);
  // Expected size O(k n^{1+1/2}) = O(2 * 1000); generous factor 4.
  EXPECT_LT(edges.size(), 4000u);
  EXPECT_LT(edges.size(), g.num_edges());
}

TEST(BaswanaSen, FaultMaskExcludesFaultyEndpoints) {
  const Graph g = gnp(40, 0.4, 13);
  VertexSet f(40, {1, 5, 9});
  const auto edges = baswana_sen_spanner(g, 2, 13, &f);
  for (EdgeId id : edges) {
    EXPECT_FALSE(f.contains(g.edge(id).u));
    EXPECT_FALSE(f.contains(g.edge(id).v));
  }
  const Graph h = g.edge_subgraph(edges);
  EXPECT_TRUE(StretchOracle(g, h, 3.0).evaluate_sets({f}).valid);
}

TEST(BaswanaSen, DeterministicPerSeed) {
  const Graph g = gnp(50, 0.3, 17);
  EXPECT_EQ(baswana_sen_spanner(g, 2, 99), baswana_sen_spanner(g, 2, 99));
}

TEST(BaswanaSen, AllFaultyYieldsEmpty) {
  const Graph g = complete(8);
  VertexSet f(8);
  for (Vertex v = 0; v < 8; ++v) f.insert(v);
  EXPECT_TRUE(baswana_sen_spanner(g, 2, 1, &f).empty());
}

// Property sweep: stretch 2k-1 for k in {2,3,4} across graph families.
class BsSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BsSweep, StretchBound) {
  const auto [k, seed] = GetParam();
  const Graph g = gnp(50, 0.25, static_cast<std::uint64_t>(seed), 3.0);
  const Graph h =
      baswana_sen_spanner_graph(g, static_cast<std::size_t>(k),
                                static_cast<std::uint64_t>(seed) * 7 + 1);
  EXPECT_TRUE(StretchOracle(g, h, 2.0 * k - 1.0).check_exact(0).valid);
}

INSTANTIATE_TEST_SUITE_P(Grid, BsSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace ftspan
