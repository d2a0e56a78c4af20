#include "spanner/thorup_zwick.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

TEST(ThorupZwick, RejectsK0) {
  EXPECT_THROW(thorup_zwick_spanner(path(3), 0, 1), std::invalid_argument);
}

TEST(ThorupZwick, K1ReturnsWholeGraph) {
  const Graph g = gnp(30, 0.3, 1);
  EXPECT_EQ(thorup_zwick_spanner(g, 1, 7).size(), g.num_edges());
}

TEST(ThorupZwick, Stretch3OnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const Graph g = gnp(60, 0.2, seed);
    const Graph h = thorup_zwick_spanner_graph(g, 2, seed * 13 + 5);
    EXPECT_TRUE(StretchOracle(g, h, 3.0).check_exact(0).valid)
        << "seed=" << seed;
  }
}

TEST(ThorupZwick, Stretch5Weighted) {
  for (std::uint64_t seed : {9ull, 10ull}) {
    const Graph g = gnp(50, 0.3, seed, 5.0);
    const Graph h = thorup_zwick_spanner_graph(g, 3, seed);
    EXPECT_TRUE(StretchOracle(g, h, 5.0).check_exact(0).valid)
        << "seed=" << seed;
  }
}

TEST(ThorupZwick, SparsifiesDenseGraphs) {
  const Graph g = complete(100);
  const auto edges = thorup_zwick_spanner(g, 2, 11);
  EXPECT_LT(edges.size(), 4000u);
}

TEST(ThorupZwick, FaultMaskRespected) {
  const Graph g = gnp(40, 0.4, 13);
  VertexSet f(40, {2, 4});
  const auto edges = thorup_zwick_spanner(g, 2, 13, &f);
  for (EdgeId id : edges) {
    EXPECT_FALSE(f.contains(g.edge(id).u));
    EXPECT_FALSE(f.contains(g.edge(id).v));
  }
  const Graph h = g.edge_subgraph(edges);
  EXPECT_TRUE(StretchOracle(g, h, 3.0).evaluate_sets({f}).valid);
}

TEST(ThorupZwick, DeterministicPerSeed) {
  const Graph g = gnp(50, 0.3, 17);
  EXPECT_EQ(thorup_zwick_spanner(g, 3, 4), thorup_zwick_spanner(g, 3, 4));
}

TEST(ThorupZwick, DisconnectedGraphHandled) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  const Graph h = thorup_zwick_spanner_graph(g, 2, 3);
  EXPECT_TRUE(StretchOracle(g, h, 3.0).check_exact(0).valid);
}

class TzSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TzSweep, StretchBound) {
  const auto [k, seed] = GetParam();
  const Graph g = gnp(50, 0.25, static_cast<std::uint64_t>(seed), 3.0);
  const Graph h =
      thorup_zwick_spanner_graph(g, static_cast<std::size_t>(k),
                                 static_cast<std::uint64_t>(seed) * 3 + 2);
  EXPECT_TRUE(StretchOracle(g, h, 2.0 * k - 1.0).check_exact(0).valid);
}

INSTANTIATE_TEST_SUITE_P(Grid, TzSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace ftspan
