#include "spanner2/undirected.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

/// Whether the selected edges of a unit-length g form an r-fault-tolerant
/// 2-spanner, by the definition: an exact stretch-2 check under every set
/// of <= r vertex faults.
bool is_unit_ft_2spanner(const Graph& g, const std::vector<char>& in_spanner,
                         std::size_t r) {
  std::vector<EdgeId> ids;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (in_spanner[id]) ids.push_back(id);
  const Graph h = g.edge_subgraph(ids);
  return StretchOracle(g, h, 2).check_exact(r).valid;
}

TEST(UndirectedCheck, WholeGraphValid) {
  const Graph g = gnp(15, 0.4, 3);
  std::vector<char> all(g.num_edges(), 1);
  EXPECT_TRUE(is_unit_ft_2spanner(g, all, 0));
  EXPECT_TRUE(is_unit_ft_2spanner(g, all, 3));
}

TEST(UndirectedCheck, NeedsCommonNeighbors) {
  // K_5 minus the selected edge {0,1}: 3 common neighbors.
  const Graph g = complete(5);
  std::vector<char> in(g.num_edges(), 1);
  in[*g.edge_id(0, 1)] = 0;
  EXPECT_TRUE(is_unit_ft_2spanner(g, in, 2));
  EXPECT_FALSE(is_unit_ft_2spanner(g, in, 3));
}

TEST(UndirectedApprox, ValidOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    const Graph g = gnp(12, 0.5, seed);
    for (std::size_t r : {0u, 1u, 2u}) {
      const auto res = approx_ft_2spanner_undirected(g, r, seed * 7 + r);
      EXPECT_TRUE(res.valid) << "seed=" << seed << " r=" << r;
      EXPECT_TRUE(is_unit_ft_2spanner(g, res.in_spanner, r));
      EXPECT_GE(res.cost, res.lp_value - 1e-6);  // LP is a lower bound
    }
  }
}

TEST(UndirectedApprox, SparsifiesDenseGraph) {
  // complete(8) keeps the bidirected LP small enough for the dense simplex.
  const Graph g = complete(8);
  const auto res = approx_ft_2spanner_undirected(g, 1, 5);
  ASSERT_TRUE(res.valid);
  EXPECT_TRUE(is_unit_ft_2spanner(g, res.in_spanner, 1));
  std::size_t kept = 0;
  for (char b : res.in_spanner) kept += b;
  EXPECT_LT(kept, g.num_edges());
}

TEST(UndirectedApprox, CompleteBipartiteNeedsAllEdges) {
  // K_{a,b} has no length-2 paths between opposite sides: every edge is
  // mandatory even for r = 0 (the paper's Ω(n²) example for k = 2).
  const Graph g = complete_bipartite(4, 4);
  const auto res = approx_ft_2spanner_undirected(g, 0, 3);
  ASSERT_TRUE(res.valid);
  for (char b : res.in_spanner) EXPECT_TRUE(b);
  EXPECT_NEAR(res.lp_value, 16.0, 1e-5);  // LP already forces x = 1
}

TEST(UndirectedApprox, CostAccountsEdgeWeights) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 4.0);  // a path: everything mandatory
  const auto res = approx_ft_2spanner_undirected(g, 1, 9);
  ASSERT_TRUE(res.valid);
  EXPECT_DOUBLE_EQ(res.cost, 9.0);
}

}  // namespace
}  // namespace ftspan
