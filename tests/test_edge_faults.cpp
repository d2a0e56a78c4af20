#include "ftspanner/edge_faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "spanner/greedy.hpp"

namespace ftspan {
namespace {

TEST(EdgeConversionIterations, Formula) {
  // r = 1: keep 1/2, q = 1/4 -> ceil(3 ln 100 * 4) = 56.
  EXPECT_EQ(edge_conversion_iterations(1, 100, 1.0), 56u);
  // Scales with c.
  EXPECT_EQ(edge_conversion_iterations(1, 100, 2.0), 111u);
}

TEST(EdgeConversionIterations, R1UsesKeepHalf) {
  // The r = 1 special case pins keep = 1/2 (not 1/1, which would make the
  // success probability q = keep (1-keep)^r collapse to 0). With keep = 1/2,
  // alpha = ceil(c (r+2) ln n / (1/2 * (1/2)^1)) = ceil(4 c * 3 ln n).
  const double expected = std::ceil(4.0 * 3.0 * std::log(1000.0));
  EXPECT_EQ(edge_conversion_iterations(1, 1000, 1.0),
            static_cast<std::size_t>(expected));
  // r = 0 is clamped to r = 1 by the formula (the conversion itself rejects
  // r = 0 before ever computing alpha).
  EXPECT_EQ(edge_conversion_iterations(0, 1000, 1.0),
            edge_conversion_iterations(1, 1000, 1.0));
}

TEST(EdgeConversionIterations, LargeRGrowsQuadratically) {
  // For r >= 2, q = (1/r)(1-1/r)^r -> 1/(e r), so alpha ~ c (r+2) ln n * e r
  // grows ~ r²: doubling r multiplies alpha by ~4 (within the drift of
  // (1-1/r)^r towards 1/e and the ceil).
  const std::size_t a32 = edge_conversion_iterations(32, 4096, 1.0);
  const std::size_t a64 = edge_conversion_iterations(64, 4096, 1.0);
  const std::size_t a128 = edge_conversion_iterations(128, 4096, 1.0);
  EXPECT_LT(a32, a64);
  EXPECT_LT(a64, a128);
  const double r64 = static_cast<double>(a64) / static_cast<double>(a32);
  const double r128 = static_cast<double>(a128) / static_cast<double>(a64);
  EXPECT_GT(r64, 3.4);
  EXPECT_LT(r64, 4.6);
  EXPECT_GT(r128, 3.4);
  EXPECT_LT(r128, 4.6);
}

TEST(EdgeConversionIterations, ScalesLinearlyInC) {
  // alpha is ceil(c * X): c = 10 gives 10x (up to the two ceils), and more
  // iterations for larger c always.
  const std::size_t base = edge_conversion_iterations(3, 500, 1.0);
  const std::size_t ten = edge_conversion_iterations(3, 500, 10.0);
  EXPECT_GE(ten, 10 * (base - 1));
  EXPECT_LE(ten, 10 * base);
  EXPECT_LT(edge_conversion_iterations(3, 500, 0.1), base);
}

TEST(EdgeConversionIterations, MonotoneInN) {
  EXPECT_LT(edge_conversion_iterations(2, 100, 1.0),
            edge_conversion_iterations(2, 10000, 1.0));
  // n <= 2 is clamped so alpha never vanishes.
  EXPECT_GE(edge_conversion_iterations(2, 0, 1.0), 1u);
}

TEST(EdgeFt, RejectsR0) {
  EXPECT_THROW(ft_edge_greedy_spanner(path(3), 3.0, 0, 1),
               std::invalid_argument);
}

TEST(EdgeFt, RejectsKBelowOne) {
  EXPECT_THROW(ft_edge_greedy_spanner(path(3), 0.5, 1, 1),
               std::invalid_argument);
}

TEST(DistancesAvoidingEdges, MasksCorrectly) {
  const Graph g = cycle(6);  // two routes between any pair
  std::vector<char> dead(g.num_edges(), 0);
  auto d = distances_avoiding_edges(g, 0, dead);
  EXPECT_DOUBLE_EQ(d[3], 3.0);
  dead[*g.edge_id(0, 1)] = 1;  // force the long way for vertex 1
  d = distances_avoiding_edges(g, 0, dead);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
}

TEST(EdgeFt, OneEdgeFaultOnCompleteGraph) {
  const Graph g = complete(12);
  const auto res = ft_edge_greedy_spanner(g, 3.0, 1, 7);
  const auto check =
      check_edge_ft_spanner_exact(g, g.edge_subgraph(res.edges), 3.0, 1);
  EXPECT_TRUE(check.valid) << "worst " << check.worst_stretch;
}

TEST(EdgeFt, PlainGreedyFailsUnderEdgeFaults) {
  const Graph g = complete(12);
  const Graph plain = greedy_spanner_graph(g, 3.0);
  const auto check = check_edge_ft_spanner_exact(g, plain, 3.0, 1);
  EXPECT_FALSE(check.valid);
  EXPECT_FALSE(check.witness_faults.empty());
}

TEST(EdgeFt, TwoEdgeFaultsSmallGnp) {
  const Graph g = gnp(10, 0.6, 3);
  const auto res = ft_edge_greedy_spanner(g, 3.0, 2, 11);
  const auto check =
      check_edge_ft_spanner_exact(g, g.edge_subgraph(res.edges), 3.0, 2);
  EXPECT_TRUE(check.valid) << "worst " << check.worst_stretch;
}

TEST(EdgeFt, ExactCheckThrowsOnHugeEnumeration) {
  // Same report as the vertex-fault enumerations: where, r, the count, and
  // the cap that was exceeded.
  const Graph g = complete(40);
  try {
    check_edge_ft_spanner_exact(g, g, 3.0, 6, 1000);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("check_edge_ft_spanner_exact"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("r=6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max_fault_sets=1000"), std::string::npos) << msg;
  }
}

TEST(EdgeFt, SampledAdversaryBreaksCutEdgeSpanner) {
  // Spanner = a spanning star of K_20: one edge fault (a star edge) makes
  // some pair unreachable in H while G survives.
  const Graph g = complete(20);
  const Graph h = star(20);
  const auto check = check_edge_ft_spanner_sampled(g, h, 2.0, 1, 0, 60, 5);
  EXPECT_FALSE(check.valid);
}

TEST(EdgeFt, SampledAgreesOnValidSpanner) {
  const Graph g = complete(12);
  const auto res = ft_edge_greedy_spanner(g, 3.0, 1, 13);
  const Graph h = g.edge_subgraph(res.edges);
  ASSERT_TRUE(check_edge_ft_spanner_exact(g, h, 3.0, 1).valid);
  EXPECT_TRUE(check_edge_ft_spanner_sampled(g, h, 3.0, 1, 50, 50, 7).valid);
}

TEST(EdgeFt, IterationOverrideAndDeterminism) {
  const Graph g = gnp(16, 0.5, 5);
  EdgeFtOptions opt;
  opt.iterations = 10;
  const auto a = ft_edge_greedy_spanner(g, 3.0, 2, 99, opt);
  const auto b = ft_edge_greedy_spanner(g, 3.0, 2, 99, opt);
  EXPECT_EQ(a.iterations, 10u);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(EdgeFt, VertexFaultsHarderThanEdgeFaults) {
  // Any r-vertex-FT spanner handles the corresponding edge faults on paths
  // through those vertices, but not vice versa; sanity: the edge-FT spanner
  // here is smaller or equal in typical instances. Just check both valid
  // under edge faults.
  const Graph g = complete(12);
  const auto edge_ft = ft_edge_greedy_spanner(g, 3.0, 1, 17);
  EXPECT_TRUE(check_edge_ft_spanner_exact(
                  g, g.edge_subgraph(edge_ft.edges), 3.0, 1)
                  .valid);
}

}  // namespace
}  // namespace ftspan
