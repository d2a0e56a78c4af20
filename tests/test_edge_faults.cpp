// The edge-fault conversion (ft_edge_greedy_spanner) and the oracle's
// edge-fault checks.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "graph/sp_engine.hpp"
#include "spanner/greedy.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

// The checks fan out over four lanes so the thread-sanitizer job sees the
// edge-fault path concurrently; results do not depend on the lane count.
FtCheckOptions four_lanes() {
  FtCheckOptions opt;
  opt.threads = 4;
  return opt;
}

FtCheckResult exact_edges(const Graph& g, const Graph& h, double k,
                          std::size_t r) {
  return StretchOracle(g, h, k).check_exact_edges(r, four_lanes());
}

FtCheckResult sampled_edges(const Graph& g, const Graph& h, double k,
                            std::size_t r, std::size_t random_trials,
                            std::size_t adversarial, std::uint64_t seed) {
  return StretchOracle(g, h, k).check_sampled_edges(
      r, random_trials, adversarial, seed, four_lanes());
}

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

TEST(RunAvoidingEdges, MasksCorrectly) {
  const Graph g = cycle(6);  // two routes between any pair
  VertexSet dead(g.num_edges());
  DijkstraEngine eng;
  eng.run_avoiding_edges(g, 0, dead);
  EXPECT_DOUBLE_EQ(eng.dist(3), 3.0);
  dead.insert(*g.edge_id(0, 1));  // force the long way for vertex 1
  eng.run_avoiding_edges(g, 0, dead);
  EXPECT_DOUBLE_EQ(eng.dist(1), 5.0);
}

TEST(RunAvoidingEdges, HonoursTargetsAndBound) {
  const Graph g = cycle(6);
  VertexSet dead(g.num_edges());
  dead.insert(*g.edge_id(0, 1));
  DijkstraEngine eng;
  const Vertex target[1] = {1};
  eng.run_avoiding_edges(g, 0, dead, target);
  EXPECT_DOUBLE_EQ(eng.dist(1), 5.0);
  EXPECT_TRUE(eng.settled(1));
  // The detour to vertex 1 is 5 > bound 4: it stays unreached.
  eng.run_avoiding_edges(g, 0, dead, {}, /*bound=*/4.0);
  EXPECT_DOUBLE_EQ(eng.dist(4), 2.0);
  EXPECT_EQ(eng.dist(1), kInfiniteWeight);
}

TEST(EdgeFt, OneEdgeFaultOnCompleteGraph) {
  const Graph g = complete(12);
  const auto res = ft_edge_greedy_spanner(g, 3.0, 1, 7);
  const auto check = exact_edges(g, g.edge_subgraph(res.edges), 3.0, 1);
  EXPECT_TRUE(check.valid) << "worst " << check.worst_stretch;
}

TEST(EdgeFt, PlainGreedyFailsUnderEdgeFaults) {
  const Graph g = complete(12);
  const Graph plain = greedy_spanner_graph(g, 3.0);
  const auto check = exact_edges(g, plain, 3.0, 1);
  EXPECT_FALSE(check.valid);
  // The witness is a set of G's edge ids, and the pair it breaks.
  EXPECT_EQ(check.witness_faults.universe_size(), g.num_edges());
  EXPECT_FALSE(check.witness_faults.empty());
  EXPECT_TRUE(g.has_edge(check.witness_u, check.witness_v));
}

TEST(EdgeFt, TwoEdgeFaultsSmallGnp) {
  const Graph g = gnp(10, 0.6, 3);
  const auto res = ft_edge_greedy_spanner(g, 3.0, 2, 11);
  const auto check = exact_edges(g, g.edge_subgraph(res.edges), 3.0, 2);
  EXPECT_TRUE(check.valid) << "worst " << check.worst_stretch;
}

TEST(EdgeFt, ExactCheckThrowsOnHugeEnumeration) {
  // Same report as the vertex-fault enumerations: where, the fault model,
  // the edge count (as edges, not as n), r, the count, and the cap that was
  // exceeded.
  const Graph g = complete(40);
  FtCheckOptions opt;
  opt.max_fault_sets = 1000;
  try {
    StretchOracle(g, g, 3.0).check_exact_edges(6, opt);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("StretchOracle::check_exact_edges"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("edge-fault sets"), std::string::npos) << msg;
    EXPECT_NE(msg.find("m=780 edges"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("n=780"), std::string::npos) << msg;
    EXPECT_NE(msg.find("r=6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max_fault_sets=1000"), std::string::npos) << msg;
  }
}

TEST(EdgeFt, SampledAdversaryBreaksCutEdgeSpanner) {
  // Spanner = a spanning star of K_20: one edge fault (a star edge) makes
  // some pair unreachable in H while G survives.
  const Graph g = complete(20);
  const Graph h = star(20);
  const auto check = sampled_edges(g, h, 2.0, 1, 0, 60, 5);
  EXPECT_FALSE(check.valid);
}

TEST(EdgeFt, SampledAgreesOnValidSpanner) {
  const Graph g = complete(12);
  const auto res = ft_edge_greedy_spanner(g, 3.0, 1, 13);
  const Graph h = g.edge_subgraph(res.edges);
  ASSERT_TRUE(exact_edges(g, h, 3.0, 1).valid);
  EXPECT_TRUE(sampled_edges(g, h, 3.0, 1, 50, 50, 7).valid);
}

TEST(EdgeFt, IterationOverrideAndDeterminism) {
  const Graph g = gnp(16, 0.5, 5);
  ConversionOptions opt;
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
  EXPECT_TRUE(exact_edges(g, g.edge_subgraph(edge_ft.edges), 3.0, 1).valid);
}

}  // namespace
}  // namespace ftspan
