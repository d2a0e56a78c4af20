#include "spanner/distance_oracle.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "support/reference_sp.hpp"

namespace ftspan {
namespace {

/// exact[u][v] = d_G(u, v), one reference Dijkstra per source.
std::vector<std::vector<Weight>> exact_distances(const Graph& g) {
  std::vector<std::vector<Weight>> d;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    d.push_back(test::reference_dijkstra(g, v).dist);
  return d;
}

TEST(DistanceOracle, RejectsK0) {
  EXPECT_THROW(DistanceOracle(path(3), 0, 1), std::invalid_argument);
}

TEST(DistanceOracle, SelfDistanceZero) {
  const DistanceOracle oracle(path(5), 2, 1);
  for (Vertex v = 0; v < 5; ++v) EXPECT_DOUBLE_EQ(oracle.query(v, v), 0.0);
}

TEST(DistanceOracle, K1IsExact) {
  const Graph g = gnp_connected(40, 0.15, 3, 5.0);
  const DistanceOracle oracle(g, 1, 7);
  const auto exact = exact_distances(g);
  for (Vertex u = 0; u < 40; u += 3)
    for (Vertex v = 0; v < 40; v += 5)
      EXPECT_NEAR(oracle.query(u, v), exact[u][v], 1e-9);
}

TEST(DistanceOracle, StretchBoundHolds) {
  for (std::size_t k : {2u, 3u}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      const Graph g = gnp_connected(50, 0.15, seed, 4.0);
      const DistanceOracle oracle(g, k, seed * 11);
      const auto exact = exact_distances(g);
      for (Vertex u = 0; u < 50; u += 2) {
        for (Vertex v = 0; v < 50; v += 3) {
          if (u == v) continue;
          const Weight est = oracle.query(u, v);
          EXPECT_GE(est, exact[u][v] - 1e-9) << u << "," << v;  // never under
          EXPECT_LE(est, (2.0 * k - 1.0) * exact[u][v] + 1e-9)
              << "k=" << k << " u=" << u << " v=" << v;
        }
      }
    }
  }
}

TEST(DistanceOracle, SymmetricQueries) {
  const Graph g = gnp_connected(30, 0.2, 5);
  const DistanceOracle oracle(g, 2, 9);
  for (Vertex u = 0; u < 30; u += 2)
    for (Vertex v = u + 1; v < 30; v += 3)
      EXPECT_DOUBLE_EQ(oracle.query(u, v), oracle.query(v, u));
}

TEST(DistanceOracle, DisconnectedReturnsInfinity) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const DistanceOracle oracle(g, 2, 3);
  EXPECT_EQ(oracle.query(0, 3), kInfiniteWeight);
  EXPECT_EQ(oracle.query(0, 5), kInfiniteWeight);
  EXPECT_LT(oracle.query(0, 2), kInfiniteWeight);
}

TEST(DistanceOracle, FaultedVerticesExcluded) {
  const Graph g = path(5);  // 0-1-2-3-4
  VertexSet f(5, {2});
  const DistanceOracle oracle(g, 2, 3, &f);
  EXPECT_EQ(oracle.query(0, 4), kInfiniteWeight);
  EXPECT_LT(oracle.query(0, 1), kInfiniteWeight);
}

TEST(DistanceOracle, SizeSubquadraticOnDenseGraph) {
  const std::size_t n = 120;
  const Graph g = complete(n);
  const DistanceOracle oracle(g, 2, 13);
  // Expected O(k n^{3/2}) ~ 2*1315; allow generous slack, must beat n².
  EXPECT_LT(oracle.size(), n * n / 2);
}

TEST(DistanceOracle, BunchContainsTopLevelWitness) {
  const Graph g = gnp_connected(30, 0.2, 17);
  const std::size_t k = 3;
  const DistanceOracle oracle(g, k, 19);
  // Every vertex of the top level A_{k-1} lies in every bunch.
  for (Vertex v = 0; v < 30; ++v) {
    const Vertex top = oracle.witness(v, k - 1);
    if (top == kInvalidVertex) continue;
    bool found = false;
    for (const auto& [w, d] : oracle.bunch(v))
      if (w == top) found = true;
    EXPECT_TRUE(found) << "v=" << v;
  }
}

TEST(DistanceOracle, WitnessDistancesMonotoneInLevel) {
  const Graph g = gnp_connected(40, 0.2, 21);
  const DistanceOracle oracle(g, 3, 23);
  for (Vertex v = 0; v < 40; ++v) {
    EXPECT_DOUBLE_EQ(oracle.witness_distance(v, 0), 0.0);  // A_0 = V
    EXPECT_LE(oracle.witness_distance(v, 0), oracle.witness_distance(v, 1));
    EXPECT_LE(oracle.witness_distance(v, 1), oracle.witness_distance(v, 2));
  }
}

class OracleSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(OracleSweep, NeverUnderestimatesNeverExceedsStretch) {
  const auto [k, seed] = GetParam();
  const Graph g = gnp_connected(35, 0.2, static_cast<std::uint64_t>(seed), 3.0);
  const DistanceOracle oracle(g, k, static_cast<std::uint64_t>(seed) * 29);
  const auto exact = exact_distances(g);
  for (Vertex u = 0; u < 35; u += 4)
    for (Vertex v = 1; v < 35; v += 4) {
      if (u == v) continue;
      const Weight est = oracle.query(u, v);
      EXPECT_GE(est, exact[u][v] - 1e-9);
      EXPECT_LE(est, (2.0 * k - 1.0) * exact[u][v] + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace ftspan
