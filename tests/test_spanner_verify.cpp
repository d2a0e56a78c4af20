// Plain (fault-free and single-fault-set) spanner stretch through
// StretchOracle: max_stretch, its verdict, and the fault-aware exemption of
// pairs that F disconnects in G.
#include "validate/stretch_oracle.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace ftspan {
namespace {

TEST(StretchOracle, IdenticalGraphsHaveStretchOne) {
  const Graph g = gnp_connected(30, 0.2, 3, 4.0);
  EXPECT_DOUBLE_EQ(StretchOracle(g, g, 1.0).max_stretch(), 1.0);
}

TEST(StretchOracle, KnownStretchOnCycle) {
  // C_5 minus one edge: the removed edge's endpoints are 4 apart.
  const Graph g = cycle(5);
  Graph h(5);
  for (const Edge& e : g.edges())
    if (!(e.u == 0 && e.v == 1)) h.add_edge(e.u, e.v, e.w);
  EXPECT_DOUBLE_EQ(StretchOracle(g, h, 4.0).max_stretch(), 4.0);
  EXPECT_TRUE(StretchOracle(g, h, 4.0).check_exact(0).valid);
  EXPECT_FALSE(StretchOracle(g, h, 3.0).check_exact(0).valid);
}

TEST(StretchOracle, DisconnectedSpannerIsInfinite) {
  const Graph g = path(4);
  Graph h(4);
  h.add_edge(0, 1);
  h.add_edge(2, 3);  // missing middle edge
  EXPECT_EQ(StretchOracle(g, h, 3.0).max_stretch(), kInfiniteWeight);
}

TEST(StretchOracle, FaultAwareExemptsDisconnectedPairs) {
  // 0-1-2 plus 0-2: remove vertex 1; edge (0,2) must still be checked, but
  // edges (0,1) and (1,2) are exempt.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  Graph h(3);
  h.add_edge(0, 2);
  const StretchOracle oracle(g, h, 1.0);
  const VertexSet f(3, {1});
  EXPECT_DOUBLE_EQ(oracle.max_stretch(&f), 1.0);
  EXPECT_TRUE(oracle.evaluate_sets({f}).valid);
  // Without faults, h misses edges (0,1) and (1,2) entirely.
  EXPECT_EQ(oracle.max_stretch(), kInfiniteWeight);
}

TEST(StretchOracle, NoEdgesGivesOne) {
  const Graph g(5), h(5);
  EXPECT_DOUBLE_EQ(StretchOracle(g, h, 1.0).max_stretch(), 1.0);
}

}  // namespace
}  // namespace ftspan
