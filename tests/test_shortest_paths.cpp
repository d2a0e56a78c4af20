// Shortest-path results of the one engine, DijkstraEngine: distances and
// parent trees on small hand-built graphs, fault masks, search bounds,
// bounded pairs, digraphs, metric properties, and hop counts (BFS on unit
// weights, hop_eccentricity in graph/properties).
#include "graph/sp_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "util/rng.hpp"

namespace ftspan {
namespace {

Graph diamond() {
  // 0 -1- 1 -1- 3, 0 -1- 2 -1- 3, plus a heavy direct edge 0 -5- 3.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 5.0);
  return g;
}

TEST(DijkstraEngine, BasicDistances) {
  DijkstraEngine eng;
  eng.run(diamond(), 0);
  EXPECT_DOUBLE_EQ(eng.dist(0), 0.0);
  EXPECT_DOUBLE_EQ(eng.dist(1), 1.0);
  EXPECT_DOUBLE_EQ(eng.dist(2), 1.0);
  EXPECT_DOUBLE_EQ(eng.dist(3), 2.0);
}

TEST(DijkstraEngine, ParentsFormTree) {
  DijkstraEngine eng;
  eng.run(diamond(), 0);
  EXPECT_EQ(eng.parent(0), kInvalidVertex);
  // 3's parent is 1 or 2 (tie), never the heavy direct edge's endpoint 0.
  EXPECT_TRUE(eng.parent(3) == 1 || eng.parent(3) == 2);
}

TEST(DijkstraEngine, FaultMaskReroutes) {
  const Graph g = diamond();
  DijkstraEngine eng;
  const VertexSet f(4, {1});
  eng.run(g, 0, &f);
  EXPECT_DOUBLE_EQ(eng.dist(3), 2.0);  // via 2
  const VertexSet f2(4, {1, 2});
  eng.run(g, 0, &f2);
  EXPECT_DOUBLE_EQ(eng.dist(3), 5.0);  // only the direct edge remains
}

TEST(DijkstraEngine, FaultySourceReachesNothing) {
  const Graph g = diamond();
  const VertexSet f(4, {0});
  DijkstraEngine eng;
  eng.run(g, 0, &f);
  EXPECT_FALSE(eng.reachable(0));
  EXPECT_FALSE(eng.reachable(3));
}

TEST(DijkstraEngine, BoundCutsOff) {
  const Graph g = path(10);  // 0-1-...-9, unit weights
  DijkstraEngine eng;
  eng.run(g, 0, nullptr, {}, /*bound=*/3.0);
  EXPECT_TRUE(eng.reachable(3));
  EXPECT_FALSE(eng.reachable(4));
}

TEST(DijkstraEngine, DisconnectedIsInfinite) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  DijkstraEngine eng;
  eng.run(g, 0);
  EXPECT_FALSE(eng.reachable(2));
  EXPECT_EQ(eng.dist(2), kInfiniteWeight);
}

TEST(DijkstraEngine, DistancesAreSymmetricAndObeyTheTriangleInequality) {
  const Graph g = gnp_connected(40, 0.15, 9, 3.0);
  DijkstraEngine eng;
  std::vector<std::vector<Weight>> d(40, std::vector<Weight>(40));
  for (Vertex u = 0; u < 40; ++u) {
    eng.run(g, u);
    for (Vertex v = 0; v < 40; ++v) d[u][v] = eng.dist(v);
  }
  for (Vertex u = 0; u < 40; ++u)
    for (Vertex v = u; v < 40; ++v) EXPECT_DOUBLE_EQ(d[u][v], d[v][u]);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Vertex a = static_cast<Vertex>(rng.uniform_index(40));
    const Vertex b = static_cast<Vertex>(rng.uniform_index(40));
    const Vertex c = static_cast<Vertex>(rng.uniform_index(40));
    EXPECT_LE(d[a][c], d[a][b] + d[b][c] + 1e-9);
  }
}

TEST(DijkstraEngine, DigraphRunFollowsDirection) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  DijkstraEngine eng;
  eng.run(g, 0);
  EXPECT_DOUBLE_EQ(eng.dist(2), 2.0);
  eng.run(g, 2);
  EXPECT_FALSE(eng.reachable(0));  // no reverse arcs
}

TEST(DijkstraEngine, DigraphRunRespectsFaultMask) {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const VertexSet f(4, {1});
  DijkstraEngine eng;
  eng.run(g, 0, &f);
  EXPECT_DOUBLE_EQ(eng.dist(3), 2.0);
}

// Property: engine distances on unit-weight graphs are BFS hop counts, so
// the farthest reachable vertex sits at the hop eccentricity.
class UnitWeightEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(UnitWeightEquivalence, FarthestDistanceIsHopEccentricity) {
  const Graph g = gnp(80, 0.08, static_cast<std::uint64_t>(GetParam()));
  DijkstraEngine eng;
  for (Vertex s = 0; s < 80; s += 9) {
    eng.run(g, s);
    Weight farthest = 0;
    for (Vertex v = 0; v < 80; ++v)
      if (eng.reachable(v)) farthest = std::max(farthest, eng.dist(v));
    EXPECT_EQ(farthest, static_cast<Weight>(hop_eccentricity(g, s)))
        << "s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnitWeightEquivalence, ::testing::Range(1, 9));

TEST(DijkstraEngine, BoundedPairIsInfiniteBeyondTheBound) {
  const Graph g = path(10);
  DijkstraEngine eng;
  EXPECT_EQ(eng.bounded_pair(g, 0, 9, nullptr, 4.0), kInfiniteWeight);
  EXPECT_DOUBLE_EQ(eng.bounded_pair(g, 0, 4, nullptr, 4.0), 4.0);
}

TEST(Properties, HopCountsIgnoreWeights) {
  // 0 -1- 1 -1- 3 and 0 -1- 2 -1- 3, plus a heavy direct edge 0 -5- 3:
  // every vertex is one hop from 0.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 5.0);
  EXPECT_EQ(hop_eccentricity(g, 0), 1u);
}

TEST(Properties, HopCountsRespectTheFaultMask) {
  const Graph g = path(5);
  const VertexSet f(5, {2});
  EXPECT_EQ(hop_eccentricity(g, 0, &f), 1u);  // 3 and 4 are cut off
  EXPECT_EQ(hop_eccentricity(g, 4, &f), 1u);
  const VertexSet source(5, {0});
  EXPECT_EQ(hop_eccentricity(g, 0, &source), 0u);  // a failed source
}

}  // namespace
}  // namespace ftspan
