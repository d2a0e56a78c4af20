// Unit tests for the StretchOracle subsystem (src/validate/): the
// shared pooled Dijkstra engine and the batched oracle itself. Brute-force
// references run the independent textbook Dijkstra of
// tests/support/reference_sp.hpp.
#include "validate/stretch_oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "spanner/greedy.hpp"
#include "support/reference_sp.hpp"

namespace ftspan {
namespace {

using test::reference_dijkstra;

TEST(DijkstraEngine, MatchesDijkstraAcrossReusedRuns) {
  const Graph g = gnp(40, 0.15, 7, 5.0);
  DijkstraEngine scratch;
  // Reuse the same scratch for many sources; each run must invalidate the
  // previous one completely (the epoch stamp, not an O(n) clear).
  for (Vertex s = 0; s < g.num_vertices(); s += 3) {
    scratch.run(g, s, nullptr);
    const auto ref = reference_dijkstra(g, s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(scratch.dist(v), ref.dist[v]) << "s=" << s << " v=" << v;
      EXPECT_EQ(scratch.reachable(v), ref.reachable(v));
    }
  }
}

TEST(DijkstraEngine, RespectsFaultMask) {
  const Graph g = gnp(30, 0.2, 3);
  const VertexSet faults(30, {2, 11, 17});
  DijkstraEngine scratch;
  scratch.run(g, 0, &faults);
  const auto ref = reference_dijkstra(g, 0, &faults);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(scratch.dist(v), ref.dist[v]) << "v=" << v;
}

TEST(DijkstraEngine, TargetedRunSettlesTargetsExactly) {
  const Graph g = gnp(50, 0.12, 11, 3.0);
  const auto ref = reference_dijkstra(g, 5);
  DijkstraEngine scratch;
  const std::vector<Vertex> targets{1, 17, 33, 49};
  scratch.run(g, 5, nullptr, targets);
  for (const Vertex t : targets)
    EXPECT_EQ(scratch.dist(t), ref.dist[t]) << "t=" << t;
}

TEST(DijkstraEngine, ParentChainOfSettledTargetIsAShortestPath) {
  const Graph g = gnp(40, 0.15, 13, 4.0);
  const Vertex source = 0, target = 31;
  const auto ref = reference_dijkstra(g, source);
  if (!ref.reachable(target)) GTEST_SKIP();
  DijkstraEngine scratch;
  const Vertex t[1] = {target};
  scratch.run(g, source, nullptr, std::span<const Vertex>(t, 1));
  // Walk the parent chain and re-add the weights: must equal dist(target).
  Weight walked = 0;
  Vertex x = target;
  while (x != source) {
    const Vertex p = scratch.parent(x);
    ASSERT_NE(p, kInvalidVertex);
    walked += g.edge(*g.edge_id(p, x)).w;
    x = p;
  }
  EXPECT_DOUBLE_EQ(walked, ref.dist[target]);
}

TEST(DijkstraEngine, BoundLeavesFarVerticesAtInfinity) {
  const Graph g = path(6);  // unit weights, distances 0..5 from vertex 0
  DijkstraEngine scratch;
  scratch.run(g, 0, nullptr, {}, /*bound=*/2.0);
  EXPECT_DOUBLE_EQ(scratch.dist(2), 2.0);
  EXPECT_EQ(scratch.dist(3), kInfiniteWeight);
}

TEST(StretchOracle, ThrowsOnVertexCountMismatch) {
  const Graph g = path(4);
  const Graph h(3);
  EXPECT_THROW(StretchOracle(g, h, 2.0), std::invalid_argument);
}

TEST(StretchOracle, ThrowsOnNonFiniteOrSubUnitStretch) {
  // No distance is ever "more than NaN times" another, so a NaN k would
  // certify every spanner.
  const Graph g = path(4);
  for (const double k : {std::nan(""), kInfiniteWeight, 0.5, -1.0})
    EXPECT_THROW(StretchOracle(g, g, k), std::invalid_argument) << k;
  EXPECT_NO_THROW(StretchOracle(g, g, 1.0));
}

// make_scratch and every check that takes FtCheckOptions refuse a
// bucket_max that is not finite or is below 1 before any search, even
// with nothing to check.
TEST(StretchOracle, RejectsInvalidBucketMax) {
  const Graph g = path(4);
  const StretchOracle oracle(g, g, 3.0);
  for (const Weight b : {-1.0, 0.0, 0.5, std::nan(""), kInfiniteWeight}) {
    SCOPED_TRACE(b);
    EXPECT_THROW(oracle.make_scratch(SpEnginePolicy::kAuto, b),
                 std::invalid_argument);
    FtCheckOptions opt;
    opt.bucket_max = b;
    EXPECT_THROW(oracle.check_exact(1, opt), std::invalid_argument);
    EXPECT_THROW(oracle.check_sampled(1, 4, 1, 1, opt), std::invalid_argument);
    EXPECT_THROW(oracle.check_exact_edges(1, opt), std::invalid_argument);
    EXPECT_THROW(oracle.check_sampled_edges(1, 4, 1, 1, opt),
                 std::invalid_argument);
    EXPECT_THROW(oracle.evaluate_sets({}, opt), std::invalid_argument);
  }
  EXPECT_NO_THROW(oracle.make_scratch(SpEnginePolicy::kDelta, 1.0));
}

TEST(StretchOracle, MaxStretchAgreesWithPerPairBruteForce) {
  const Graph g = gnp_connected(24, 0.25, 5, 3.0);
  // Thin the graph to create stretch.
  std::vector<EdgeId> kept;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (id % 5 != 0) kept.push_back(id);
  const Graph h = g.edge_subgraph(kept);

  // Brute force: one Dijkstra pair per edge — the pre-oracle formulation.
  double brute = 1.0;
  for (const Edge& e : g.edges()) {
    const auto dg = reference_dijkstra(g, e.u);
    const auto dh = reference_dijkstra(h, e.u);
    if (!dg.reachable(e.v) || dg.dist[e.v] <= 0) continue;
    const double s = dh.reachable(e.v) ? dh.dist[e.v] / dg.dist[e.v]
                                       : kInfiniteWeight;
    brute = std::max(brute, s);
  }
  EXPECT_DOUBLE_EQ(StretchOracle(g, h, 3.0).max_stretch(), brute);
}

// Whole-valued weights so large that path sums pass 2^64: such a profile is
// integral but its sums are not exact, so engine=auto must not route it to a
// bucketed queue (whose integer key would overflow and break the pop
// order). d_H(0, 2) = 2e19 via vertex 1 equals the chord's weight, so the
// stretch is exactly 1.
TEST(StretchOracle, HugeWholeWeightsKeepExactDistances) {
  Graph h(4);
  h.add_edge(0, 1, 1e19);
  h.add_edge(1, 2, 1e19);
  h.add_edge(0, 3, 2.5e19);
  h.add_edge(3, 2, 1e19);
  Graph g = h;
  g.add_edge(0, 2, 2e19);
  EXPECT_DOUBLE_EQ(StretchOracle(g, h, 2.0).max_stretch(), 1.0);
}

TEST(StretchOracle, EvaluateSetsAgreesWithPerSetBruteForce) {
  const Graph g = gnp(26, 0.3, 9, 2.0);
  const Graph h = greedy_spanner_graph(g, 3.0);
  std::vector<VertexSet> sets;
  sets.emplace_back(26);  // empty set
  sets.emplace_back(26, std::initializer_list<Vertex>{3});
  sets.emplace_back(26, std::initializer_list<Vertex>{1, 8});
  sets.emplace_back(26, std::initializer_list<Vertex>{0, 13, 25});

  double brute = 1.0;
  for (const VertexSet& f : sets)
    for (const Edge& e : g.edges()) {
      if (f.contains(e.u) || f.contains(e.v)) continue;
      const auto dg = reference_dijkstra(g, e.u, &f);
      const auto dh = reference_dijkstra(h, e.u, &f);
      if (!dg.reachable(e.v) || dg.dist[e.v] <= 0) continue;
      const double s = dh.reachable(e.v) ? dh.dist[e.v] / dg.dist[e.v]
                                         : kInfiniteWeight;
      brute = std::max(brute, s);
    }

  const FtCheckResult res = StretchOracle(g, h, 3.0).evaluate_sets(sets);
  EXPECT_DOUBLE_EQ(res.worst_stretch, brute);
  EXPECT_EQ(res.fault_sets_checked, sets.size());
}

TEST(StretchOracle, ExactEdgeCheckAgreesWithMaterializedBruteForce) {
  // Every edge-fault set |F| <= 2, in the oracle's enumeration order (by
  // size, then lexicographically): the reference runs on G \ F and H \ F
  // built with edge_subgraph, sharing no masking code with the engine.
  const Graph g = gnp_connected(14, 0.4, 3, 3.0);
  const Graph h = greedy_spanner_graph(g, 2.0);
  const std::size_t m = g.num_edges();
  std::vector<std::vector<EdgeId>> sets{{}};
  for (EdgeId a = 0; a < m; ++a) sets.push_back({a});
  for (EdgeId a = 0; a < m; ++a)
    for (EdgeId b = a + 1; b < m; ++b) sets.push_back({a, b});

  double brute = 1.0;
  std::size_t brute_set = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    VertexSet dead(m);
    for (const EdgeId id : sets[i]) dead.insert(id);
    std::vector<EdgeId> g_kept, h_kept;
    for (EdgeId id = 0; id < m; ++id)
      if (!dead.contains(id)) g_kept.push_back(id);
    for (EdgeId id = 0; id < h.num_edges(); ++id) {
      const Edge& e = h.edge(id);
      if (!dead.contains(*g.edge_id(e.u, e.v))) h_kept.push_back(id);
    }
    const Graph gf = g.edge_subgraph(g_kept);
    const Graph hf = h.edge_subgraph(h_kept);
    double worst = 1.0;
    for (const Edge& e : gf.edges()) {
      const auto dg = reference_dijkstra(gf, e.u);
      const auto dh = reference_dijkstra(hf, e.u);
      if (!dg.reachable(e.v) || dg.dist[e.v] <= 0) continue;
      worst = std::max(worst, dh.reachable(e.v) ? dh.dist[e.v] / dg.dist[e.v]
                                                : kInfiniteWeight);
    }
    if (worst > brute) {
      brute = worst;
      brute_set = i;
    }
  }
  ASSERT_GT(brute, 1.0);  // the instance is not trivially stretch 1

  const FtCheckResult res =
      StretchOracle(g, h, 2.0).check_exact_edges(2);
  EXPECT_EQ(res.worst_stretch, brute);
  EXPECT_EQ(res.valid, brute <= 2.0 * (1 + kStretchCheckTolerance));
  EXPECT_EQ(res.fault_sets_checked, sets.size());
  VertexSet want(m);
  for (const EdgeId id : sets[brute_set]) want.insert(id);
  EXPECT_EQ(res.witness_faults, want);
}

TEST(StretchOracle, WitnessFaultSetReallyAchievesTheWorstStretch) {
  const Graph g = complete(9);
  const Graph h = star(9);
  const FtCheckResult res = StretchOracle(g, h, 2.0).check_exact(1);
  ASSERT_FALSE(res.valid);
  // Re-evaluating the reported witness fault set alone must reproduce the
  // reported worst stretch and pair.
  const StretchOracle oracle(g, h, 2.0);
  const FtCheckResult replay =
      oracle.evaluate_sets({res.witness_faults});
  EXPECT_DOUBLE_EQ(replay.worst_stretch, res.worst_stretch);
  EXPECT_EQ(replay.witness_u, res.witness_u);
  EXPECT_EQ(replay.witness_v, res.witness_v);
}

TEST(StretchOracle, ExactCheckCountsAllFaultSets) {
  const Graph g = gnp(11, 0.5, 2);
  const FtCheckResult res = StretchOracle(g, g, 3.0).check_exact(2);
  EXPECT_TRUE(res.valid);
  EXPECT_DOUBLE_EQ(res.worst_stretch, 1.0);
  EXPECT_EQ(res.fault_sets_checked, count_fault_sets(11, 2));
}

TEST(StretchOracle, ExactCheckOverflowReportsParameters) {
  const Graph g = gnp(100, 0.1, 1);
  try {
    StretchOracle(g, g, 3.0).check_exact(8);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("StretchOracle::check_exact"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("max_fault_sets=2000000"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n=100"), std::string::npos) << msg;
    EXPECT_NE(msg.find("r=8"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(count_fault_sets(100, 8))),
              std::string::npos)
        << msg;
  }
}

TEST(StretchOracle, SampledCheckCountsTrials) {
  const Graph g = complete(10);
  const FtCheckResult res =
      StretchOracle(g, g, 2.0).check_sampled(1, 17, 9, 5);
  EXPECT_TRUE(res.valid);
  EXPECT_EQ(res.fault_sets_checked, 26u);
}

TEST(StretchOracle, AdversaryStillFindsTheStarWeakness) {
  const Graph g = complete(40);
  const Graph h = star(40);
  const FtCheckResult res =
      StretchOracle(g, h, 2.0).check_sampled(1, 0, 50, 5);
  EXPECT_FALSE(res.valid);
  EXPECT_TRUE(res.witness_faults.contains(0));  // the star center
}

TEST(SampleFaultSet, DeterministicAndCorrectSize) {
  std::vector<Vertex> pool_a, pool_b;
  VertexSet a(50), b(50);
  Rng rng_a(99), rng_b(99);
  sample_fault_set(rng_a, 7, pool_a, a);
  sample_fault_set(rng_b, 7, pool_b, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.count(), 7u);
  // A different stream draws a different set (overwhelmingly likely).
  Rng rng_c(100);
  VertexSet c(50);
  sample_fault_set(rng_c, 7, pool_a, c);
  EXPECT_FALSE(a == c);
}

TEST(SampleFaultSet, HandlesDegenerateSizes) {
  std::vector<Vertex> pool;
  VertexSet out(4);
  Rng rng(1);
  sample_fault_set(rng, 0, pool, out);
  EXPECT_TRUE(out.empty());
  sample_fault_set(rng, 4, pool, out);  // whole universe
  EXPECT_EQ(out.count(), 4u);
  sample_fault_set(rng, 9, pool, out);  // clamped to the universe
  EXPECT_EQ(out.count(), 4u);
}

}  // namespace
}  // namespace ftspan
