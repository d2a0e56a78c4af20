// DijkstraEngine / Csr tests: equivalence with an independent textbook
// Dijkstra (tests/support/reference_sp.hpp), fault masks, bounds, digraphs,
// targeted early exit, epoch rollover of the pooled scratch, and the
// zero-allocation guarantee for the conversion inner loop.
//
// This suite links tests/support/counting_allocator.cpp, whose counting
// allocation functions let the hot-loop tests assert an exact allocation
// count of zero after warm-up.
#include "graph/sp_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ftspanner/conversion.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "spanner/greedy.hpp"
#include "support/counting_allocator.hpp"
#include "support/reference_sp.hpp"
#include "util/rng.hpp"

namespace ftspan {
namespace {

using test::reference_dijkstra;

// The engine's last run from `s` against the reference: distances equal bit
// for bit; every parent is a tight predecessor (ties may break differently),
// and the source and unreachable vertices have none.
void expect_matches_reference(const Graph& g, const DijkstraEngine& eng,
                              const test::ReferenceTree& ref, Vertex s) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(eng.dist(v), ref.dist[v]) << "s=" << s << " v=" << v;
    if (v == s || !ref.reachable(v))
      EXPECT_EQ(eng.parent(v), kInvalidVertex) << "s=" << s << " v=" << v;
    else
      EXPECT_TRUE(test::is_tight_parent(g, ref, eng.parent(v), v))
          << "s=" << s << " v=" << v << " parent=" << eng.parent(v);
  }
}

Graph weighted_test_graph() {
  Graph g(8);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 1.5);
  g.add_edge(0, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 2, 1.0);
  g.add_edge(2, 5, 4.0);
  g.add_edge(5, 6, 0.5);
  g.add_edge(1, 6, 10.0);
  // vertex 7 isolated
  return g;
}

TEST(DijkstraEngine, MatchesReferenceDijkstra) {
  for (const double max_weight : {1.0, 5.0}) {
    const Graph g = gnp(60, 0.1, 7, max_weight);
    DijkstraEngine eng;
    for (Vertex s = 0; s < g.num_vertices(); s += 7) {
      eng.run(g, s);
      expect_matches_reference(g, eng, reference_dijkstra(g, s), s);
    }
  }
}

TEST(DijkstraEngine, CsrViewMatchesAdjacencyView) {
  const Graph g = gnp(60, 0.1, 8);
  const Csr csr(g);
  ASSERT_EQ(csr.num_vertices(), g.num_vertices());
  ASSERT_EQ(csr.num_arcs(), 2 * g.num_edges());
  // The snapshot preserves per-vertex arc order exactly.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto arcs = g.neighbors(v);
    const auto flat = csr.out(v);
    ASSERT_EQ(arcs.size(), flat.size());
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      EXPECT_EQ(arcs[i].to, flat[i].to);
      EXPECT_EQ(arcs[i].edge, flat[i].edge);
      EXPECT_EQ(arcs[i].w, flat[i].w);
    }
  }
  DijkstraEngine a, b;
  for (Vertex s = 0; s < g.num_vertices(); s += 11) {
    a.run(g, s);
    b.run(csr, s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(a.dist(v), b.dist(v));
      EXPECT_EQ(a.parent(v), b.parent(v));
      EXPECT_EQ(a.via(v), b.via(v));
    }
  }
}

TEST(DijkstraEngine, BoundAndFaultsMatchReference) {
  const Graph g = weighted_test_graph();
  VertexSet faults(g.num_vertices());
  faults.insert(3);
  const Weight bound = 4.0;
  DijkstraEngine eng;
  eng.run(g, 0, &faults, {}, bound);
  expect_matches_reference(g, eng, reference_dijkstra(g, 0, &faults, bound),
                           0);
}

TEST(DijkstraEngine, TargetedEarlyExitSettlesAllTargets) {
  const Graph g = weighted_test_graph();
  DijkstraEngine eng;
  const Vertex targets[] = {2, 6};
  eng.run(g, 0, nullptr, targets);
  const auto ref = reference_dijkstra(g, 0);
  for (const Vertex t : targets) {
    EXPECT_TRUE(eng.settled(t));
    EXPECT_EQ(eng.dist(t), ref.dist[t]);
  }
}

TEST(DijkstraEngine, BoundedPairMatchesReference) {
  const Graph g = gnp(50, 0.12, 9, 4.0);
  DijkstraEngine eng;
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const Vertex s = static_cast<Vertex>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.num_vertices()) - 1));
    const Vertex t = static_cast<Vertex>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.num_vertices()) - 1));
    EXPECT_EQ(eng.bounded_pair(g, s, t), reference_dijkstra(g, s).dist[t]);
    EXPECT_EQ(eng.bounded_pair(g, s, t, nullptr, 2.0),
              reference_dijkstra(g, s, nullptr, 2.0).dist[t]);
  }
}

TEST(DijkstraEngine, SettleOrderIsNonDecreasingAndParentFirst) {
  const Graph g = gnp(40, 0.15, 4);
  DijkstraEngine eng;
  eng.run(g, 0);
  Weight prev = 0;
  std::vector<char> seen(g.num_vertices(), 0);
  for (const Vertex v : eng.settle_order()) {
    EXPECT_GE(eng.dist(v), prev);
    prev = eng.dist(v);
    if (eng.parent(v) != kInvalidVertex) {
      EXPECT_TRUE(seen[eng.parent(v)]);
    }
    seen[v] = 1;
  }
}

// The pooled scratch is invalidated by a 32-bit epoch bump; when the counter
// wraps, stamps from 2^32 runs ago must not read as current. Jump the epoch
// to just below the wrap and check results straddling it.
TEST(DijkstraEngine, EpochRolloverKeepsResultsCorrect) {
  const Graph g = weighted_test_graph();
  DijkstraEngine eng;
  eng.run(g, 0);  // stamps every reachable vertex at epoch 1
  eng.debug_set_epoch(0xfffffffeu);
  // Next run uses epoch 0xffffffff; the one after wraps to 0 -> reset to 1,
  // the same value the first run used. Stale stamps must not leak through.
  for (int run = 0; run < 3; ++run) {
    eng.run(g, 1);  // different source: distances differ from the stale run
    expect_matches_reference(g, eng, reference_dijkstra(g, 1), 1);
  }
  EXPECT_GE(eng.debug_epoch(), 1u);
  EXPECT_LE(eng.debug_epoch(), 2u);  // wrapped: 0xffffffff -> 1 -> 2
}

// An integer-weight random graph (weights min_w..max_w). With the default
// max_w = 12 the delta queue gets one key per bucket (Dial's queue); with
// max_w above kMaxBucketWeight it gets wider buckets (the mid-range).
// min_w = 0 adds zero-weight arcs, whose pushes land in the bucket being
// drained.
Graph integer_test_graph(std::size_t n, double p, std::uint64_t seed,
                         std::int64_t max_w = 12, std::int64_t min_w = 1) {
  Graph g = gnp(n, p, seed);
  Graph out(g.num_vertices());
  Rng rng(hash_combine(seed, 0x1b));
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    out.add_edge(e.u, e.v,
                 static_cast<Weight>(rng.uniform_int(min_w, max_w)));
  }
  return out;
}

// Runs `heap` and `other` from every 5th source under a two-vertex fault
// set and expects distances, parents, vias, AND the settle order to match
// bit for bit.
void expect_matches_heap_bit_for_bit(const Graph& g, const Csr& csr,
                                     DijkstraEngine& heap,
                                     DijkstraEngine& other) {
  VertexSet faults(g.num_vertices());
  faults.insert(3);
  faults.insert(17);
  for (Vertex s = 0; s < g.num_vertices(); s += 5) {
    heap.run(csr, s, &faults);
    other.run(csr, s, &faults);
    const auto ho = heap.settle_order();
    const auto oo = other.settle_order();
    ASSERT_EQ(ho.size(), oo.size()) << "s=" << s;
    for (std::size_t i = 0; i < ho.size(); ++i)
      EXPECT_EQ(ho[i], oo[i]) << "s=" << s << " i=" << i;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(heap.dist(v), other.dist(v)) << "s=" << s << " v=" << v;
      EXPECT_EQ(heap.parent(v), other.parent(v)) << "s=" << s << " v=" << v;
      EXPECT_EQ(heap.via(v), other.via(v)) << "s=" << s << " v=" << v;
    }
  }
}

// The core contract: on integer weights the bucket queue reproduces the
// stable heap bit-for-bit — distances, parents, vias, AND the settle order.
// Small weights give the delta queue one key per bucket (Dial's queue, what
// kAuto runs on unit weights). The zero-minimum input pushes into the
// bucket being drained.
TEST(DijkstraEngine, BucketQueueMatchesHeapBitForBitOnIntegerWeights) {
  for (const std::int64_t min_w : {1, 0}) {
    SCOPED_TRACE(min_w);
    const Graph g = integer_test_graph(90, 0.08, 21, 12, min_w);
    const Csr csr(g);
    ASSERT_TRUE(csr.weights().integral);
    ASSERT_EQ(tune_delta(csr.weights().max_weight), 1.0);
    DijkstraEngine heap, bucket;
    heap.set_queue(SpQueue::kHeap);
    bucket.set_queue(SpQueue::kDelta, csr.weights().max_weight);
    expect_matches_heap_bit_for_bit(g, csr, heap, bucket);
  }
}

TEST(DijkstraEngine, BucketQueueBoundedPairMatchesHeap) {
  const Graph g = integer_test_graph(70, 0.1, 33);
  const Csr csr(g);
  DijkstraEngine heap, bucket;
  heap.set_queue(SpQueue::kHeap);
  bucket.set_queue(SpQueue::kDelta, csr.weights().max_weight);
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    const Vertex s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
    const Vertex t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
    const Weight bound = static_cast<Weight>(rng.uniform_int(1, 24));
    EXPECT_EQ(heap.bounded_pair(csr, s, t, nullptr, bound),
              bucket.bounded_pair(csr, s, t, nullptr, bound))
        << "s=" << s << " t=" << t << " bound=" << bound;
  }
}

// The delta queue on mid-range weights (1..10^5, above the Dial ceiling):
// distances, parents, vias, AND the settle order must match the stable heap
// bit for bit — the same contract the bucket queue carries below the ceiling.
// The zero-minimum input (0..12 with bucket_max 2, so 8-key buckets) pushes
// into the open bucket's heap on most relaxations, zero-weight arcs included.
TEST(DijkstraEngine, DeltaQueueMatchesHeapBitForBitOnMidRangeWeights) {
  struct Input {
    std::int64_t max_w, min_w;
    Weight bucket_max;
  };
  for (const Input in : {Input{100000, 1, kMaxBucketWeight}, Input{12, 0, 2}}) {
    SCOPED_TRACE(in.min_w);
    const Graph g = integer_test_graph(90, 0.08, 21, in.max_w, in.min_w);
    const Csr csr(g);
    ASSERT_TRUE(csr.weights().integral);
    ASSERT_GT(tune_delta(csr.weights().max_weight, in.bucket_max), 1.0);
    DijkstraEngine heap, delta;
    heap.set_queue(SpQueue::kHeap);
    delta.set_queue(SpQueue::kDelta, csr.weights().max_weight, in.bucket_max);
    expect_matches_heap_bit_for_bit(g, csr, heap, delta);
  }
}

// Tie-dense regime: few distinct weights, so equal-distance pops are the
// common case and the (distance, push sequence) tie-break carries the whole
// determinism contract through the settle heap.
TEST(DijkstraEngine, DeltaQueueMatchesHeapOnTieDenseWeights) {
  Graph base = gnp(80, 0.1, 77);
  Graph g(base.num_vertices());
  Rng rng(hash_combine(77, 0x2c));
  for (EdgeId id = 0; id < base.num_edges(); ++id) {
    const Edge& e = base.edge(id);
    // Three weight levels far above the Dial ceiling -> constant ties.
    g.add_edge(e.u, e.v,
               static_cast<Weight>(10000 * rng.uniform_int(1, 3)));
  }
  const Csr csr(g);
  DijkstraEngine heap, delta;
  heap.set_queue(SpQueue::kHeap);
  delta.set_queue(SpQueue::kDelta, csr.weights().max_weight);
  for (Vertex s = 0; s < g.num_vertices(); s += 7) {
    heap.run(csr, s);
    delta.run(csr, s);
    const auto ho = heap.settle_order();
    const auto dl = delta.settle_order();
    ASSERT_EQ(ho.size(), dl.size()) << "s=" << s;
    for (std::size_t i = 0; i < ho.size(); ++i)
      ASSERT_EQ(ho[i], dl[i]) << "s=" << s << " i=" << i;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(heap.parent(v), delta.parent(v)) << "s=" << s << " v=" << v;
      ASSERT_EQ(heap.via(v), delta.via(v)) << "s=" << s << " v=" << v;
    }
  }
}

TEST(DijkstraEngine, DeltaQueueBoundedPairMatchesHeap) {
  const Graph g = integer_test_graph(70, 0.1, 33, 100000);
  const Csr csr(g);
  DijkstraEngine heap, delta;
  heap.set_queue(SpQueue::kHeap);
  delta.set_queue(SpQueue::kDelta, csr.weights().max_weight);
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    const Vertex s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
    const Vertex t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
    const Weight bound = static_cast<Weight>(rng.uniform_int(1, 300000));
    EXPECT_EQ(heap.bounded_pair(csr, s, t, nullptr, bound),
              delta.bounded_pair(csr, s, t, nullptr, bound))
        << "s=" << s << " t=" << t << " bound=" << bound;
  }
}

// A pair search runs its halves on the engines' heaps whatever queue they
// are set to: engine pairs set to the heap, the delta queue and the
// one-key-per-bucket kBucket give bit-identical answers on unit, small
// integer, mid-range integer (where kBucket's ring holds 1e5 + 2 buckets the
// search never scans) and decimal weights, under random faults.
TEST(DijkstraEngine, BidirectionalBoundedPairIgnoresTheConfiguredQueue) {
  struct Input {
    const char* name;
    Graph g;
  };
  const Input inputs[] = {
      {"unit", gnp(60, 0.1, 44)},
      {"small", integer_test_graph(60, 0.1, 44)},
      {"midrange", integer_test_graph(60, 0.1, 44, 100000)},
      {"decimal", gnp(60, 0.1, 44, 10.0)},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const Csr csr(in.g);
    const Weight max_w = csr.weights().max_weight;
    const auto visit = [&csr](Vertex v, auto&& relax) {
      for (const CsrArc& a : csr.out(v)) relax(a.to, a.w, a.edge);
    };
    DijkstraEngine pairs[3][2];
    const SpQueue queues[3] = {SpQueue::kHeap, SpQueue::kDelta,
                               SpQueue::kBucket};
    for (int q = 0; q < 3; ++q)
      for (DijkstraEngine& e : pairs[q]) e.set_queue(queues[q], max_w);
    Rng rng(6);
    for (int trial = 0; trial < 60; ++trial) {
      const Vertex s = static_cast<Vertex>(rng.uniform_index(60));
      const Vertex t = static_cast<Vertex>(rng.uniform_index(60));
      VertexSet faults(60);
      for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i)
        faults.insert(static_cast<Vertex>(rng.uniform_index(60)));
      const Weight bound = max_w * static_cast<Weight>(rng.uniform_int(1, 3));
      const Weight want = DijkstraEngine::bidirectional_bounded_pair(
          pairs[0][0], pairs[0][1], 60, s, t, &faults, bound, visit);
      for (int q = 1; q < 3; ++q)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(want),
                  std::bit_cast<std::uint64_t>(
                      DijkstraEngine::bidirectional_bounded_pair(
                          pairs[q][0], pairs[q][1], 60, s, t, &faults, bound,
                          visit)))
            << to_string(queues[q]) << " s=" << s << " t=" << t
            << " bound=" << bound;
    }
  }
}

// The acceptance threshold turns the pair search into the decision
// "d(s, t) <= accept?". Against the reference Dijkstra, on unit, small and
// mid-range integer and on decimal weights, under random fault sets, with
// thresholds on both sides of d: the answer is right, the returned value is
// a real path (never below d), and a search that does not accept returns
// exactly what the threshold-free search returns. Decimal path sums carry
// rounding in any order, so there the thresholds keep a relative distance
// of 1e-6 from d and the lower bound allows an ulp-scale gap; on integer
// weights every sum is exact and both are tested bit for bit, at
// accept = d included.
TEST(DijkstraEngine, BidirectionalAcceptThresholdDecidesTheDistance) {
  struct Input {
    const char* name;
    Graph g;
  };
  const Input inputs[] = {
      {"unit", gnp(90, 0.05, 51)},
      {"small", integer_test_graph(90, 0.05, 54)},
      {"midrange", integer_test_graph(90, 0.05, 52, 100000)},
      {"decimal", gnp(90, 0.05, 53, 10.0)},
  };
  for (const Input& in : inputs) {
    const Csr csr(in.g);
    const bool exact = csr.weights().exact_sums();
    const Weight max_w = csr.weights().max_weight;
    const auto visit = [&csr](Vertex v, auto&& relax) {
      for (const CsrArc& a : csr.out(v)) relax(a.to, a.w, a.edge);
    };
    SCOPED_TRACE(in.name);
    DijkstraEngine f, b, full_f, full_b;
    Rng rng(hash_combine(7, in.g.num_edges()));
    std::size_t accepted = 0, rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
      const Vertex s = static_cast<Vertex>(rng.uniform_index(90));
      const Vertex t = static_cast<Vertex>(rng.uniform_index(90));
      VertexSet faults(90);
      for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i)
        faults.insert(static_cast<Vertex>(rng.uniform_index(90)));
      const Weight d = reference_dijkstra(in.g, s, &faults).dist[t];
      const Weight scale = d < kInfiniteWeight ? d : 4 * max_w;
      std::vector<Weight> accepts = {0, scale * (1 - 1e-6),
                                     scale * (1 + 1e-6), scale * 0.5,
                                     scale * 2};
      if (exact) accepts.insert(accepts.end(), {d, d - 1, d + 1});
      for (const Weight accept : accepts) {
        if (!(accept < kInfiniteWeight)) continue;
        for (const Weight bound : {accept, accept * 3, kInfiniteWeight}) {
          const std::string where =
              "s=" + std::to_string(s) + " t=" + std::to_string(t) +
              " d=" + std::to_string(d) + " accept=" +
              std::to_string(accept) + " bound=" + std::to_string(bound);
          const Weight got = DijkstraEngine::bidirectional_bounded_pair(
              f, b, 90, s, t, &faults, bound, visit, accept);
          EXPECT_EQ(got <= accept, d <= accept) << where;
          if (exact)
            EXPECT_GE(got, d) << where;
          else
            EXPECT_GE(got, d * (1 - 1e-12)) << where;
          if (got <= accept) {
            ++accepted;
            continue;
          }
          ++rejected;
          const Weight want = DijkstraEngine::bidirectional_bounded_pair(
              full_f, full_b, 90, s, t, &faults, bound, visit);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(want))
              << where;
        }
      }
    }
    // Both answers occur often, so every assertion above was exercised.
    EXPECT_GT(accepted, 300u);
    EXPECT_GT(rejected, 300u);
  }
}

// The goal-directed pair search against the reference Dijkstra on G \ F,
// under vertex faults and under edge faults, with the potential the
// StretchOracle uses: the labels of a fault-free run from t that is bounded
// and targeted, so it stops early, and pi(x) = min(label(x), last settled
// label) — unsettled vertices take the last label. On integer weights every
// sum is exact and the answer must be d bit for bit; on decimal weights it
// must be within 1e-9 of d (relative), and below d once scaled by
// (1 - kTieWindow), as the oracle uses it. Without the clamp at 0 of the
// reduced lengths (see DijkstraEngine::goal_directed_pair) the decimal
// inputs come back far above d.
TEST(DijkstraEngine, GoalDirectedPairMatchesReferenceUnderFaults) {
  struct Input {
    const char* name;
    Graph g;
  };
  const Input inputs[] = {
      {"unit", gnp(90, 0.06, 61)},
      {"midrange", integer_test_graph(90, 0.06, 62, 100000)},
      {"decimal", gnp(90, 0.06, 63, 10.0)},
      {"geometric", random_geometric(120, 0.2, 64)},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const std::size_t n = in.g.num_vertices();
    const std::size_t m = in.g.num_edges();
    const Csr csr(in.g);
    const bool exact = csr.weights().exact_sums();
    const Weight max_w = csr.weights().max_weight;
    DijkstraEngine base, query;
    std::vector<Weight> label(n, kInfiniteWeight);
    Rng rng(hash_combine(11, m));
    std::size_t answered = 0;
    for (int trial = 0; trial < 240; ++trial) {
      const Vertex s = static_cast<Vertex>(rng.uniform_index(n));
      const Vertex t = static_cast<Vertex>(rng.uniform_index(n));
      // The potential toward t: a bounded run from t, targeted at up to
      // three random vertices.
      std::vector<Vertex> targets;
      for (std::int64_t i = rng.uniform_int(1, 3); i > 0; --i)
        targets.push_back(static_cast<Vertex>(rng.uniform_index(n)));
      base.run(csr, t, nullptr, targets,
               max_w * static_cast<Weight>(rng.uniform_int(1, 4)));
      std::fill(label.begin(), label.end(), kInfiniteWeight);
      for (const Vertex x : base.settle_order()) label[x] = base.dist(x);
      const Weight last = base.dist(base.settle_order().back());
      const auto pi = [&](Vertex x) { return std::min(label[x], last); };

      const bool edge_faults = trial % 2 == 1;
      VertexSet faults(edge_faults ? m : n);
      for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i)
        faults.insert(static_cast<Vertex>(
            rng.uniform_index(edge_faults ? m : n)));
      Weight d = 0;
      if (edge_faults) {
        std::vector<EdgeId> kept;
        for (EdgeId id = 0; id < m; ++id)
          if (!faults.contains(id)) kept.push_back(id);
        d = reference_dijkstra(in.g.edge_subgraph(kept), t).dist[s];
      } else {
        d = reference_dijkstra(in.g, t, &faults).dist[s];
      }
      const auto visit = [&](Vertex v, auto&& relax) {
        for (const CsrArc& a : csr.out(v))
          if (!edge_faults || !faults.contains(a.edge))
            relax(a.to, a.w, a.edge);
      };
      const VertexSet* vertex_faults = edge_faults ? nullptr : &faults;
      const Weight finite = d < kInfiniteWeight ? d : 4 * max_w;
      std::vector<Weight> bounds = {kInfiniteWeight, 2 * finite, finite / 2};
      if (exact) bounds.push_back(finite);  // the oracle's w(u, v) = d case
      for (const Weight bound : bounds) {
        const Weight got = query.goal_directed_pair(n, s, t, vertex_faults,
                                                    bound, pi, visit);
        const std::string where = "s=" + std::to_string(s) +
                                  " t=" + std::to_string(t) +
                                  " d=" + std::to_string(d) +
                                  " bound=" + std::to_string(bound) +
                                  (edge_faults ? " edge faults" : "");
        if (!(d <= bound) || d == kInfiniteWeight) {
          EXPECT_EQ(got, kInfiniteWeight) << where;
        } else if (exact) {
          EXPECT_EQ(got, d) << where;
        } else {
          EXPECT_LE(got * (1 - kTieWindow), d) << where;
          EXPECT_LE(std::abs(got - d), 1e-9 * d) << where;
        }
        if (d <= bound && d > 0 && d < kInfiniteWeight) ++answered;
      }
    }
    EXPECT_GT(answered, 240u);  // the assertions above ran on real paths
  }
}

// goal_directed_pair's soundness without a consistent potential: with any
// pi >= 0 and pi(t) = 0, the search still settles vertices along real
// paths, and t's label plus pi(s) sums reduced lengths max(0, w - pi(x) +
// pi(y)) that telescope to at least the length of the path it found. So a
// finite answer is never below that path's length, nor below d = d_{G\F}
// (times 1 - kTieWindow on inexact sums), whatever pi overestimates; the
// oracle's H queries rely on it. A consistent pi on exact sums gives d.
TEST(DijkstraEngine, GoalDirectedPairNeverUndercutsARealPath) {
  struct Input {
    const char* name;
    Graph g;
  };
  const Input inputs[] = {
      {"unit", gnp(90, 0.06, 71)},
      {"integer", integer_test_graph(90, 0.06, 72, 100000)},
      {"decimal", gnp(90, 0.06, 73, 10.0)},
  };
  enum Kind { kRow, kNoisy, kScaled, kRandom, kKinds };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const std::size_t n = in.g.num_vertices();
    const std::size_t m = in.g.num_edges();
    const Csr csr(in.g);
    const bool exact = csr.weights().exact_sums();
    const Weight max_w = csr.weights().max_weight;
    // Integer potentials keep every reduced sum exact on exact inputs.
    Rng rng(hash_combine(12, m));
    const auto draw = [&](Weight hi) {
      return exact ? static_cast<Weight>(rng.uniform_int(
                         0, static_cast<std::int64_t>(hi)))
                   : rng.uniform(0.0, hi);
    };
    DijkstraEngine base, query;
    std::vector<Weight> pi_of(n);
    std::size_t answered = 0, overshot = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const Vertex s = static_cast<Vertex>(rng.uniform_index(n));
      const Vertex t = static_cast<Vertex>(rng.uniform_index(n));
      const Kind kind = static_cast<Kind>(trial % kKinds);
      // kRow: min(d_G(x, t), last) from a bounded run from t, consistent.
      // The others overestimate: kNoisy adds +-max_w to it, kScaled
      // triples it, kRandom ignores the graph.
      base.run(csr, t, nullptr, {},
               max_w * static_cast<Weight>(rng.uniform_int(1, 4)));
      const Weight last = base.dist(base.settle_order().back());
      for (Vertex x = 0; x < n; ++x) {
        const Weight row = std::min(base.dist(x), last);
        switch (kind) {
          case kRow: pi_of[x] = row; break;
          case kNoisy:
            pi_of[x] = std::max(Weight{0}, row + draw(2 * max_w) - max_w);
            break;
          case kScaled: pi_of[x] = 3 * row; break;
          default: pi_of[x] = draw(4 * max_w); break;
        }
      }
      pi_of[t] = 0;
      const auto pi = [&](Vertex x) { return pi_of[x]; };

      const bool edge_faults = trial % 2 == 1;
      VertexSet faults(edge_faults ? m : n);
      for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i)
        faults.insert(static_cast<Vertex>(
            rng.uniform_index(edge_faults ? m : n)));
      Weight d = 0;
      if (edge_faults) {
        std::vector<EdgeId> kept;
        for (EdgeId id = 0; id < m; ++id)
          if (!faults.contains(id)) kept.push_back(id);
        d = reference_dijkstra(in.g.edge_subgraph(kept), t).dist[s];
      } else {
        d = reference_dijkstra(in.g, t, &faults).dist[s];
      }
      const auto visit = [&](Vertex v, auto&& relax) {
        for (const CsrArc& a : csr.out(v))
          if (!edge_faults || !faults.contains(a.edge))
            relax(a.to, a.w, a.edge);
      };
      const VertexSet* vertex_faults = edge_faults ? nullptr : &faults;
      const Weight finite = d < kInfiniteWeight ? d : 4 * max_w;
      for (const Weight bound : {kInfiniteWeight, 2 * finite, finite / 2}) {
        const Weight got = query.goal_directed_pair(n, s, t, vertex_faults,
                                                    bound, pi, visit);
        const std::string where = "kind=" + std::to_string(kind) +
                                  " s=" + std::to_string(s) +
                                  " t=" + std::to_string(t) +
                                  " d=" + std::to_string(d) +
                                  " bound=" + std::to_string(bound) +
                                  (edge_faults ? " edge faults" : "");
        if (d == kInfiniteWeight) {
          EXPECT_EQ(got, kInfiniteWeight) << where;
          continue;
        }
        if (kind == kRow && exact && d <= bound) {
          EXPECT_EQ(got, d) << where;
        }
        if (got == kInfiniteWeight) continue;
        const Weight slack = exact ? 1 : 1 - kTieWindow;
        EXPECT_GE(got, d * slack) << where;
        if (exact) {
          EXPECT_LE(got, bound) << where;
        }
        // The path the search found: t's parent chain back to s, every
        // step an arc of G minus F.
        Weight length = 0;
        std::size_t hops = 0;
        for (Vertex x = t; x != s && hops <= n; ++hops) {
          const Vertex y = query.parent(x);
          ASSERT_NE(y, kInvalidVertex) << where;
          const Edge& e = in.g.edge(query.via(x));
          ASSERT_TRUE((e.u == x && e.v == y) || (e.u == y && e.v == x))
              << where;
          EXPECT_FALSE(faults.contains(edge_faults ? query.via(x) : y))
              << where;
          length += e.w;
          x = y;
        }
        ASSERT_LE(hops, n) << where;
        EXPECT_GE(got, length * slack) << where;
        ++answered;
        if (got > d * (1 + 1e-9)) ++overshot;
      }
    }
    EXPECT_GT(answered, 200u);  // the assertions above ran on real paths
    // An overestimating pi does return longer paths, here and there.
    EXPECT_GT(overshot, 0u);
  }
}

TEST(DijkstraEngine, TuneDeltaFollowsTheBucketBudgetRule) {
  // delta = smallest power of two with max_weight / delta <= bucket_max.
  EXPECT_EQ(tune_delta(100.0), 1.0);
  EXPECT_EQ(tune_delta(4096.0), 1.0);
  EXPECT_EQ(tune_delta(100000.0), 32.0);
  EXPECT_EQ(tune_delta(1000000.0), 256.0);
  EXPECT_EQ(tune_delta(100000.0, 1024.0), 128.0);
  EXPECT_EQ(tune_delta(0.0), 1.0);
}

TEST(DijkstraEngine, AutoPolicySelectsDeltaForExactSumsAndHeapOtherwise) {
  // The delta queue on every exact-sum graph, whatever its max weight:
  // tune_delta gives one key per bucket up to kMaxBucketWeight (Dial's
  // queue) and wider buckets above it.
  EXPECT_EQ(select_sp_queue(SpEnginePolicy::kAuto, true), SpQueue::kDelta);
  EXPECT_EQ(select_sp_queue(SpEnginePolicy::kAuto, false), SpQueue::kHeap);
  EXPECT_EQ(select_sp_queue(SpEnginePolicy::kHeap, true), SpQueue::kHeap);
  EXPECT_EQ(select_sp_queue(SpEnginePolicy::kDelta, true), SpQueue::kDelta);
  // An explicit delta request is downgraded without exact sums — a
  // label-setting bucket structure would be incorrect there.
  EXPECT_EQ(select_sp_queue(SpEnginePolicy::kDelta, false), SpQueue::kHeap);
  // The max weight does not move the choice (the argument stays for the
  // benchmark's 3-argument call).
  for (const Weight max_w : {1.0, 12.0, 4097.0, 100000.0})
    EXPECT_EQ(select_sp_queue(SpEnginePolicy::kAuto, true, max_w),
              SpQueue::kDelta);
}

TEST(DijkstraEngine, BucketQueueRunIsAllocationFreeAfterWarmUp) {
  const Graph g = integer_test_graph(80, 0.1, 55);
  const Csr csr(g);
  DijkstraEngine eng;
  eng.set_queue(SpQueue::kDelta, csr.weights().max_weight);
  eng.reserve(g.num_vertices(), 2 * g.num_edges() + 1);
  eng.run(csr, 0);  // warm-up
  const std::size_t before = test::allocation_count();
  for (Vertex s = 0; s < g.num_vertices(); ++s) eng.run(csr, s);
  const std::size_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u);
}

TEST(DijkstraEngine, DeltaQueueRunIsAllocationFreeAfterWarmUp) {
  const Graph g = integer_test_graph(80, 0.1, 55, 100000);
  const Csr csr(g);
  DijkstraEngine eng;
  eng.set_queue(SpQueue::kDelta, csr.weights().max_weight);
  eng.reserve(g.num_vertices(), 2 * g.num_edges() + 1);
  eng.run(csr, 0);  // warm-up
  const std::size_t before = test::allocation_count();
  for (Vertex s = 0; s < g.num_vertices(); ++s) eng.run(csr, s);
  const std::size_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u);
}

TEST(DijkstraEngine, RunIsAllocationFreeAfterWarmUp) {
  const Graph g = gnp(80, 0.1, 5);
  const Csr csr(g);
  DijkstraEngine eng;
  eng.reserve(g.num_vertices(), 2 * g.num_edges() + 1);
  eng.run(csr, 0);  // warm-up
  const std::size_t before = test::allocation_count();
  for (Vertex s = 0; s < g.num_vertices(); ++s) eng.run(csr, s);
  const std::size_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u);
}

// The conversion inner loops: sample a fault set, run the greedy base
// spanner through the pooled workspace. Vertex faults run it on G \ F;
// edge faults sort the surviving edge ids by weight and run it over them in
// that order. After one warm-up iteration either loop must perform zero
// heap allocations, on unit weights (one key per bucket) and on integer
// weights up to 1e5 (32-key buckets); either way the pair searches run on
// the heap.
TEST(DijkstraEngine, ConversionInnerLoopIsAllocationFreeAfterWarmUp) {
  for (const Graph& g :
       {gnp(120, 0.08, 6), integer_test_graph(120, 0.08, 6, 100000)}) {
    const GreedyContext ctx(g);
    SCOPED_TRACE(ctx.weights.max_weight);
    GreedyWorkspace ws;
    VertexSet removed(g.num_vertices());
    std::vector<EdgeId> survivors;
    survivors.reserve(g.num_edges());

    const auto vertex_iteration = [&](std::uint64_t it) {
      Rng rng(hash_combine(11, it));
      removed.clear();
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        if (!rng.bernoulli(0.8)) removed.insert(v);
      return ws.run(ctx, 3.0, &removed).size();
    };
    const auto edge_iteration = [&](std::uint64_t it) {
      Rng rng(hash_combine(11, it));
      survivors.clear();
      for (EdgeId id = 0; id < g.num_edges(); ++id)
        if (rng.bernoulli(0.5)) survivors.push_back(id);
      std::sort(survivors.begin(), survivors.end(), [&g](EdgeId a, EdgeId b) {
        return g.edge(a).w < g.edge(b).w;
      });
      return ws.run(ctx, 3.0, survivors).size();
    };

    for (const auto& iteration :
         {std::function<std::size_t(std::uint64_t)>(vertex_iteration),
          std::function<std::size_t(std::uint64_t)>(edge_iteration)}) {
      std::size_t kept = iteration(0);  // warm-up
      const std::size_t before = test::allocation_count();
      for (std::uint64_t it = 1; it <= 20; ++it) kept += iteration(it);
      const std::size_t after = test::allocation_count();
      EXPECT_GT(kept, 0u);
      EXPECT_EQ(after - before, 0u);
    }
  }
}

}  // namespace
}  // namespace ftspan
