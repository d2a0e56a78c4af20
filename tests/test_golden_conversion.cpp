// Golden-seed bit-identity for the Theorem 2.1 conversion.
//
// The expected hashes below were captured from the pre-engine implementation
// (adjacency-list greedy + per-call pair_distance, commit 6a18ca8) on
// gnp(400, 0.05, 1234), k = 3, r = 2, iteration_constant = 0.25. The CSR +
// pooled-engine hot path must reproduce every edge set bit-for-bit, at every
// thread count — the refactor is a pure performance change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/import.hpp"
#include "runner/runner.hpp"
#include "runner/workloads.hpp"
#include "spanner/greedy.hpp"
#include "support/edge_list_hash.hpp"
#include "support/temp_path.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

// The shared FNV-1a fingerprint — using the runner's implementation keeps
// these golden hashes directly comparable to ScenarioCell::edges_hash.
std::uint64_t fnv1a(const std::vector<EdgeId>& edges) {
  return runner::edge_set_hash(edges);
}

struct Golden {
  std::uint64_t seed;
  std::size_t edges;
  std::uint64_t hash;
};

// One row per conversion seed; each must hold at threads 1, 2, 4, and 8.
constexpr Golden kGolden[] = {
    {1, 4033, 0xea91477888d16344ull},
    {7, 4028, 0xfef289fb1141209cull},
    {42, 4030, 0x2c7feb972a4d3910ull},
};

TEST(GoldenConversion, FtGreedySpannerBitIdenticalAcrossRefactorAndThreads) {
  const Graph g = gnp(400, 0.05, 1234);
  // The golden hashes must also survive every engine policy: the bucket
  // queue's pop order — FIFO per key for Dial, the open bucket's stable heap
  // for delta — is the stable heap's order, so heap, bucket, delta, and auto
  // are all bit-identical on this unit-weight graph — at every thread count,
  // whichever lane runs which iteration.
  constexpr SpEnginePolicy kPolicies[] = {
      SpEnginePolicy::kAuto, SpEnginePolicy::kHeap, SpEnginePolicy::kBucket,
      SpEnginePolicy::kDelta};
  for (const Golden& want : kGolden) {
    std::vector<EdgeId> at_one_thread;
    for (const SpEnginePolicy engine : kPolicies)
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ConversionOptions opt;
        opt.threads = threads;
        opt.iteration_constant = 0.25;
        opt.engine = engine;
        const auto res = ft_greedy_spanner(g, 3.0, 2, want.seed, opt);
        EXPECT_EQ(res.edges.size(), want.edges)
            << "seed=" << want.seed << " threads=" << threads
            << " engine=" << to_string(engine);
        EXPECT_EQ(fnv1a(res.edges), want.hash)
            << "seed=" << want.seed << " threads=" << threads
            << " engine=" << to_string(engine);
        if (at_one_thread.empty())
          at_one_thread = res.edges;
        else
          EXPECT_EQ(res.edges, at_one_thread)
              << "thread count or engine changed the output at seed "
              << want.seed;
      }
  }
}

// Same contract for the edge-fault conversion, on both a unit-weight graph
// (every edge weight tied — the case where greedy visit order is most
// fragile) and a distinct-weight graph. Hashes captured from commit 6a18ca8
// on gnp(200, 0.06, 5[, 10.0]), k = 5, r = 2, iteration_constant = 0.2.
constexpr Golden kGoldenEdgeUnit[] = {
    {3, 1194, 0xcc9d282eb433da20ull},
    {9, 1187, 0x65d2f23ba63c0f9full},
};
constexpr Golden kGoldenEdgeWeighted[] = {
    {3, 771, 0x29f4603432f4de74ull},
    {9, 781, 0xb856f65238c06602ull},
};

// The edge conversion shares ConversionOptions, so it honours `engine` too:
// every policy must reproduce the same goldens.
void check_edge_goldens(const Graph& g, std::span<const Golden> want) {
  for (const Golden& row : want)
    for (const SpEnginePolicy engine :
         {SpEnginePolicy::kAuto, SpEnginePolicy::kHeap,
          SpEnginePolicy::kBucket, SpEnginePolicy::kDelta})
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ConversionOptions opt;
        opt.threads = threads;
        opt.iteration_constant = 0.2;
        opt.engine = engine;
        const auto res = ft_edge_greedy_spanner(g, 5.0, 2, row.seed, opt);
        EXPECT_EQ(res.edges.size(), row.edges)
            << "seed=" << row.seed << " threads=" << threads
            << " engine=" << to_string(engine);
        EXPECT_EQ(fnv1a(res.edges), row.hash)
            << "seed=" << row.seed << " threads=" << threads
            << " engine=" << to_string(engine);
      }
}

// ISSUE 10: engine=delta must reproduce engine=heap bit-for-bit — edge set,
// hash, AND the oracle's worst-stretch/witness bits — on every golden
// instance class of the mid-range regime (uniform integer, tie-dense,
// DIMACS-imported) at threads 1, 2, 4, and 8.
void check_delta_matches_heap(const Graph& g) {
  std::vector<EdgeId> heap_edges;
  for (const SpEnginePolicy engine :
       {SpEnginePolicy::kHeap, SpEnginePolicy::kDelta})
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ConversionOptions opt;
      opt.threads = threads;
      opt.iteration_constant = 0.25;
      opt.engine = engine;
      const auto res = ft_greedy_spanner(g, 3.0, 2, 42, opt);
      if (heap_edges.empty())
        heap_edges = res.edges;
      else
        ASSERT_EQ(res.edges, heap_edges)
            << "engine=" << to_string(engine) << " threads=" << threads;
    }
  ASSERT_FALSE(heap_edges.empty());

  // The oracle's verdict must be the same bits under both engines too.
  const Graph h = g.edge_subgraph(heap_edges);
  const StretchOracle oracle(g, h, 3.0);
  FtCheckOptions heap_opt, delta_opt;
  heap_opt.engine = SpEnginePolicy::kHeap;
  delta_opt.engine = SpEnginePolicy::kDelta;
  const FtCheckResult a = oracle.check_sampled(2, 6, 4, 77, heap_opt);
  const FtCheckResult b = oracle.check_sampled(2, 6, 4, 77, delta_opt);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.worst_stretch, b.worst_stretch);
  EXPECT_EQ(a.witness_u, b.witness_u);
  EXPECT_EQ(a.witness_v, b.witness_v);
}

TEST(GoldenConversion, DeltaMatchesHeapOnUniformMidRangeWeights) {
  runner::WorkloadParams wp;
  wp.n = 160;
  wp.seed = 1234;
  wp.max_weight = 100000;  // the runner's mid-range reweight knob
  const Graph g = runner::make_workload("gnp", wp).g;
  check_delta_matches_heap(g);
}

TEST(GoldenConversion, DeltaMatchesHeapOnTieDenseMidRangeWeights) {
  // tie_dense weights scaled into the mid-range: three massive tie classes,
  // the regime where an unstable frontier would scramble greedy's order.
  const Graph base = tie_dense(140, 0.1, 3, 7);
  std::vector<Edge> edges;
  for (EdgeId id = 0; id < base.num_edges(); ++id) {
    Edge e = base.edge(id);
    e.w = std::floor(e.w * 10.0) * 10000.0;
    edges.push_back(e);
  }
  check_delta_matches_heap(Graph::from_edges(base.num_vertices(), edges));
}

TEST(GoldenConversion, DeltaMatchesHeapOnDimacsImportedInstance) {
  // A DIMACS .gr instance with road-like mid-range arc weights, streamed
  // through the importer into ftspan.graph.v1 and loaded back — the exact
  // path a real corpus takes into the engine.
  const Graph base = gnp(120, 0.08, 9);
  Rng rng(2026);
  std::ostringstream gr;
  gr << "c synthetic mid-range road-weight instance\n";
  gr << "p sp " << base.num_vertices() << " " << 2 * base.num_edges() << "\n";
  for (EdgeId id = 0; id < base.num_edges(); ++id) {
    const Edge& e = base.edge(id);
    const std::int64_t w = rng.uniform_int(4097, 1000000);
    // Both orientations, the way road corpora ship arcs.
    gr << "a " << e.u + 1 << " " << e.v + 1 << " " << w << "\n";
    gr << "a " << e.v + 1 << " " << e.u + 1 << " " << w << "\n";
  }
  const std::string path = test::temp_path("golden_dimacs.fgb");
  std::istringstream in(gr.str());
  const ImportResult imp = import_graph(in, path, ImportFormat::kDimacs);
  ASSERT_EQ(imp.n, base.num_vertices());
  ASSERT_EQ(imp.edges, base.num_edges());
  const Graph g = load_graph_any(path);
  check_delta_matches_heap(g);
}

TEST(GoldenConversion, FtEdgeGreedySpannerBitIdenticalUnitWeights) {
  check_edge_goldens(gnp(200, 0.06, 5), kGoldenEdgeUnit);
}

TEST(GoldenConversion, FtEdgeGreedySpannerBitIdenticalDistinctWeights) {
  check_edge_goldens(gnp(200, 0.06, 5, 10.0), kGoldenEdgeWeighted);
}

// The benchmark's inputs (perfbench's build_unit and certify_midrange
// instances at seed 1), pinned here so that a change in them — a different
// libm under the generator or the reweight, say — fails as an input check
// instead of silently moving perfbench's goldens.
Graph perfbench_instance(double p, double max_weight) {
  runner::WorkloadParams params;
  params.n = 400;
  params.p = p;
  params.max_weight = max_weight;
  params.seed = 1;
  return runner::make_workload("gnp", params).g;
}

TEST(BenchmarkInputs, PerfbenchInstancesAreUnchanged) {
  const Graph gu = perfbench_instance(0.5, 0);
  EXPECT_EQ(gu.num_vertices(), 400u);
  EXPECT_EQ(gu.num_edges(), 40043u);
  EXPECT_EQ(test::edge_list_hash(gu), 0xcea38a6506e763e4ull);

  const Graph gm = perfbench_instance(0.1, 1e5);
  EXPECT_EQ(gm.num_vertices(), 400u);
  EXPECT_EQ(gm.num_edges(), 8049u);
  EXPECT_EQ(test::edge_list_hash(gm), 0x81c03554df043740ull);

  // The iteration counts both workloads' conversions run (k = 3, r = 2).
  EXPECT_EQ(conversion_iterations(2, 400, 1), 384u);
  EXPECT_EQ(edge_conversion_iterations(2, 400, 1), 192u);
}

// The greedy's work on the same instances, one unmasked run at k = 3: how
// many candidates ran a pair search, how many of those searches stopped at
// the first path within k·w, and how many near-ties were re-run in forward
// order. Deterministic, so a change to the search's work shows here
// exactly. Both instances have integer weights, whose path sums are exact,
// so no near-tie is ever re-run, and every search that does not stop early
// is a kept edge: 1197 − (39648 − 38846) = 395 and 529 − 222 = 307 edges
// are kept without a search, because an endpoint had no spanner edge yet.
TEST(BenchmarkInputs, GreedyWorkCountsArePinned) {
  struct Want {
    double p, max_weight;
    std::size_t kept;
    GreedyWorkspace::Counters counts;
  };
  for (const Want& want : {Want{0.5, 0, 1197, {39648, 38846, 0}},
                           Want{0.1, 1e5, 529, {7742, 7520, 0}}}) {
    SCOPED_TRACE(want.p);
    const Graph g = perfbench_instance(want.p, want.max_weight);
    const GreedyContext ctx(g);
    GreedyWorkspace ws;
    EXPECT_EQ(ws.run(ctx, 3.0).size(), want.kept);
    const GreedyWorkspace::Counters& got = ws.counters();
    EXPECT_EQ(got.searches, want.counts.searches);
    EXPECT_EQ(got.accepted_early, want.counts.accepted_early);
    EXPECT_EQ(got.tie_fallbacks, want.counts.tie_fallbacks);
  }
}

// The oracle's work on the same instances, certifying their Theorem 2.1
// spanners (k = 3, r = 2, seed 1) as perfbench does: the number of
// shortest-path queries (the baseline's runs, decision queries, G pair
// queries and exact runs) of the 256- and 12-set sampled checks. A work
// counter, so it is the same at any thread count, and CI gates it exactly.
TEST(BenchmarkInputs, OracleWorkCountsArePinned) {
  struct Want {
    double p, max_weight;
    std::size_t kept;
    double worst;
    std::size_t searches_256, searches_12;
  };
  for (const Want& want : {Want{0.5, 0, 22157, 2, 24069, 1472},
                           Want{0.1, 1e5, 2098, 1.3224581922642864, 65562,
                                4564}}) {
    SCOPED_TRACE(want.p);
    const Graph g = perfbench_instance(want.p, want.max_weight);
    ConversionOptions conversion;
    conversion.threads = 4;
    const Graph h =
        g.edge_subgraph(ft_greedy_spanner(g, 3, 2, 1, conversion).edges);
    ASSERT_EQ(h.num_edges(), want.kept);
    const StretchOracle oracle(g, h, 3);
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      FtCheckOptions options;
      options.threads = threads;
      const FtCheckResult wide = oracle.check_sampled(2, 256, 0, 1, options);
      EXPECT_EQ(wide.worst_stretch, want.worst);
      EXPECT_EQ(wide.searches, want.searches_256);
      EXPECT_EQ(oracle.check_sampled(2, 12, 0, 1, options).searches,
                want.searches_12);
    }
  }
}

}  // namespace
}  // namespace ftspan
