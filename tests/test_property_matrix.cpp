// The generator × algorithm × fault-model property matrix (ISSUE 3).
//
// Every cell builds a full-scale random graph, runs one spanner algorithm,
// and validates its advertised guarantee through the StretchOracle. A
// failing cell prints a replayable (generator, params, seed) tuple.
#include "property/harness.hpp"

#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/graph_file.hpp"
#include "graph/sp_engine.hpp"
#include "runner/runner.hpp"
#include "support/temp_path.hpp"

namespace ftspan {
namespace {

using proptest::Algorithm;
using proptest::CellFailure;
using proptest::default_algorithms;
using proptest::default_generators;
using proptest::FaultModel;
using proptest::Generator;
using proptest::GraphCase;
using proptest::HarnessOptions;
using proptest::replay_tuple;
using proptest::run_cell;

constexpr std::uint64_t kMatrixSeed = 20260729;

TEST(PropertyMatrix, EveryGeneratorAlgorithmCellHoldsItsGuarantee) {
  const auto generators = default_generators();
  const auto algorithms = default_algorithms();
  std::size_t cells = 0;
  for (const auto& gen : generators)
    for (const auto& algo : algorithms) {
      SCOPED_TRACE(gen.name + " x " + algo.name);
      const auto failure = run_cell(gen, algo, kMatrixSeed);
      EXPECT_FALSE(failure.has_value())
          << "replay: " << replay_tuple(*failure);
      ++cells;
    }
  // The acceptance bar: at least 30 green generator × algorithm cells.
  EXPECT_GE(cells, 30u);
}

// The engine-specialization cell: across every registered workload family,
// families inside the bucket domain (integral weights, bounded maximum —
// where kAuto actually selects the bucket) must reproduce the stable heap
// bit-for-bit: distances, parents, vias, and the settle order. Families
// outside the domain must resolve kAuto to the heap.
TEST(PropertyMatrix, BucketEngineMatchesHeapAcrossAllWorkloads) {
  std::size_t integral_cells = 0;
  for (const auto& gen : default_generators()) {
    SCOPED_TRACE(gen.name);
    const GraphCase gc = gen.make(0.35, kMatrixSeed);
    const Csr csr(gc.g);
    const WeightProfile& wp = csr.weights();
    if (!wp.integral || wp.max_weight > static_cast<Weight>(kMaxBucketWeight)) {
      // Outside the bucket domain kAuto must fall back to the heap.
      EXPECT_EQ(select_sp_queue(SpEnginePolicy::kAuto, wp.exact_sums(),
                                wp.max_weight),
                SpQueue::kHeap);
      continue;
    }
    ++integral_cells;
    DijkstraEngine heap, bucket;
    heap.set_queue(SpQueue::kHeap);
    bucket.set_queue(SpQueue::kBucket, wp.max_weight);
    const std::size_t n = csr.num_vertices();
    const std::size_t stride = std::max<std::size_t>(1, n / 12);
    for (Vertex s = 0; s < n; s += static_cast<Vertex>(stride)) {
      heap.run(csr, s);
      bucket.run(csr, s);
      const auto ho = heap.settle_order();
      const auto bo = bucket.settle_order();
      ASSERT_EQ(ho.size(), bo.size()) << "s=" << s;
      for (std::size_t i = 0; i < ho.size(); ++i)
        ASSERT_EQ(ho[i], bo[i]) << "s=" << s << " i=" << i;
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(heap.dist(v), bucket.dist(v)) << "s=" << s << " v=" << v;
        ASSERT_EQ(heap.parent(v), bucket.parent(v)) << "s=" << s << " v=" << v;
        ASSERT_EQ(heap.via(v), bucket.via(v)) << "s=" << s << " v=" << v;
      }
    }
  }
  // The workload registry must keep exercising the bucket domain: at least
  // the unit-weight families (gnp, grid, hypercube, ...) land here.
  EXPECT_GE(integral_cells, 3u);
}

// The delta-stepping cell (ISSUE 10): every registered workload family,
// reweighted into the mid-range integer regime through the max_weight=
// workload knob, must reproduce the stable heap bit-for-bit under
// engine=delta — distances, parents, vias, and the settle order — and kAuto
// must resolve the regime to delta (integral, max above the bucket wall).
TEST(PropertyMatrix, DeltaEngineMatchesHeapAcrossAllWorkloads) {
  constexpr Weight kMidRangeMax = 100000;
  std::size_t cells = 0;
  for (const std::string& name : runner::workload_registry().names()) {
    if (name == "file") continue;  // nothing to generate
    SCOPED_TRACE(name);
    runner::WorkloadParams wp;
    wp.scale = 0.35;
    wp.seed = kMatrixSeed;
    wp.max_weight = kMidRangeMax;
    const runner::WorkloadInstance inst = runner::make_workload(name, wp);

    // The reweight pass must keep the topology: same instance as without
    // the knob, edge for edge, only the lengths replaced.
    runner::WorkloadParams plain = wp;
    plain.max_weight = 0;
    const runner::WorkloadInstance orig = runner::make_workload(name, plain);
    ASSERT_EQ(inst.g.num_vertices(), orig.g.num_vertices());
    ASSERT_EQ(inst.g.num_edges(), orig.g.num_edges());
    for (EdgeId id = 0; id < inst.g.num_edges(); ++id) {
      ASSERT_EQ(inst.g.edge(id).u, orig.g.edge(id).u) << "id=" << id;
      ASSERT_EQ(inst.g.edge(id).v, orig.g.edge(id).v) << "id=" << id;
    }

    const Csr csr(inst.g);
    const WeightProfile& prof = csr.weights();
    ASSERT_TRUE(prof.integral);
    ASSERT_LE(prof.max_weight, kMidRangeMax);
    if (prof.max_weight <= static_cast<Weight>(kMaxBucketWeight))
      continue;  // a tiny family that happened to draw only small weights
    ++cells;
    EXPECT_EQ(select_sp_queue(SpEnginePolicy::kAuto, prof.exact_sums(),
                              prof.max_weight),
              SpQueue::kDelta);

    DijkstraEngine heap, delta;
    heap.set_queue(SpQueue::kHeap);
    delta.set_queue(SpQueue::kDelta, prof.max_weight);
    const std::size_t n = csr.num_vertices();
    const std::size_t stride = std::max<std::size_t>(1, n / 12);
    for (Vertex s = 0; s < n; s += static_cast<Vertex>(stride)) {
      heap.run(csr, s);
      delta.run(csr, s);
      const auto ho = heap.settle_order();
      const auto dvo = delta.settle_order();
      ASSERT_EQ(ho.size(), dvo.size()) << "s=" << s;
      for (std::size_t i = 0; i < ho.size(); ++i)
        ASSERT_EQ(ho[i], dvo[i]) << "s=" << s << " i=" << i;
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(heap.dist(v), delta.dist(v)) << "s=" << s << " v=" << v;
        ASSERT_EQ(heap.parent(v), delta.parent(v)) << "s=" << s << " v=" << v;
        ASSERT_EQ(heap.via(v), delta.via(v)) << "s=" << s << " v=" << v;
      }
    }
  }
  // Reweighting puts essentially every family in the delta regime.
  EXPECT_GE(cells, 8u);
}

// The binary round-trip cell (ISSUE 7): for every registered workload
// family, generating the instance, saving it to ftspan.graph.v1, mmap-
// loading it back through the `file` workload, and rerunning the algorithm
// must reproduce the edge-set hash bit-for-bit — per thread count, for a
// deterministic construction (greedy) and a seeded one (ft_vertex).
TEST(PropertyMatrix, BinaryRoundTripKeepsEdgesHashBitIdentical) {
  constexpr double kScale = 0.35;
  for (const std::string& name : runner::workload_registry().names()) {
    if (name == "file") continue;  // nothing to generate
    SCOPED_TRACE(name);
    runner::WorkloadParams wp;
    wp.scale = kScale;
    wp.seed = kMatrixSeed;
    const runner::WorkloadInstance inst = runner::make_workload(name, wp);
    const std::string path = test::temp_path("roundtrip_" + name + ".fgb");
    save_graph_binary(path, inst.g);

    for (const bool ft : {false, true}) {
      runner::ScenarioSpec direct;
      direct.workload = name;
      direct.scale = kScale;
      direct.wseed = kMatrixSeed;
      direct.algo = ft ? "ft_vertex" : "greedy";
      direct.k = {3.0};
      direct.r = {ft ? std::size_t{1} : std::size_t{0}};
      direct.seed = kMatrixSeed;
      direct.threads = {1, 2, 4, 8};
      direct.validate = "none";

      runner::ScenarioSpec via_file = direct;
      via_file.workload = "file";
      via_file.path = path;
      via_file.scale = 1.0;  // the file IS the instance; no scaling knobs

      const runner::ScenarioReport a = runner::run_scenario(direct);
      const runner::ScenarioReport b = runner::run_scenario(via_file);
      ASSERT_EQ(a.cells.size(), b.cells.size());
      ASSERT_EQ(a.cells.size(), 4u) << "one cell per thread count";
      for (std::size_t i = 0; i < a.cells.size(); ++i) {
        SCOPED_TRACE(direct.algo + " threads=" +
                     std::to_string(a.cells[i].threads));
        ASSERT_EQ(a.cells[i].threads, b.cells[i].threads);
        EXPECT_EQ(a.cells[i].n, b.cells[i].n);
        EXPECT_EQ(a.cells[i].m, b.cells[i].m);
        EXPECT_EQ(a.cells[i].edges, b.cells[i].edges);
        EXPECT_EQ(a.cells[i].edges_hash, b.cells[i].edges_hash);
        // The determinism contract also holds ACROSS thread counts.
        EXPECT_EQ(a.cells[i].edges_hash, a.cells[0].edges_hash);
      }
    }
  }
}

TEST(PropertyMatrix, MatrixIsSeedDeterministic) {
  // Same cell, same seed, run twice: identical outcome (here: both green).
  const auto gen = default_generators()[0];
  const auto algo = default_algorithms()[0];
  const auto a = run_cell(gen, algo, kMatrixSeed);
  const auto b = run_cell(gen, algo, kMatrixSeed);
  EXPECT_EQ(a.has_value(), b.has_value());
  if (a && b) {
    EXPECT_EQ(replay_tuple(*a), replay_tuple(*b));
  }
}

TEST(PropertyMatrix, ShrinkingFindsASmallFailingInstance) {
  // A deliberately broken "algorithm" (empty spanner) must fail, and the
  // harness must shrink the witness all the way down to the generator's
  // floor size rather than reporting the full-scale graph.
  const Algorithm broken{"empty_spanner", FaultModel::kNone, 3.0, 0,
                         [](const Graph&, std::uint64_t) {
                           return std::vector<EdgeId>{};
                         }};
  const auto failure = run_cell(default_generators()[0], broken, kMatrixSeed);
  ASSERT_TRUE(failure.has_value());
  EXPECT_LT(failure->scale, 0.1);
  EXPECT_EQ(failure->params, "n=12 p=0.833333");  // the gnp floor instance
  EXPECT_EQ(failure->worst_stretch, kInfiniteWeight);
  // The replay tuple carries everything needed to reproduce.
  const std::string tuple = replay_tuple(*failure);
  EXPECT_NE(tuple.find("generator=gnp"), std::string::npos);
  EXPECT_NE(tuple.find("seed=20260729"), std::string::npos);
}

TEST(PropertyMatrix, ShrinkingKeepsFullScaleWhenSmallGraphsPass) {
  // An algorithm that is only wrong on graphs with > 100 vertices: the
  // shrink attempts all pass, so the reported instance stays at full scale.
  const Algorithm big_only{"breaks_past_100", FaultModel::kNone, 3.0, 0,
                           [](const Graph& g, std::uint64_t) {
                             std::vector<EdgeId> all;
                             for (EdgeId id = 0; id < g.num_edges(); ++id)
                               all.push_back(id);
                             if (g.num_vertices() > 100 && !all.empty())
                               all.pop_back();  // drop one edge
                             return all;
                           }};
  // Use a path so dropping any edge disconnects it (stretch = infinity).
  const Generator path_gen{
      "path", [](double s, std::uint64_t) {
        const std::size_t n = std::max<std::size_t>(
            12, static_cast<std::size_t>(std::lround(150 * s)));
        return GraphCase{path(n), "n=" + std::to_string(n)};
      }};
  const auto failure = run_cell(path_gen, big_only, kMatrixSeed);
  ASSERT_TRUE(failure.has_value());
  EXPECT_DOUBLE_EQ(failure->scale, 1.0);
  EXPECT_EQ(failure->params, "n=150");
}

}  // namespace
}  // namespace ftspan
