// Randomized property-test harness: a generator × algorithm × fault-model
// matrix validated through the StretchOracle, with shrinking on failure.
//
// A cell is one (graph generator, spanner algorithm) pair. run_cell()
// generates the graph at full scale, builds the spanner, and validates the
// algorithm's advertised stretch / fault-tolerance guarantee:
//
//   FaultModel::kNone    plain stretch, exact over all edges (oracle,
//                        empty fault set)
//   FaultModel::kVertex  r-vertex-fault tolerance — exact enumeration when
//                        count_fault_sets(n, r) fits the budget, the
//                        oracle's sampled + adversarial check otherwise
//   FaultModel::kEdge    r-edge-fault tolerance — exact enumeration when
//                        count_fault_sets(m, r) fits the budget, the
//                        oracle's sampled + adversarial edge check otherwise
//
// On failure the harness *shrinks*: the generator is re-run at geometrically
// smaller scales with the same seed and the smallest still-failing instance
// wins. Every failure is reported as a replayable (generator, params, seed)
// tuple — paste it into a regression test to reproduce.
//
// Everything is deterministic given the seed: generators, algorithms, and
// validators all derive their randomness from it via hash_combine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "runner/algorithms.hpp"
#include "runner/workloads.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan::proptest {

struct GraphCase {
  Graph g;
  std::string params;  ///< human-readable generator parameters, e.g. "n=240 p=0.042"
};

/// A graph family. `make(scale, seed)` builds an instance; scale = 1 is the
/// full-size graph, smaller scales shrink it (used by the shrinking loop).
struct Generator {
  std::string name;
  std::function<GraphCase(double scale, std::uint64_t seed)> make;
};

enum class FaultModel { kNone, kVertex, kEdge };

/// A spanner construction plus the guarantee it advertises.
struct Algorithm {
  std::string name;
  FaultModel model = FaultModel::kNone;
  double k = 3.0;     ///< stretch to validate
  std::size_t r = 0;  ///< fault tolerance to validate (0 for plain spanners)
  std::function<std::vector<EdgeId>(const Graph&, std::uint64_t seed)> build;
};

struct CellFailure {
  std::string generator;
  std::string algorithm;
  std::string params;
  std::uint64_t seed = 0;
  double scale = 1.0;
  double worst_stretch = 0.0;
};

/// The replayable failure tuple printed by the matrix test.
inline std::string replay_tuple(const CellFailure& f) {
  std::ostringstream os;
  os << "(generator=" << f.generator << ", params={" << f.params
     << "}, algorithm=" << f.algorithm << ", seed=" << f.seed
     << ", scale=" << f.scale << ", worst_stretch=" << f.worst_stretch << ")";
  return os.str();
}

struct HarnessOptions {
  double scale = 1.0;              ///< scale of the first (full-size) attempt
  std::size_t shrink_attempts = 5;
  double shrink_factor = 0.55;
  std::size_t trials = 8;          ///< sampled-check budget for FT cells
  std::size_t adversarial = 8;
  std::size_t exact_budget = 600;  ///< use exact enumeration below this count
  std::size_t threads = 1;         ///< oracle fan-out inside one cell
};

namespace detail {

/// Runs one attempt of a cell; returns the violating worst stretch, or
/// nullopt when the guarantee holds.
inline std::optional<double> failing_stretch(const Generator& gen,
                                             const Algorithm& algo,
                                             double scale, std::uint64_t seed,
                                             const HarnessOptions& opt,
                                             std::string* params_out) {
  const GraphCase gc = gen.make(scale, seed);
  if (params_out != nullptr) *params_out = gc.params;
  const std::uint64_t algo_seed = hash_combine(seed, 0xa160);
  const Graph h = gc.g.edge_subgraph(algo.build(gc.g, algo_seed));

  FtCheckOptions copt;
  copt.threads = opt.threads;
  switch (algo.model) {
    case FaultModel::kNone: {
      const double s = StretchOracle(gc.g, h, algo.k).max_stretch();
      if (s > algo.k * (1 + 1e-9)) return s;
      return std::nullopt;
    }
    case FaultModel::kVertex: {
      const StretchOracle oracle(gc.g, h, algo.k);
      const FtCheckResult res =
          count_fault_sets(gc.g.num_vertices(), algo.r) <= opt.exact_budget
              ? oracle.check_exact(algo.r, copt)
              : oracle.check_sampled(algo.r, opt.trials, opt.adversarial,
                                     hash_combine(seed, 0xfa01), copt);
      if (!res.valid) return res.worst_stretch;
      return std::nullopt;
    }
    case FaultModel::kEdge: {
      const StretchOracle oracle(gc.g, h, algo.k);
      const FtCheckResult res =
          count_fault_sets(gc.g.num_edges(), algo.r) <= opt.exact_budget
              ? oracle.check_exact_edges(algo.r, copt)
              : oracle.check_sampled_edges(algo.r, opt.trials,
                                           opt.adversarial,
                                           hash_combine(seed, 0xedfa), copt);
      if (!res.valid) return res.worst_stretch;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace detail

/// Runs one matrix cell. Returns nullopt when the guarantee holds; otherwise
/// the smallest failing instance found by the shrinking loop.
inline std::optional<CellFailure> run_cell(const Generator& gen,
                                           const Algorithm& algo,
                                           std::uint64_t seed,
                                           const HarnessOptions& opt = {}) {
  std::string params;
  const auto stretch =
      detail::failing_stretch(gen, algo, opt.scale, seed, opt, &params);
  if (!stretch) return std::nullopt;

  CellFailure fail{gen.name, algo.name, params, seed, opt.scale, *stretch};
  // Shrink: each smaller scale is tried from the same seed; a failure at
  // scale s need not persist at s' < s, so the smallest failing attempt
  // (not the last) wins.
  double scale = opt.scale;
  for (std::size_t i = 0; i < opt.shrink_attempts; ++i) {
    scale *= opt.shrink_factor;
    std::string small_params;
    const auto small =
        detail::failing_stretch(gen, algo, scale, seed, opt, &small_params);
    if (small)
      fail = CellFailure{gen.name,  algo.name, small_params,
                         seed,      scale,     *small};
  }
  return fail;
}

/// The standard generator set — thin wrappers over the runner's workload
/// registry (src/runner/workloads.hpp), so the property matrix validates
/// exactly the instances the benches and `ftspan bench` run. Eight
/// families; the registry's `scale` knob drives the shrinking loop.
inline std::vector<Generator> default_generators() {
  std::vector<Generator> out;
  for (const char* name : {"gnp", "sensor", "grid", "hypercube",
                           "preferential", "smallworld", "road",
                           "tie_dense"}) {
    const runner::Workload& workload = runner::workload_registry().get(name);
    out.push_back({name, [&workload](double scale, std::uint64_t seed) {
                     runner::WorkloadParams wp;
                     wp.scale = scale;
                     wp.seed = seed;
                     runner::WorkloadInstance inst = workload.make(wp);
                     return GraphCase{std::move(inst.g),
                                      std::move(inst.params)};
                   }});
  }
  return out;
}

/// The standard algorithm set — the three base constructions plus both
/// fault-model conversions of Theorem 2.1, resolved through the runner's
/// algorithm registry so tests exercise the same factories as the benches.
inline std::vector<Algorithm> default_algorithms() {
  const auto from_registry = [](const std::string& name, FaultModel model,
                                double k, std::size_t r) {
    const runner::SpannerAlgorithm& algo =
        runner::algorithm_registry().get(name);
    std::ostringstream label;
    label << name << "(k=" << k;
    if (r > 0) label << ",r=" << r;
    label << ")";
    return Algorithm{label.str(), model, k, r,
                     [&algo, k, r](const Graph& g, std::uint64_t seed) {
                       runner::AlgoParams params;
                       params.k = k;
                       params.r = r;
                       params.seed = seed;
                       return algo.bind(g)(params).edges;
                     }};
  };
  return {from_registry("greedy", FaultModel::kNone, 3.0, 0),
          from_registry("baswana_sen", FaultModel::kNone, 3.0, 0),
          from_registry("thorup_zwick", FaultModel::kNone, 3.0, 0),
          from_registry("ft_vertex", FaultModel::kVertex, 3.0, 1),
          from_registry("ft_edge", FaultModel::kEdge, 3.0, 1)};
}

}  // namespace ftspan::proptest
