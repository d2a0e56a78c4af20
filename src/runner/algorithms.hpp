// The algorithm registry: name → spanner construction behind one uniform
// interface.
//
// Every construction in src/spanner, src/spanner2, and src/ftspanner is
// exposed as a SpannerAlgorithm: `bind(graph)` returns a callable that maps
// AlgoParams to {edge ids, named stats}. The bound callable may keep
// pooled scratch and reuse it across calls (`greedy` keeps its
// GreedyContext edge sort and GreedyWorkspace), so a scenario's timing
// repetitions pay the hot path only; the conversions call the library entry
// points, whose per-worker scratch lives for one call. A bound instance is
// sequential-use; concurrency happens *inside* a call (the conversions'
// iteration fan-out honors AlgoParams::threads and stays bit-identical at
// every width).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "runner/registry.hpp"

namespace ftspan::runner {

/// The fault regime an algorithm's advertised guarantee refers to. It
/// selects the StretchOracle check: the vertex-fault methods for kNone and
/// kVertex, the edge-fault (_edges) methods for kEdge.
enum class FaultModel { kNone, kVertex, kEdge };

struct AlgoParams {
  double k = 3.0;              ///< stretch (construction + validation)
  std::size_t r = 1;           ///< fault tolerance (ignored by plain bases)
  double c = 1.0;              ///< conversion iteration constant
  std::size_t iterations = 0;  ///< hard iteration override; 0 = formula
  std::size_t threads = 1;     ///< iteration fan-out width (bit-identical)
  std::uint64_t seed = 1;      ///< RNG seed (ignored by deterministic algos)
};

struct AlgoResult {
  std::vector<EdgeId> edges;  ///< spanner edges, ids into the bound graph
  /// Named algorithm-specific stats (iteration counts, LP values, costs...),
  /// in emission order. All values are deterministic given (graph, params).
  std::vector<std::pair<std::string, double>> stats;
};

/// A SpannerAlgorithm bound to one graph. Sequential use only; the graph
/// must outlive the callable.
using BoundAlgorithm = std::function<AlgoResult(const AlgoParams&)>;

struct SpannerAlgorithm {
  std::string summary;
  FaultModel model = FaultModel::kNone;
  /// Non-zero forces the validated stretch (the 2-spanner algorithms ignore
  /// AlgoParams::k and always certify k = 2, on unit-length graphs).
  double fixed_k = 0;
  std::function<BoundAlgorithm(const Graph&)> bind;
};

/// The process-wide algorithm catalog: greedy, baswana_sen, thorup_zwick,
/// layered_greedy, ft_vertex, ft_edge, ft2_rounding, ft2_dk10, ft2_lll.
const Registry<SpannerAlgorithm>& algorithm_registry();

/// One-shot convenience: bind and run. Throws std::invalid_argument
/// (listing valid names) for an unknown name.
AlgoResult run_algorithm(const std::string& name, const Graph& g,
                         const AlgoParams& params);

}  // namespace ftspan::runner
