// Undirected unit-length r-fault-tolerant 2-spanners via the directed
// machinery.
//
// Section 3 works in the directed, costed setting "because it is more
// general"; this wrapper gives undirected users the natural API. Reduction:
// bidirect the graph with each arc carrying half the edge cost, run the
// directed algorithm, then symmetrize (keep an edge iff either of its arcs
// was kept). Symmetrizing preserves validity — a directed witness
// (arc or r+1 directed 2-paths) maps to the undirected witness — and at
// most doubles the cost, so the O(log n) guarantee carries over.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "spanner2/lll.hpp"
#include "spanner2/rounding.hpp"

namespace ftspan {

struct UndirectedTwoSpannerResult {
  std::vector<char> in_spanner;  ///< per undirected edge id
  double cost = 0.0;             ///< sum of selected edge weights
  double lp_value = 0.0;         ///< directed LP (4) bound (edge-cost units)
  bool valid = false;
};

/// O(log n)-approximation for the undirected problem (unit lengths,
/// arbitrary edge costs taken from g's weights).
UndirectedTwoSpannerResult approx_ft_2spanner_undirected(
    const Graph& g, std::size_t r, std::uint64_t seed,
    const RoundingOptions& options = {});

/// The DK10 baseline (weaker LP, α = Θ((r+1) log n)) through the same
/// bidirect-and-symmetrize reduction — the undirected face of
/// dk10_ft_2spanner, for apples-to-apples comparison with the above.
UndirectedTwoSpannerResult dk10_ft_2spanner_undirected(
    const Graph& g, std::size_t r, std::uint64_t seed,
    const RoundingOptions& options = {});

/// Theorem 3.4's O(log Δ) LLL algorithm through the same reduction
/// (intended for unit-length bounded-degree graphs).
UndirectedTwoSpannerResult lll_ft_2spanner_undirected(
    const Graph& g, std::size_t r, std::uint64_t seed,
    const LllOptions& options = {});

}  // namespace ftspan
