// Names kept only because the frozen perfbench/src/compute.cpp still calls
// them. The edge-fault conversion is ft_edge_greedy_spanner
// (ftspanner/conversion.hpp), with the vertex conversion's options and
// result; edge-fault tolerance is checked by StretchOracle::check_exact_edges
// and check_sampled_edges (validate/stretch_oracle.hpp). New code uses those
// directly.
#pragma once

#include <cstdint>

#include "ftspanner/conversion.hpp"
#include "graph/graph.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {

using EdgeFtOptions = ConversionOptions;
using EdgeFtResult = ConversionResult;
using EdgeFtCheckResult = FtCheckResult;

/// Forwards to StretchOracle(g, h, k).check_sampled_edges(...) on one thread.
inline EdgeFtCheckResult check_edge_ft_spanner_sampled(
    const Graph& g, const Graph& h, double k, std::size_t r,
    std::size_t random_trials, std::size_t adversarial_edges,
    std::uint64_t seed) {
  return StretchOracle(g, h, k).check_sampled_edges(r, random_trials,
                                                    adversarial_edges, seed);
}

}  // namespace ftspan
