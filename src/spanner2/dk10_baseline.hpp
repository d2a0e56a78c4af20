// The prior-art baseline of Dinitz & Krauthgamer (arXiv 2010): the same
// threshold rounding, but driven by the weaker relaxation (no knapsack-cover
// inequalities) and therefore requiring inflation α = Θ((r+1) log n) — the
// O(r log n)-approximation that Theorem 3.3 improves on.
//
// Experiment E6 compares this baseline's cost against approx_ft_2spanner as
// r grows: the baseline's cost scales with r, the paper's does not.
#pragma once

#include "spanner2/rounding.hpp"

namespace ftspan {

/// DK10-style O(r log n) algorithm: solve LP (3), then round_until_valid
/// with α = (r+1) ln n.
TwoSpannerResult dk10_ft_2spanner(const Digraph& g, std::size_t r,
                                  std::uint64_t seed,
                                  const RoundingOptions& options = {});

}  // namespace ftspan
