// Algorithm 1 (threshold rounding) and the Theorem 3.3 approximation driver.
//
// Rounding: draw an independent threshold T_v ∈ [0,1) per vertex and keep
// edge (u,v) iff min(T_u, T_v) <= α · x_{(u,v)}, with α = C ln n. Theorem 3.3
// shows this yields a valid r-fault-tolerant 2-spanner w.h.p. at expected
// cost O(log n) · LP*. The driver retries the rounding until the exact
// Lemma 3.1 check passes (a Las Vegas loop), finishing with the greedy
// repair for stray unsatisfied edges at small α. That loop,
// round_until_valid, is the one every Section 3 driver runs: Theorem 3.3's
// here, the DK10 baseline's and Algorithm 2's.
#pragma once

#include <cstdint>
#include <optional>

#include "spanner2/formulation.hpp"
#include "util/rng.hpp"

namespace ftspan {

struct RoundingOptions {
  /// α = ln(max(n, 2)) (DK10: (r+1) ln(max(n, 2))), unless `alpha`
  /// overrides it.
  std::optional<double> alpha;

  /// Rounding attempts before the greedy repair (each attempt redraws all
  /// thresholds).
  std::size_t max_attempts = 25;

  CuttingPlaneOptions lp;
};

struct TwoSpannerResult {
  std::vector<char> in_spanner;  ///< per-edge membership
  double cost = 0.0;
  double lp_value = 0.0;         ///< LP (4) optimum (lower bound on OPT)
  double alpha = 0.0;
  std::size_t attempts = 0;      ///< rounding attempts used
  std::size_t repaired_edges = 0;
  bool valid = false;
  RelaxationResult relaxation;   ///< LP solve details
};

/// One pass of Algorithm 1 over fractional capacities x (per edge id).
std::vector<char> threshold_round(const Digraph& g,
                                  const std::vector<double>& x, double alpha,
                                  std::uint64_t seed);

/// Algorithm 1's Las Vegas loop: draws threshold_round(g, x, alpha, rng())
/// up to max_attempts times until is_ft_2spanner holds; if no draw passes,
/// draws once more and greedy-repairs it. Fills in_spanner, cost, alpha,
/// attempts (max_attempts + 1 after a repair), repaired_edges and valid
/// and leaves the LP fields empty. Takes one rng() per attempt.
TwoSpannerResult round_until_valid(const Digraph& g,
                                   const std::vector<double>& x, double alpha,
                                   std::size_t r, std::size_t max_attempts,
                                   Rng& rng);

/// Theorem 3.3: solve LP (4), then round_until_valid with α = ln n.
TwoSpannerResult approx_ft_2spanner(const Digraph& g, std::size_t r,
                                    std::uint64_t seed,
                                    const RoundingOptions& options = {});

}  // namespace ftspan
