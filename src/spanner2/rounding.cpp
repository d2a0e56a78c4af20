#include "spanner2/rounding.hpp"

#include <algorithm>
#include <cmath>

#include "spanner2/verify2.hpp"

namespace ftspan {

std::vector<char> threshold_round(const Digraph& g,
                                  const std::vector<double>& x, double alpha,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> threshold(g.num_vertices());
  for (double& t : threshold) t = rng.uniform();

  std::vector<char> in_spanner(g.num_edges(), 0);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const DiEdge& e = g.edge(id);
    if (std::min(threshold[e.u], threshold[e.v]) <= alpha * x[id])
      in_spanner[id] = 1;
  }
  return in_spanner;
}

TwoSpannerResult round_until_valid(const Digraph& g,
                                   const std::vector<double>& x, double alpha,
                                   std::size_t r, std::size_t max_attempts,
                                   Rng& rng) {
  TwoSpannerResult out;
  out.alpha = alpha;
  for (out.attempts = 1; out.attempts <= max_attempts; ++out.attempts) {
    out.in_spanner = threshold_round(g, x, alpha, rng());
    if (is_ft_2spanner(g, out.in_spanner, r)) {
      // First valid rounding wins (Las Vegas); the cost bound is in
      // expectation.
      out.cost = spanner_cost(g, out.in_spanner);
      out.valid = true;
      return out;
    }
  }
  // No valid draw: take one more rounding and repair it (keeps the output
  // valid deterministically; the repair is reported separately).
  out.in_spanner = threshold_round(g, x, alpha, rng());
  out.repaired_edges = greedy_repair(g, out.in_spanner, r);
  out.cost = spanner_cost(g, out.in_spanner);
  out.valid = is_ft_2spanner(g, out.in_spanner, r);
  return out;
}

TwoSpannerResult approx_ft_2spanner(const Digraph& g, std::size_t r,
                                    std::uint64_t seed,
                                    const RoundingOptions& options) {
  RelaxationResult relaxation = solve_lp4(g, r, options.lp);
  if (relaxation.status != LpStatus::kOptimal) {
    TwoSpannerResult out;
    out.relaxation = std::move(relaxation);
    return out;
  }
  const double alpha = options.alpha.value_or(std::log(
      static_cast<double>(std::max<std::size_t>(g.num_vertices(), 2))));
  Rng rng(seed);
  TwoSpannerResult out = round_until_valid(g, relaxation.x, alpha, r,
                                           options.max_attempts, rng);
  out.lp_value = relaxation.value;
  out.relaxation = std::move(relaxation);
  return out;
}

}  // namespace ftspan
