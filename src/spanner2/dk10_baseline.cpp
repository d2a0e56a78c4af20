#include "spanner2/dk10_baseline.hpp"

#include <algorithm>
#include <cmath>

namespace ftspan {

TwoSpannerResult dk10_ft_2spanner(const Digraph& g, std::size_t r,
                                  std::uint64_t seed,
                                  const RoundingOptions& options) {
  RelaxationResult relaxation = solve_lp3(g, r, options.lp.simplex);
  if (relaxation.status != LpStatus::kOptimal) {
    TwoSpannerResult out;
    out.relaxation = std::move(relaxation);
    return out;
  }
  const double ln_n = std::log(
      static_cast<double>(std::max<std::size_t>(g.num_vertices(), 2)));
  const double alpha =
      options.alpha.value_or(static_cast<double>(r + 1) * ln_n);
  Rng rng(seed);
  TwoSpannerResult out = round_until_valid(g, relaxation.x, alpha, r,
                                           options.max_attempts, rng);
  out.lp_value = relaxation.value;
  out.relaxation = std::move(relaxation);
  return out;
}

}  // namespace ftspan
