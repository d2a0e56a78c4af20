#include "lp/cutting_plane.hpp"

namespace ftspan {

CuttingPlaneResult solve_with_cuts(LpModel& model,
                                   const SeparationOracle& oracle,
                                   const CuttingPlaneOptions& options) {
  CuttingPlaneResult out;
  for (out.rounds = 1; out.rounds <= options.max_rounds; ++out.rounds) {
    out.solution = solve_lp(model, options.simplex);
    out.pivots += out.solution.iterations;
    if (out.solution.status != LpStatus::kOptimal) {
      out.separated_clean = false;
      return out;
    }
    std::vector<LpConstraint> cuts = oracle(out.solution.x);
    if (cuts.empty()) return out;
    if (cuts.size() > options.max_cuts_per_round)
      cuts.resize(options.max_cuts_per_round);
    for (LpConstraint& c : cuts)
      model.add_constraint(std::move(c.terms), c.sense, c.rhs);
    out.cuts_added += cuts.size();
  }
  out.rounds = options.max_rounds;
  out.separated_clean = false;
  return out;
}

}  // namespace ftspan
