// Generic cutting-plane driver: solve an LP, ask a separation oracle for
// violated constraints, add them, repeat. This is the practical counterpart
// of the paper's "Ellipsoid + separation oracle" argument (Lemma 3.2).
#pragma once

#include <functional>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace ftspan {

/// Given the current optimum x, returns violated constraints to add (empty
/// means x is feasible for the full, implicitly-described LP).
using SeparationOracle =
    std::function<std::vector<LpConstraint>(const std::vector<double>&)>;

struct CuttingPlaneOptions {
  std::size_t max_rounds = 200;
  std::size_t max_cuts_per_round = 10'000;
  SimplexOptions simplex;
};

struct CuttingPlaneResult {
  LpSolution solution;
  std::size_t rounds = 0;      ///< LP re-solves performed
  std::size_t cuts_added = 0;  ///< total separation cuts added
  /// Simplex pivots summed over every round's solve (solution.iterations
  /// holds the last round's only).
  std::size_t pivots = 0;
  bool separated_clean = true; ///< oracle returned empty on the final solution
};

/// Solves `model` (modified in place by adding cuts) to optimality over the
/// constraint family described by the oracle.
CuttingPlaneResult solve_with_cuts(LpModel& model,
                                   const SeparationOracle& oracle,
                                   const CuttingPlaneOptions& options = {});

}  // namespace ftspan
