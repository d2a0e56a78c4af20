// LP formulations for Minimum Cost r-Fault-Tolerant 2-Spanner (Section 3).
//
// LP (3): capacity variables x_e, per-(u,v) path-flow variables f_P, the
//   capacity constraints f_P <= x_e for both arcs of each 2-path, and the
//   base covering constraint (r+1) x_{(u,v)} + Σ_P f_P >= r+1.
// LP (4): LP (3) plus the knapsack-cover inequalities
//   (r+1-|W|) x_{(u,v)} + Σ_{P ∉ W} f_P >= r+1-|W|  for all W ⊆ P_{u,v},
//   |W| <= r — added lazily via the Lemma 3.2 separation oracle (for each
//   edge it suffices to check W = the j paths of largest flow, j = 1..r).
// LP (2): the DK10 per-fault-set flow relaxation, materialized explicitly
//   (one flow system per fault set); exponential size, tiny instances only.
//   Used to reproduce the Section 3.1 integrality-gap discussion.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "lp/cutting_plane.hpp"
#include "lp/model.hpp"

namespace ftspan {

/// One length-2 path variable: u -> mid -> v for the G-edge (u,v).
struct PathVar {
  EdgeId uv = kInvalidEdge;      ///< the spanned edge (u,v)
  Vertex mid = kInvalidVertex;   ///< path midpoint z
  EdgeId first = kInvalidEdge;   ///< arc (u, z)
  EdgeId second = kInvalidEdge;  ///< arc (z, v)
  int var = -1;                  ///< f_P's LP variable index
};

/// LP (3)/(4) instance bound to a digraph.
struct TwoSpannerLp {
  LpModel model;
  std::size_t r = 0;
  std::vector<int> x_var;                     ///< edge id -> x_e variable
  std::vector<PathVar> paths;                 ///< all path variables
  std::vector<std::vector<int>> edge_paths;   ///< edge id -> indices into paths
};

/// Builds LP (3) for (g, r): variables, capacity constraints, and the base
/// covering constraints. Knapsack-cover inequalities are NOT included; add
/// them via knapsack_cover_oracle to obtain LP (4).
TwoSpannerLp build_two_spanner_lp(const Digraph& g, std::size_t r);

/// Lemma 3.2's separation oracle for the knapsack-cover inequalities of
/// LP (4): for every edge, checks W = top-j flows for j = 1..r.
SeparationOracle knapsack_cover_oracle(const TwoSpannerLp& lp);

struct RelaxationResult {
  LpStatus status = LpStatus::kIterationLimit;
  double value = 0.0;              ///< optimal LP objective
  std::vector<double> x;           ///< per-edge capacity values x_e
  std::size_t cut_rounds = 0;      ///< LP re-solves (1 for LP (3))
  std::size_t cuts_added = 0;      ///< knapsack-cover cuts added
  /// Simplex pivots, summed over every cut round's solve for LP (4).
  std::size_t simplex_iterations = 0;
};

/// Solves LP (3) (no knapsack-cover cuts).
RelaxationResult solve_lp3(const Digraph& g, std::size_t r,
                           const SimplexOptions& simplex = {});

/// Solves LP (4) = LP (3) + lazily separated knapsack-cover inequalities.
RelaxationResult solve_lp4(const Digraph& g, std::size_t r,
                           const CuttingPlaneOptions& options = {});

/// Solves the DK10 relaxation LP (2) exactly by materializing one flow
/// system per fault set. Throws if the fault-set count exceeds the limit.
RelaxationResult solve_lp2_exact(const Digraph& g, std::size_t r,
                                 std::size_t max_fault_sets = 4000,
                                 const SimplexOptions& simplex = {});

/// The closed-form LP (2) value on the directed complete graph K_n with unit
/// costs (Section 3.1's gap example): every x_e = 1/(n-r-2) is feasible, so
/// the LP costs n(n-1)/(n-r-2), while OPT >= rn.
double lp2_value_complete_graph(std::size_t n, std::size_t r);

}  // namespace ftspan
