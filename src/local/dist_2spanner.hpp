// Algorithm 2 / Theorem 3.9: the distributed O(log n)-approximation for
// Minimum Cost r-Fault-Tolerant 2-Spanner in the LOCAL model.
//
// t = Θ(log n) iterations of: sample a padded decomposition (Lemma 3.7);
// each cluster center gathers G(C) (the sub-digraph induced on C ∪ N(C),
// with edges leaving C at cost 0), solves LP (4) on it, and scatters the
// solution; each edge averages the x values from the iterations in which
// both endpoints shared a cluster, scaled by 4 (Lemma 3.8 makes this a
// feasible solution of cost <= 4 LP* w.h.p.). Finally Algorithm 1 rounds
// the averaged x̃ locally.
//
// The simulator runs the decomposition protocol message-by-message; the
// gather/solve/scatter inside a cluster is local computation at the center
// plus O(diam(C)) = O(log n) communication rounds, which we charge to the
// round budget explicitly (messages in the LOCAL model are unbounded, so
// shipping G(C) or an LP solution is one message per hop).
#pragma once

#include <cstdint>

#include "local/padded_decomposition.hpp"
#include "spanner2/formulation.hpp"
#include "spanner2/rounding.hpp"

namespace ftspan::local {

/// The rounding knobs are Algorithm 1's, inherited: α = ln n unless
/// `alpha` overrides it, `max_attempts` draws before the repair, and `lp`
/// for the per-cluster LP (4) solves.
struct DistTwoSpannerOptions : ftspan::RoundingOptions {
  /// t = ceil(iteration_constant * ln n) decomposition iterations, unless
  /// `iterations` overrides it.
  double iteration_constant = 4.0;
  std::optional<std::size_t> iterations;

  PaddedDecompositionOptions decomposition;
};

struct DistTwoSpannerResult {
  std::vector<char> in_spanner;
  double cost = 0.0;
  bool valid = false;
  RunStats stats;                 ///< LOCAL rounds/messages charged
  std::size_t iterations = 0;     ///< t
  std::size_t clusters_solved = 0;
  double x_tilde_cost = 0.0;      ///< Σ c_e x̃_e (Theorem 3.9: <= 4 LP*)
  std::size_t repaired_edges = 0;
  std::size_t attempts = 0;
};

/// The undirected communication graph of a digraph (one edge per arc pair;
/// the paper assumes bidirectional communication links).
ftspan::Graph communication_graph(const ftspan::Digraph& g);

/// Algorithm 2.
DistTwoSpannerResult distributed_ft_2spanner(
    const ftspan::Digraph& g, std::size_t r, std::uint64_t seed,
    const DistTwoSpannerOptions& options = {});

/// Lemma 3.8 ingredients for one partition: the per-cluster LP (4) optima
/// (with out-of-cluster edges at cost 0) and their sum, which the lemma
/// upper-bounds by the global LP (4) optimum.
struct ClusterLpDecomposition {
  double sum_cluster_values = 0.0;
  std::size_t clusters = 0;
};
ClusterLpDecomposition cluster_lp_values(
    const ftspan::Digraph& g, std::size_t r, const PaddedDecomposition& d,
    const ftspan::CuttingPlaneOptions& lp = {});

}  // namespace ftspan::local
