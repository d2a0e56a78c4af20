// Edge-fault-tolerant spanners: the conversion of Theorem 2.1 adapted to
// edge faults.
//
// H is an r-EDGE-fault-tolerant k-spanner if for every F ⊆ E with |F| <= r
// and all u, v: d_{H∖F}(u,v) <= k · d_{G∖F}(u,v). The oversampling argument
// carries over verbatim with edges in place of vertices: per iteration keep
// each edge independently with probability 1/r (1/2 when r = 1), build a
// k-spanner of the surviving subgraph, and union the iterations. For a
// surviving edge e and fault set F the per-iteration success probability is
// q = keep · (1-keep)^r (only e itself must survive — its endpoints always
// exist), so α = c (r+2) ln n / q iterations suffice w.h.p. CLPR09 observe
// that edge faults are the easy case; this module makes the library cover
// both fault models.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace ftspan {

struct EdgeFtOptions {
  double iteration_constant = 1.0;
  std::optional<std::size_t> iterations;

  /// Worker threads for the iteration fan-out (see ftspanner/parallel.hpp).
  /// 1 = in-thread sequential loop; 0 = all hardware threads (capped at
  /// kMaxConversionThreads). Every value yields a bit-identical edge set for
  /// the same seed.
  std::size_t threads = 1;
};

struct EdgeFtResult {
  std::vector<EdgeId> edges;
  std::size_t iterations = 0;
  double keep_probability = 0;
  std::size_t threads_used = 1;  ///< workers the engine actually ran with
};

/// α = ceil(c (r+2) ln n / (keep (1-keep)^r)).
std::size_t edge_conversion_iterations(std::size_t r, std::size_t n,
                                       double c = 1.0);

/// The edge-fault conversion over the greedy k-spanner. r >= 1, k >= 1.
EdgeFtResult ft_edge_greedy_spanner(const Graph& g, double k, std::size_t r,
                                    std::uint64_t seed,
                                    const EdgeFtOptions& options = {});

/// Dijkstra avoiding a set of failed edges (by edge id into g).
std::vector<Weight> distances_avoiding_edges(const Graph& g, Vertex source,
                                             const std::vector<char>& dead);

struct EdgeFtCheckResult {
  bool valid = true;
  double worst_stretch = 1.0;
  std::vector<EdgeId> witness_faults;
  std::size_t fault_sets_checked = 0;
};

/// Exact check over all edge-fault sets of size <= r (small graphs only;
/// throws if there are more than max_fault_sets sets).
EdgeFtCheckResult check_edge_ft_spanner_exact(
    const Graph& g, const Graph& h, double k, std::size_t r,
    std::size_t max_fault_sets = 2'000'000);

/// Random + adversarial sampled check (the adversary repeatedly fails an
/// edge on H's current shortest path between a probed edge's endpoints).
EdgeFtCheckResult check_edge_ft_spanner_sampled(const Graph& g, const Graph& h,
                                                double k, std::size_t r,
                                                std::size_t random_trials,
                                                std::size_t adversarial_edges,
                                                std::uint64_t seed);

}  // namespace ftspan
