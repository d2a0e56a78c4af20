// Exact validity checking and repair for r-fault-tolerant 2-spanners.
//
// Lemma 3.1 gives a polynomial characterization: H ⊆ G is an r-fault-
// tolerant 2-spanner of G iff every edge (u,v) of G is either in H or has at
// least r+1 length-2 u→v paths in H. All checks here are exact.
//
// Spanner membership is represented as a per-edge byte vector `in_spanner`
// indexed by the Digraph's edge ids.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {

/// Number of length-2 u→v paths whose both arcs are in the spanner.
std::size_t spanner_two_paths(const Digraph& g,
                              const std::vector<char>& in_spanner, Vertex u,
                              Vertex v);

/// Lemma 3.1: edge (u,v) is satisfied iff it is in the spanner or has
/// >= r+1 spanner length-2 paths.
bool edge_satisfied(const Digraph& g, const std::vector<char>& in_spanner,
                    EdgeId id, std::size_t r);

/// Exact r-fault-tolerant 2-spanner check (Lemma 3.1 over all edges).
bool is_ft_2spanner(const Digraph& g, const std::vector<char>& in_spanner,
                    std::size_t r);

/// Ids of unsatisfied edges (empty iff valid).
std::vector<EdgeId> unsatisfied_edges(const Digraph& g,
                                      const std::vector<char>& in_spanner,
                                      std::size_t r);

/// Total cost of the spanner edges.
double spanner_cost(const Digraph& g, const std::vector<char>& in_spanner);

/// Definition-level check used to validate Lemma 3.1 itself in tests:
/// enumerates every fault set |F| <= r and verifies the 2-spanner condition
/// on G \ F directly, via a unit-cost DiStretchOracle exact check fanned
/// across options.threads workers. Throws (reporting n, r, and the computed
/// count) if there are more than options.max_fault_sets sets.
bool is_ft_2spanner_by_definition(const Digraph& g,
                                  const std::vector<char>& in_spanner,
                                  std::size_t r,
                                  const FtCheckOptions& options = {});

/// Greedy repair: while some edge (u,v) is unsatisfied, apply the cheaper of
/// (a) adding (u,v) itself, or (b) completing enough missing 2-paths to
/// reach r+1. Returns the number of edges added; guarantees validity.
std::size_t greedy_repair(const Digraph& g, std::vector<char>& in_spanner,
                          std::size_t r);

/// Standalone greedy heuristic: start from the empty spanner and repair.
/// (Used as a sanity comparator in benches; no approximation guarantee.)
std::vector<char> greedy_ft_2spanner(const Digraph& g, std::size_t r);

}  // namespace ftspan
