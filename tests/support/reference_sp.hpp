// Reference shortest paths for the engine tests.
//
// A textbook Dijkstra — std::priority_queue with lazy deletion — with the
// same G \ F semantics as DijkstraEngine: failed vertices are never entered
// (a failed source reaches nothing), and a relaxation whose tentative
// distance exceeds `bound` is skipped. It shares no code with
// graph/sp_engine.hpp on purpose, so a test comparing the two checks the
// engine against an independent implementation, not against itself.
//
// Distances are bit-identical to the engine's: both compute each settled
// distance as the minimum over the same dist[u] + w sums. Parents may differ
// where shortest paths tie, so tests compare parents with is_tight_parent.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace ftspan::test {

struct ReferenceTree {
  std::vector<Weight> dist;    ///< kInfiniteWeight where unreachable
  std::vector<Vertex> parent;  ///< kInvalidVertex at the source/unreachable

  bool reachable(Vertex v) const { return dist[v] < kInfiniteWeight; }
};

ReferenceTree reference_dijkstra(const Graph& g, Vertex source,
                                 const VertexSet* faults = nullptr,
                                 Weight bound = kInfiniteWeight);

/// Follows out-arcs only.
ReferenceTree reference_dijkstra(const Digraph& g, Vertex source,
                                 const VertexSet* faults = nullptr,
                                 Weight bound = kInfiniteWeight);

/// True iff some arc p -> v closes a shortest path in `ref`:
/// ref.dist[p] + w(p, v) == ref.dist[v], bit for bit.
bool is_tight_parent(const Graph& g, const ReferenceTree& ref, Vertex p,
                     Vertex v);
bool is_tight_parent(const Digraph& g, const ReferenceTree& ref, Vertex p,
                     Vertex v);

}  // namespace ftspan::test
