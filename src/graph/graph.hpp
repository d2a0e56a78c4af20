// Graph and Digraph: the adjacency-list graph types used everywhere.
//
// `Graph` is a simple undirected graph with non-negative edge lengths — the
// setting of Section 2 of the paper (fault-tolerant k-spanners, k >= 3).
// Zero is a valid length (the readers accept it); a zero-length pair must
// keep a zero-length path in a spanner, since no k stretches 0 to d > 0.
// `Digraph` is a simple directed graph with non-negative edge costs — the
// setting of Section 3 (minimum-cost r-fault-tolerant 2-spanner).
//
// Both types keep a dense edge array plus adjacency lists carrying edge ids,
// and an O(1) hash-based edge lookup. Vertices are never removed; fault sets
// are expressed as VertexSet masks passed to the algorithms.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/types.hpp"
#include "graph/vertex_set.hpp"

namespace ftspan {

/// Simple undirected graph with non-negative edge lengths.
class Graph {
 public:
  Graph() = default;
  /// Throws std::invalid_argument if n exceeds the 32-bit vertex-id space:
  /// edge hashing packs (u << 32) | v into 64 bits, so vertex ids at or
  /// above 2^32 would silently collide (and kInvalidVertex is reserved).
  explicit Graph(std::size_t n);

  std::size_t num_vertices() const { return adj_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  /// Adds the edge {u, v} with length w. Self-loops and duplicate edges are
  /// rejected (returns kInvalidEdge); otherwise returns the new edge id.
  EdgeId add_edge(Vertex u, Vertex v, Weight w = 1.0);

  /// Pre-sizes the edge array and the hash index for m insertions — the
  /// bulk-load path (binary loader, edge_subgraph at million scale) avoids
  /// rehash-and-grow churn this way.
  void reserve_edges(std::size_t m) {
    edges_.reserve(m);
    index_.reserve(m);
  }

  bool has_edge(Vertex u, Vertex v) const { return edge_id(u, v).has_value(); }
  std::optional<EdgeId> edge_id(Vertex u, Vertex v) const;

  const Edge& edge(EdgeId id) const { return edges_[id]; }
  const std::vector<Edge>& edges() const { return edges_; }

  std::span<const Arc> neighbors(Vertex v) const {
    return {adj_[v].data(), adj_[v].size()};
  }
  std::size_t degree(Vertex v) const { return adj_[v].size(); }

  /// Sum of edge lengths.
  Weight total_weight() const;

  /// Largest vertex degree.
  std::size_t max_degree() const;

  /// The subgraph keeping exactly the edges with both endpoints alive
  /// (i.e. not in `faults`). Vertex ids are preserved.
  Graph subgraph_without(const VertexSet& faults) const;

  /// The subgraph with exactly the edges whose ids are listed.
  Graph edge_subgraph(const std::vector<EdgeId>& ids) const;

  static Graph from_edges(std::size_t n, const std::vector<Edge>& edges);

 private:
  // Injective because the constructor guarantees u, v < 2^32 (see above).
  static std::uint64_t key(Vertex u, Vertex v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  std::vector<Edge> edges_;
  std::vector<std::vector<Arc>> adj_;
  std::unordered_map<std::uint64_t, EdgeId> index_;
};

/// Simple directed graph with non-negative edge costs.
class Digraph {
 public:
  Digraph() = default;
  /// Throws std::invalid_argument if n exceeds the 32-bit vertex-id space
  /// (same edge-hash injectivity requirement as Graph).
  explicit Digraph(std::size_t n);

  std::size_t num_vertices() const { return out_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  /// Adds the arc u -> v with cost w. Self-loops and duplicates rejected.
  EdgeId add_edge(Vertex u, Vertex v, Weight w = 1.0);

  bool has_edge(Vertex u, Vertex v) const { return edge_id(u, v).has_value(); }
  std::optional<EdgeId> edge_id(Vertex u, Vertex v) const;

  const DiEdge& edge(EdgeId id) const { return edges_[id]; }
  const std::vector<DiEdge>& edges() const { return edges_; }

  std::span<const Arc> out_neighbors(Vertex v) const {
    return {out_[v].data(), out_[v].size()};
  }
  std::span<const Arc> in_neighbors(Vertex v) const {
    return {in_[v].data(), in_[v].size()};
  }
  std::size_t out_degree(Vertex v) const { return out_[v].size(); }
  std::size_t in_degree(Vertex v) const { return in_[v].size(); }

  /// max over v of max(out_degree(v), in_degree(v)) — the Δ of Theorem 3.4.
  std::size_t max_degree() const;

  Weight total_cost() const;

  /// All length-2 path midpoints from u to v: { z : (u,z) and (z,v) in E }.
  /// This is the paper's P_{u,v} (Section 3), identified by midpoints.
  std::vector<Vertex> two_path_midpoints(Vertex u, Vertex v) const;

  static Digraph from_edges(std::size_t n, const std::vector<DiEdge>& edges);

 private:
  static std::uint64_t key(Vertex u, Vertex v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  std::vector<DiEdge> edges_;
  std::vector<std::vector<Arc>> out_;
  std::vector<std::vector<Arc>> in_;
  std::unordered_map<std::uint64_t, EdgeId> index_;
};

}  // namespace ftspan
