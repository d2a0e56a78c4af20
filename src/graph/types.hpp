// Fundamental graph types shared across the library.
#pragma once

#include <cstdint>
#include <limits>

namespace ftspan {

/// Vertex identifier; vertices of an n-vertex graph are 0 .. n-1.
using Vertex = std::uint32_t;

/// Edge identifier; dense, assigned in insertion order.
using EdgeId = std::uint32_t;

/// Edge length (Section 2) or edge cost (Section 3). Non-negative.
using Weight = double;

inline constexpr Vertex kInvalidVertex = std::numeric_limits<Vertex>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();
inline constexpr Weight kInfiniteWeight = std::numeric_limits<Weight>::infinity();

/// Relative slack applied to a stretch bound before a distance is compared
/// against it, so that floating-point ties ("distance exactly k * w") land on
/// the reachable side. Shared by every construction that bounds a
/// shortest-path search by k * w(e).
inline constexpr double kStretchSlack = 1e-12;

/// Relative tolerance used when a *measured* stretch is compared against the
/// certified bound k (validators accept stretch <= k * (1 + tolerance)).
/// Looser than kStretchSlack because measured stretches accumulate rounding
/// from two independent shortest-path sums.
inline constexpr double kStretchCheckTolerance = 1e-9;

/// True when k can bound a stretch: finite and >= 1 (NaN is neither). The
/// greedy spanner, both conversions and the StretchOracle reject any other
/// k before doing work.
inline constexpr bool valid_stretch(double k) {
  return k >= 1.0 && k <= std::numeric_limits<double>::max();
}

/// An undirected edge {u, v} with length w.
struct Edge {
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
  Weight w = 1.0;

  /// The endpoint that is not `x`. Precondition: x is an endpoint.
  Vertex other(Vertex x) const { return x == u ? v : u; }
};

/// A directed edge (arc) u -> v with cost w.
struct DiEdge {
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
  Weight w = 1.0;
};

/// Adjacency-list entry: neighbor, weight, and the id of the crossed edge.
struct Arc {
  Vertex to = kInvalidVertex;
  Weight w = 1.0;
  EdgeId edge = kInvalidEdge;
};

}  // namespace ftspan
