// Csr — an immutable compressed-sparse-row snapshot of a Graph or Digraph.
//
// The adjacency-list types (vector<vector<Arc>>) are convenient to build but
// pointer-chasing to traverse: every vertex's arc list is its own heap
// allocation. The hot loops (the Theorem 2.1 conversion, the StretchOracle)
// traverse adjacency millions of times over a graph that never changes, so
// they take a one-time O(n + m) snapshot into two flat arrays — offsets and
// arcs — and scan those instead. Arc order within a vertex is preserved
// exactly, so any order-dependent tie-breaking (e.g. the oracle's witness
// selection) is unchanged by the snapshot.
//
// The snapshot is templated on the offset width. `Csr` (32-bit offsets) is
// the default: offsets stay half the size, which matters in the hot loops,
// and 2^32 - 1 arcs cover every in-memory workload. `Csr64` lifts that
// ceiling for million-to-billion-arc graphs — same layout, 64-bit offsets.
// `CsrView` is the non-owning variant over externally owned arrays (64-bit
// offsets, the ftspan.graph.v1 on-disk layout — see graph/graph_file.hpp),
// so an mmap'ed graph is traversable without copying a byte.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace ftspan {

/// Aggregate weight facts hoisted out of the hot loops: computed once per
/// graph snapshot (Csr::build, GreedyContext) instead of tracked per added
/// edge. Shared by the greedy tie-window fast path, the engine's
/// heap-vs-bucket `auto` selection, and the StretchOracle scratch setup.
struct WeightProfile {
  bool integral = true;    ///< every observed weight is a non-negative integer
  Weight max_weight = 0;   ///< largest observed weight
  Weight total_weight = 0; ///< sum of observed weights (exactness guard)

  void observe(Weight w) {
    integral = integral && w >= 0 && w == std::floor(w);
    max_weight = std::max(max_weight, w);
    total_weight += w;
  }

  /// True when every path sum over these weights is exactly representable in
  /// a double regardless of summation order: integers with a total far below
  /// 2^53, so no intermediate sum can round.
  bool exact_sums() const { return integral && total_weight < 4.0e15; }
};

/// Flat adjacency entry. Same fields as Arc, packed so a vertex's arcs sit in
/// one contiguous 16-byte-strided run.
struct CsrArc {
  Vertex to = kInvalidVertex;
  EdgeId edge = kInvalidEdge;
  Weight w = 1.0;
};

/// The refusal policy behind the 32-bit snapshot: a graph with >= 2^32 arcs
/// (2^31 undirected edges) would wrap 32-bit offsets into non-monotonic
/// garbage. Exposed as a function so the message is unit-testable without
/// materializing a 2^32-arc graph.
template <class Offset>
void csr_check_arc_capacity(std::size_t num_arcs) {
  if (num_arcs <= static_cast<std::size_t>(std::numeric_limits<Offset>::max()))
    return;
  throw std::length_error(
      "Csr: arc count " + std::to_string(num_arcs) +
      " exceeds the 32-bit offset ceiling " +
      std::to_string(std::numeric_limits<Offset>::max()) +
      "; snapshot this graph into the 64-bit-offset Csr64 instead");
}

template <class Offset>
class BasicCsr {
 public:
  BasicCsr() = default;

  /// Snapshot of an undirected graph: both directions of every edge.
  explicit BasicCsr(const Graph& g) {
    build(g.num_vertices(), [&g](Vertex v) { return g.neighbors(v); });
  }

  /// Snapshot of a digraph's out-arcs.
  explicit BasicCsr(const Digraph& g) {
    build(g.num_vertices(), [&g](Vertex v) { return g.out_neighbors(v); });
  }

  /// Snapshot built straight from an undirected edge array (edge id =
  /// position), without materializing adjacency lists — the path the binary
  /// graph writer and the streaming importer take. Arc order per vertex is
  /// edge-id order, which is exactly the order BasicCsr(Graph) produces for
  /// a Graph built by inserting `edges` in sequence.
  static BasicCsr from_edges(std::size_t n, std::span<const Edge> edges) {
    BasicCsr out;
    if (edges.size() > static_cast<std::size_t>(kInvalidEdge))
      throw std::length_error(
          "Csr::from_edges: edge count exceeds the 32-bit edge-id space");
    csr_check_arc_capacity<Offset>(edges.size() * 2);
    out.offsets_.assign(n + 1, 0);
    for (const Edge& e : edges) {
      ++out.offsets_[e.u + 1];
      ++out.offsets_[e.v + 1];
    }
    for (std::size_t v = 0; v < n; ++v) out.offsets_[v + 1] += out.offsets_[v];
    out.arcs_.resize(edges.size() * 2);
    std::vector<Offset> cursor(out.offsets_.begin(), out.offsets_.end() - 1);
    for (EdgeId id = 0; id < edges.size(); ++id) {
      const Edge& e = edges[id];
      out.arcs_[cursor[e.u]++] = {e.v, id, e.w};
      out.arcs_[cursor[e.v]++] = {e.u, id, e.w};
    }
    for (const CsrArc& a : out.arcs_) out.profile_.observe(a.w);
    return out;
  }

  std::size_t num_vertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_arcs() const { return arcs_.size(); }

  std::span<const CsrArc> out(Vertex v) const {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }
  std::size_t degree(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Weight facts over all arcs, computed once at build (an undirected
  /// snapshot observes each edge twice — the integral/max facts are
  /// unaffected and total_weight is merely a conservative doubling for the
  /// exact_sums() guard).
  const WeightProfile& weights() const { return profile_; }

  /// The raw arrays, exposed for the binary graph writer (graph_file.cpp)
  /// and for structural tests. Offsets have n + 1 entries; arcs of v are
  /// [offsets()[v], offsets()[v + 1]).
  std::span<const Offset> offsets() const { return offsets_; }
  std::span<const CsrArc> arcs() const { return arcs_; }

 private:
  template <class NeighborFn>
  void build(std::size_t n, NeighborFn&& neighbors) {
    offsets_.resize(n + 1);
    std::size_t total = 0;
    for (Vertex v = 0; v < n; ++v) {
      offsets_[v] = static_cast<Offset>(total);
      total += neighbors(v).size();
    }
    csr_check_arc_capacity<Offset>(total);
    offsets_[n] = static_cast<Offset>(total);
    arcs_.reserve(total);
    for (Vertex v = 0; v < n; ++v)
      for (const Arc& a : neighbors(v)) {
        arcs_.push_back({a.to, a.edge, a.w});
        profile_.observe(a.w);
      }
  }

  std::vector<Offset> offsets_;  ///< n + 1 entries; arcs of v are [offsets_[v], offsets_[v+1])
  std::vector<CsrArc> arcs_;
  WeightProfile profile_;
};

/// The default snapshot: 32-bit offsets, enough for 2^32 - 1 arcs.
using Csr = BasicCsr<std::uint32_t>;
/// The 64-bit-offset variant for graphs past the 32-bit arc ceiling.
using Csr64 = BasicCsr<std::uint64_t>;

/// Non-owning CSR over externally owned arrays — the traversal interface of
/// BasicCsr (out/degree/weights) without the copy. This is how an
/// mmap-loaded ftspan.graph.v1 graph is walked in place: the offsets and
/// arcs spans point straight into the mapping (64-bit offsets, the on-disk
/// width). The arrays must outlive the view and satisfy the CSR invariants
/// (monotone offsets, offsets.front() == 0, offsets.back() == arcs.size());
/// the binary loader validates them before handing a view out.
class CsrView {
 public:
  CsrView() = default;
  CsrView(std::span<const std::uint64_t> offsets, std::span<const CsrArc> arcs,
          const WeightProfile& profile)
      : offsets_(offsets), arcs_(arcs), profile_(profile) {}

  std::size_t num_vertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_arcs() const { return arcs_.size(); }

  std::span<const CsrArc> out(Vertex v) const {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }
  std::size_t degree(Vertex v) const {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }

  const WeightProfile& weights() const { return profile_; }

 private:
  std::span<const std::uint64_t> offsets_;
  std::span<const CsrArc> arcs_;
  WeightProfile profile_;
};

}  // namespace ftspan
