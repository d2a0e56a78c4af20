// The greedy k-spanner of Althöfer, Das, Dobkin, Joseph, and Soares (1993).
//
// Process edges by non-decreasing length; keep an edge iff the spanner built
// so far does not already connect its endpoints within k times its length.
// The result is a k-spanner with girth > k + 1, hence size O(n^{1 + 2/(k+1)})
// for odd k — the base construction behind Corollary 2.2 of the paper.
//
// The conversion of Theorem 2.1 runs this construction Θ(r³ log n) times on
// the same graph under different fault masks, so the repeated-run state is
// split out explicitly:
//
//   GreedyContext    per-graph, immutable: the edge-weight sort, computed
//                    once and shared by every iteration (and every worker).
//   GreedyWorkspace  per-thread, mutable: the incrementally grown spanner
//                    adjacency, the pooled Dijkstra engine, and the output
//                    buffer. Reset between runs in O(kept edges); performs
//                    zero heap allocations after its first run on a context.
//
// Every greedy pass in the library is one GreedyWorkspace::run, and both
// overloads apply the same private decision (keep e iff the scratch
// spanner has no path of length <= k·w(e) between its endpoints). They
// differ only in which edges they visit: run(ctx, k, faults) scans the
// context's weight order minus the edges a fault touches (the vertex
// conversion); run(ctx, k, order) visits exactly the ids it is given, in
// that order (the edge conversion's sorted survivors, the layered
// baseline's untaken edges).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/engine_policy.hpp"
#include "graph/graph.hpp"
#include "graph/sp_engine.hpp"

namespace ftspan {

/// Immutable per-graph context for repeated greedy runs.
struct GreedyContext {
  explicit GreedyContext(const Graph& g);

  /// An edge in the weight-sorted scan: the greedy loop walks these
  /// sequentially, so endpoints/weight/id arrive in one cache line instead
  /// of a random load into the graph's edge array per candidate.
  struct OrderedEdge {
    Vertex u, v;
    Weight w;
    EdgeId id;
  };

  const Graph* graph;
  std::vector<OrderedEdge> sorted;  ///< edges by non-decreasing weight
  WeightProfile weights;            ///< hoisted weight facts (once per graph)
};

/// Per-thread workspace: never share one across concurrent callers.
class GreedyWorkspace {
 public:
  /// The greedy k-spanner of ctx.graph \ faults. The returned span points
  /// into the workspace and is valid until the next call. Requires a finite
  /// k >= 1.
  std::span<const EdgeId> run(const GreedyContext& ctx, double k,
                              const VertexSet* faults = nullptr);

  /// The greedy k-spanner of the edges `order` lists (ids into ctx.graph),
  /// visited in exactly that order; the caller supplies the weight order
  /// and any filtering. Same decision, return value and k as above.
  std::span<const EdgeId> run(const GreedyContext& ctx, double k,
                              std::span<const EdgeId> order);

  /// Work counts of the last run. They depend only on the context, k and
  /// the run's input, never on timing or threads.
  struct Counters {
    std::uint64_t searches = 0;        ///< candidates that ran a pair search
    std::uint64_t accepted_early = 0;  ///< searches stopped at a path <= k*w
    std::uint64_t tie_fallbacks = 0;   ///< near-ties re-run in forward order
  };
  const Counters& counters() const { return counters_; }

  /// Engine policy for this workspace's searches; kAuto picks the bucket
  /// queue on bounded-integer graphs up to bucket_max and delta-stepping
  /// above it. Takes effect at the next run, which resolves it against the
  /// context's weight profile. Throws std::invalid_argument unless
  /// valid_bucket_max(bucket_max).
  void set_engine(SpEnginePolicy policy,
                  Weight bucket_max = kMaxBucketWeight) {
    if (!valid_bucket_max(bucket_max))
      throw std::invalid_argument(
          "GreedyWorkspace: bucket_max must be finite and >= 1");
    policy_ = policy;
    bucket_max_ = bucket_max;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Validates k and readies the workspace for one pass over ctx.graph:
  /// sizes every buffer for the whole graph (so even the first pass
  /// allocates only here), resolves the engine policy against the hoisted
  /// weight profile (enabling the exact-sums fast path when every scratch
  /// path length is exactly representable; scratch edges are a subset of
  /// the graph's, so its profile bounds them), and clears the scratch
  /// spanner in O(edges added since the last pass), the output and the
  /// counters.
  void begin(const GreedyContext& ctx, double k);
  /// The greedy decision for edge `id` = {u, v} of length w: kept (added to
  /// the scratch spanner and the output) iff the scratch spanner does not
  /// join u and v within k * w.
  void consider(Vertex u, Vertex v, Weight w, EdgeId id, double k);
  /// Adds {u, v} with length w to the scratch spanner.
  void add_edge(Vertex u, Vertex v, Weight w);
  /// The decision "is d(s, t) <= kw?" on the current scratch spanner, where
  /// kw = k * w(e). It answers exactly as the historical
  /// forward Dijkstra bounded at kw * (1 + kStretchSlack) answers it, bit
  /// for bit on near-ties, but it proves no distance it does not need: the
  /// search stops at the first path within kw (below a relative tie window
  /// of it unless path sums are exact), and only a result inside that
  /// window is re-derived in the historical summation order (see the .cpp).
  bool bounded_pair(Vertex s, Vertex t, Weight kw);

  struct HalfArc {
    Weight w;
    Vertex to;
    std::uint32_t next;  ///< next slot in this vertex's list, or kNone
  };  // 16 bytes: weight first so the struct packs without padding

  DijkstraEngine eng_, bwd_;         ///< forward/exact engine + backward half
  SpEnginePolicy policy_ = SpEnginePolicy::kAuto;
  Weight bucket_max_ = kMaxBucketWeight;
  bool exact_sums_ = false;          ///< from the profile; gates the tie window
  Counters counters_;
  std::vector<std::uint32_t> head_;  ///< per-vertex first slot, or kNone
  std::vector<HalfArc> pool_;        ///< two slots per added edge
  std::vector<Vertex> touched_;      ///< vertices whose head_ is live
  std::vector<EdgeId> kept_;         ///< output buffer for run()
};

/// Returns the ids (into g) of the greedy k-spanner's edges, computed on
/// G \ faults (edges with a failed endpoint are skipped). Requires a finite
/// k >= 1.
/// One-shot convenience over GreedyContext + GreedyWorkspace.
std::vector<EdgeId> greedy_spanner(const Graph& g, double k,
                                   const VertexSet* faults = nullptr);

/// Convenience: the greedy spanner as a Graph (same vertex ids as g).
Graph greedy_spanner_graph(const Graph& g, double k,
                           const VertexSet* faults = nullptr);

/// The Althöfer et al. size bound O(n^{1 + 2/(k+1)}) for odd k; used by the
/// experiment harness to normalize measured sizes.
double greedy_size_bound(std::size_t n, double k);

}  // namespace ftspan
