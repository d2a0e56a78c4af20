// StretchOracle — the unified batched stretch-validation engine.
//
// Every validator in this repo reduces to the same question: over a family
// of fault sets F, how large does d_{H\F}(u,v) / d_{G\F}(u,v) get over the
// surviving edges (u,v) of G? (Checking edges suffices: every edge of a
// shortest path is stretched by at most k iff every pair is.) The oracle
// answers it with three mechanisms:
//
//   1. One source-batched Dijkstra pair per spanner-edge endpoint per fault
//      set — never one per pair. The G-side run is bounded by the largest
//      surviving incident edge length (d_{G\F}(u,v) <= w(u,v) for a
//      surviving edge), and both runs stop as soon as every incident target
//      is settled.
//   2. The shared shortest-path engine (graph/sp_engine.hpp): epoch-stamped
//      scratch reused across fault sets — no per-run allocation, O(1)
//      invalidation — running over immutable CSR snapshots of both graphs
//      taken once at oracle construction.
//   3. Independent fault sets fanned across the burst pipeline's worker
//      lanes (pipeline/burst_pipeline.hpp), each with private scratch.
//      Per-set witnesses land in an index-ordered array and are folded
//      sequentially, so the worst witness — and the whole FtCheckResult —
//      is bit-identical for every thread count.
//
// This is the one validation entry point: plain stretch is max_stretch() or
// check_exact(0), vertex-fault tolerance is check_exact / check_sampled,
// edge-fault tolerance (undirected only) is check_exact_edges /
// check_sampled_edges — same loop, fan-out, fold and per-trial RNG streams,
// with F a set of G's edge ids — and the definition-level 2-spanner check
// (spanner2/verify2.hpp) runs a DiStretchOracle over unit-cost copies.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/sp_engine.hpp"
#include "util/rng.hpp"

namespace ftspan {

struct FtCheckResult {
  bool valid = true;
  double worst_stretch = 1.0;          ///< max observed d_H\F / d_G\F
  /// The fault set achieving worst_stretch (G's edge ids for edge checks).
  VertexSet witness_faults;
  Vertex witness_u = kInvalidVertex;   ///< violated / worst pair
  Vertex witness_v = kInvalidVertex;
  std::size_t fault_sets_checked = 0;

  /// Records (F, u, v, stretch) if it is worse than the current worst.
  void consider(double stretch, const VertexSet& faults, Vertex u, Vertex v,
                double k);
};

/// Options shared by all oracle-backed validators.
struct FtCheckOptions {
  /// Worker threads for the fault-set fan-out; 0 = all hardware threads
  /// (capped at kMaxWorkers). Every value yields a bit-identical
  /// FtCheckResult for the same inputs and seed.
  std::size_t threads = 1;

  /// Exact checks throw once the fault-set enumeration exceeds this.
  std::size_t max_fault_sets = 2'000'000;

  /// Shortest-path engine policy for the scratch engines
  /// (graph/engine_policy.hpp); resolved per graph from the CSR snapshots'
  /// weight profiles. Never changes the FtCheckResult.
  SpEnginePolicy engine = SpEnginePolicy::kAuto;

  /// Bucket/delta engine-resolution ceiling (graph/engine_policy.hpp).
  /// Never changes the FtCheckResult. Must be finite and >= 1: every check
  /// throws std::invalid_argument otherwise.
  Weight bucket_max = kMaxBucketWeight;
};

/// Number of fault sets of size <= r over n vertices (saturating).
std::size_t count_fault_sets(std::size_t n, std::size_t r);

/// Shared throw path for exact enumerations: reports where the overflow
/// happened, the fault model, n vertices or m edges, r, the computed
/// fault-set count, and the cap.
[[noreturn]] void throw_fault_set_overflow(const char* where, bool edge_faults,
                                           std::size_t universe, std::size_t r,
                                           std::size_t count,
                                           std::size_t max_fault_sets);

/// The fault set drawn by check_sampled's (or check_sampled_edges') random
/// trial i: a partial Fisher-Yates draw of `fault_size` distinct ids, left
/// in pool[0, fault_size), from the identity pool over out.universe_size()
/// vertices (or edges), consuming `rng` (which trial i seeds as
/// Rng(hash_combine(seed, i))). Exposed so benches and tests can replay the
/// oracle's trial stream exactly.
void sample_fault_set(Rng& rng, std::size_t fault_size,
                      std::vector<Vertex>& pool, VertexSet& out);

template <class G>
class BasicStretchOracle {
 public:
  /// g is the base graph, h the candidate spanner (same vertex universe —
  /// throws std::invalid_argument otherwise), k the stretch to certify
  /// (finite and >= 1; throws std::invalid_argument otherwise).
  /// Both graphs must outlive the oracle; the deleted overloads reject
  /// temporaries at compile time.
  BasicStretchOracle(const G& g, const G& h, double k);
  BasicStretchOracle(const G&& g, const G& h, double k) = delete;
  BasicStretchOracle(const G& g, const G&& h, double k) = delete;
  BasicStretchOracle(const G&& g, const G&& h, double k) = delete;

  const G& base() const { return *g_; }
  const G& spanner() const { return *h_; }
  double stretch_bound() const { return k_; }

  /// Per-worker scratch: one pooled Dijkstra engine each for G and H plus
  /// the reusable target/pool buffers. One per thread; never shared. The
  /// engines' queue structure is resolved against each graph's weight
  /// profile (bucket on bounded-integer weights under kAuto). Throws
  /// std::invalid_argument unless valid_bucket_max(bucket_max).
  struct Scratch {
    DijkstraEngine dg, dh;
    std::vector<Vertex> targets;
    std::vector<Vertex> pool;
    std::vector<Vertex> interior;  ///< adversary's path (edge ids for edges)
    VertexSet faults;
    /// Edge checks only: F over G's edge ids, and over H's (sized lazily).
    VertexSet edge_faults, h_edge_faults;
  };
  Scratch make_scratch(SpEnginePolicy policy = SpEnginePolicy::kAuto,
                       Weight bucket_max = kMaxBucketWeight) const;

  /// Worst surviving-edge stretch under one fault set; (1.0, invalid,
  /// invalid) when no surviving edge exists. The witness pair is the first
  /// strict maximum in (source ascending, adjacency order) — deterministic.
  struct Witness {
    double stretch = 1.0;
    Vertex u = kInvalidVertex;
    Vertex v = kInvalidVertex;
  };
  Witness evaluate(const VertexSet& faults, Scratch& scratch) const;

  /// Single-shot convenience: worst stretch under `faults` (nullptr = none).
  double max_stretch(const VertexSet* faults = nullptr) const;

  /// Batched evaluation of an explicit fault-set list.
  FtCheckResult evaluate_sets(const std::vector<VertexSet>& fault_sets,
                              const FtCheckOptions& options = {}) const;

  /// Exact check: enumerate every fault set |F| <= r. Throws via
  /// throw_fault_set_overflow once the enumeration exceeds
  /// options.max_fault_sets.
  FtCheckResult check_exact(std::size_t r,
                            const FtCheckOptions& options = {}) const;

  /// Sampled check: `random_trials` fault sets of size min(r, n-2) (per-trial
  /// RNG streams — see sample_fault_set), plus a targeted adversary that for
  /// `adversarial_edges` random G-edges repeatedly fails an interior vertex
  /// of H's current shortest path between the endpoints (up to r faults) and
  /// evaluates that pair. valid=true is evidence, not proof.
  FtCheckResult check_sampled(std::size_t r, std::size_t random_trials,
                              std::size_t adversarial_edges,
                              std::uint64_t seed,
                              const FtCheckOptions& options = {}) const;

  /// check_exact under edge faults: every set of <= r edges of G.
  FtCheckResult check_exact_edges(std::size_t r,
                                  const FtCheckOptions& options = {}) const
    requires std::is_same_v<G, Graph>;

  /// check_sampled under edge faults: random sets of min(r, m) edges, plus
  /// an adversary that fails edges of H's current shortest path between a
  /// random G-edge's endpoints (up to r). Unlike the vertex adversary, every
  /// trial evaluates every surviving edge.
  FtCheckResult check_sampled_edges(std::size_t r, std::size_t random_trials,
                                    std::size_t adversarial_edges,
                                    std::uint64_t seed,
                                    const FtCheckOptions& options = {}) const
    requires std::is_same_v<G, Graph>;

 private:
  /// Fault set i is load(i, scratch) (which may fill the scratch's masks)
  /// and scores eval(i, scratch); `universe` sizes an empty witness set.
  template <class Load, class Eval>
  FtCheckResult run_indexed(std::size_t count, std::size_t universe,
                            const Load& load, const Eval& eval,
                            const FtCheckOptions& options) const;

  const G* g_;
  const G* h_;
  Csr cg_;  ///< flat snapshot of *g_, shared read-only by all workers
  Csr ch_;  ///< flat snapshot of *h_
  double k_;
};

using StretchOracle = BasicStretchOracle<Graph>;
using DiStretchOracle = BasicStretchOracle<Digraph>;

extern template class BasicStretchOracle<Graph>;
extern template class BasicStretchOracle<Digraph>;

}  // namespace ftspan
