// Theorem 2.1: the fault-tolerance conversion.
//
// Given any k-spanner construction, build an r-fault-tolerant k-spanner by
// repeating Θ(r³ log n) times: sample a fault set J by putting each vertex
// into J independently with probability 1 - 1/r (1/2 when r = 1), run the
// base construction on G \ J, and take the union of all iterations.
//
// The oversampling is the point: a single iteration's survivors G \ J
// simultaneously certify the spanner condition for *many* fault sets F of
// size <= r (all those with F ⊆ J and the relevant edge endpoints alive),
// which is why polynomially many iterations suffice.
//
// The same conversion covers edge faults (ft_edge_greedy_spanner). H is an
// r-EDGE-fault-tolerant k-spanner if for every F ⊆ E with |F| <= r and all
// u, v: d_{H∖F}(u,v) <= k · d_{G∖F}(u,v). The oversampling argument carries
// over verbatim with edges in place of vertices: the ground set the loop
// samples from is E instead of V, and for a surviving edge e and fault set
// F the per-iteration success probability is q = keep · (1-keep)^r (only e
// itself must survive — its endpoints always exist). CLPR09 observe that
// edge faults are the easy case. Both fault models run one sampling loop
// (per-iteration RNG streams, one Bernoulli draw per ground-set element in
// index order) and one greedy loop (GreedyWorkspace::run).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "graph/engine_policy.hpp"
#include "graph/graph.hpp"

namespace ftspan {

/// A pluggable k-spanner construction: (graph, removed-vertex mask, seed) ->
/// edge ids of a k-spanner of G \ mask. Randomized bases consume the seed;
/// deterministic ones ignore it. With ConversionOptions::threads != 1 the
/// callback is invoked concurrently from multiple workers, so it must be
/// thread-safe: no mutable state shared across calls (derive all randomness
/// from the seed argument, keep scratch buffers per call).
using BaseSpanner = std::function<std::vector<EdgeId>(
    const Graph&, const VertexSet*, std::uint64_t)>;

/// A base spanner *bound* to one graph and one worker thread: (removed-vertex
/// mask, seed) -> edge ids of a k-spanner of G \ mask. A bound instance is
/// only ever called sequentially by its owning worker, so it may reuse
/// internal scratch across calls (pooled Dijkstra engine, incremental
/// adjacency, output buffer); the returned span is valid until the next
/// call. This is the zero-allocation hot path of the conversion.
using BoundBaseSpanner =
    std::function<std::span<const EdgeId>(const VertexSet*, std::uint64_t)>;

/// Creates one BoundBaseSpanner per worker thread. Called concurrently from
/// the workers, so it must only read shared immutable context (e.g. a
/// GreedyContext with the hoisted edge-weight sort) and construct fresh
/// per-worker state.
using BaseSpannerFactory = std::function<BoundBaseSpanner()>;

struct ConversionOptions {
  /// c in alpha = ceil(c (r+2) ln n / q), with q = keep² (1-keep)^r for
  /// vertex faults and keep (1-keep)^r for edge faults (keep = 1/r, 1/2 when
  /// r = 1; see conversion_iterations). Theorem 2.1 needs c = Θ(1);
  /// experiment A1 measures how small c can go in practice. Must be finite
  /// and > 0.
  double iteration_constant = 1.0;

  /// Hard override of the iteration count (ignores iteration_constant).
  std::optional<std::size_t> iterations;

  /// Ablation A2: per-element (vertex or edge) keep-probability =
  /// scale * (1/r), clamped to (0,1]. The paper's choice is scale = 1.
  double keep_probability_scale = 1.0;

  /// Worker threads for the iteration fan-out (a BurstPool, see
  /// pipeline/burst_pipeline.hpp). 1 = in-thread sequential loop; 0 = all
  /// hardware threads (capped at kMaxWorkers). Every value yields a
  /// bit-identical edge set for the same seed — iterations draw from
  /// per-iteration RNG streams, not a shared sequential stream. With
  /// threads != 1 the BaseSpanner callback must be safe to invoke
  /// concurrently.
  std::size_t threads = 1;

  /// Shortest-path engine policy for the built-in greedy base
  /// (graph/engine_policy.hpp); custom BaseSpanner callbacks are free to
  /// ignore it. Never affects the output edge set.
  SpEnginePolicy engine = SpEnginePolicy::kAuto;

  /// Bucket budget of the resolved bucket queue: integer weights up to it
  /// get one key per bucket, heavier ones tune_delta-wide buckets (see
  /// graph/engine_policy.hpp). Never affects the output edge set. Must be in
  /// [1, kMaxBucketWeight]: the greedy conversions throw
  /// std::invalid_argument otherwise.
  Weight bucket_max = kMaxBucketWeight;
};

struct ConversionResult {
  std::vector<EdgeId> edges;      ///< spanner edges (ids into the input graph)
  std::size_t iterations = 0;     ///< alpha actually used
  /// Largest survivor count over iterations: |V \ J| for vertex faults,
  /// surviving edges for edge faults.
  std::size_t max_survivors = 0;
  double keep_probability = 0;    ///< per-element survival probability used
  std::size_t threads_used = 1;   ///< workers the engine actually ran with
};

/// Number of iterations alpha = ceil(c (r+2) ln n / q) used by the vertex
/// conversion, with q = keep² (1-keep)^r the per-iteration chance that an
/// edge's endpoints survive while a given r-set is dropped (keep = 1/r, 1/2
/// when r = 1) — Theorem 2.1's Θ(r³ log n) with its constants spelled out
/// (384 iterations at n = 400, r = 2, c = 1). Throws std::invalid_argument
/// unless c is finite and > 0 and alpha fits in size_t.
std::size_t conversion_iterations(std::size_t r, std::size_t n, double c = 1.0);

/// The edge-fault conversion's α = ceil(c (r+2) ln n / (keep (1-keep)^r)),
/// with the same checks as conversion_iterations.
std::size_t edge_conversion_iterations(std::size_t r, std::size_t n,
                                       double c = 1.0);

/// The conversion of Theorem 2.1. Requires r >= 1; throws
/// std::invalid_argument before any sampling otherwise, or when the
/// iteration count is invalid (see conversion_iterations).
ConversionResult fault_tolerant_spanner(const Graph& g, std::size_t r,
                                        const BaseSpanner& base,
                                        std::uint64_t seed,
                                        const ConversionOptions& options = {});

/// As above with per-worker pooled base-spanner state — the allocation-free
/// path used by ft_greedy_spanner. Custom bases that keep scratch across
/// iterations should prefer this overload.
ConversionResult fault_tolerant_spanner(const Graph& g, std::size_t r,
                                        const BaseSpannerFactory& factory,
                                        std::uint64_t seed,
                                        const ConversionOptions& options = {});

/// Corollary 2.2: the conversion applied to the greedy k-spanner. Also
/// requires a finite k >= 1.
ConversionResult ft_greedy_spanner(const Graph& g, double k, std::size_t r,
                                   std::uint64_t seed,
                                   const ConversionOptions& options = {});

/// The edge-fault conversion over the greedy k-spanner: the same loop
/// sampling edges instead of vertices, with the same checks as
/// ft_greedy_spanner. max_survivors counts edges.
ConversionResult ft_edge_greedy_spanner(const Graph& g, double k,
                                        std::size_t r, std::uint64_t seed,
                                        const ConversionOptions& options = {});

/// Corollary 2.2's size bound O(r^{2-2/(k+1)} n^{1+2/(k+1)} log n) (constant 1).
double corollary22_size_bound(std::size_t n, double k, std::size_t r);

/// CLPR09's size bound O(r² k^{r+1} n^{1+1/k} log^{1-1/k} n) for stretch
/// 2k-1 (constant 1), expressed in terms of the *stretch* s = 2k-1 so it is
/// directly comparable with corollary22_size_bound(n, s, r).
double clpr09_size_bound(std::size_t n, double stretch, std::size_t r);

}  // namespace ftspan
