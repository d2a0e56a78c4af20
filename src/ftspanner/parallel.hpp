// The parallel conversion engine.
//
// Both fault-tolerance conversions (vertex and edge faults, one sampling
// loop in conversion.cpp) are a union of α independent sampling
// iterations. This engine fans those iterations across the burst pipeline's
// worker lanes (pipeline/burst_pipeline.hpp) and OR-merges per-worker edge
// marks, with two rules that make the result *bit-identical* to the
// sequential path for the same seed:
//
//   1. Every iteration draws from its own RNG stream, seeded by
//      hash_combine(seed, iteration index) — which worker runs it, and in
//      what order, cannot change what it samples.
//   2. The union is a commutative OR over per-worker mark buffers, folded in
//      worker order and emitted as a sorted edge-id scan — scheduling cannot
//      change the output edge set either.
//
// The engine is generic over the iteration body so that both fault models
// (and future conversions) share one implementation.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "graph/types.hpp"

namespace ftspan {

/// One conversion iteration: runs iteration `it` and sets marks[id] = 1 for
/// every produced edge id. Must be deterministic given `it` alone (derive all
/// randomness from a per-iteration seed) and must not touch shared mutable
/// state other than writing slot `it` of per-iteration output arrays.
using IterationBody =
    std::function<void(std::size_t it, std::vector<char>& marks)>;

/// Creates the iteration body a single worker will call sequentially. Invoked
/// once per worker, from that worker's thread, so the body may own mutable
/// per-worker scratch (pooled Dijkstra engines, greedy workspaces, fault-set
/// buffers) without any synchronization. The factory itself is called
/// concurrently from different workers and must be safe to do so — in
/// practice it only reads shared immutable context and constructs fresh
/// state. Determinism contract is unchanged: body results may depend on `it`
/// only, never on which worker runs it or in what order.
using IterationBodyFactory = std::function<IterationBody(std::size_t worker)>;

/// Runs `iterations` bodies across resolve_threads(threads, iterations)
/// workers (pipeline/burst_pipeline.hpp) and returns the OR-union of their
/// marks — a buffer of `num_edges` chars. Each worker builds its body once via `factory` and then drains
/// iterations through it. Iterations are fed to the workers in bursts through
/// per-worker SPSC rings (pipeline/burst_pipeline.hpp; inline on the caller's
/// thread when that resolves to 1 worker), so the shared-line hand-off cost
/// is paid once per burst, not once per iteration; each worker owns a private
/// mark buffer, so the hot loop is write-contention-free. Rethrows the first
/// exception an iteration raised.
std::vector<char> union_iterations(std::size_t iterations, std::size_t threads,
                                   std::size_t num_edges,
                                   const IterationBodyFactory& factory);

/// Collects the marked edge ids in increasing order — the canonical output
/// form shared by the sequential and parallel paths.
std::vector<EdgeId> marks_to_edges(const std::vector<char>& marks);

}  // namespace ftspan
