// Engine selection for the shortest-path engine (graph/sp_engine.hpp).
//
// The engine owns two interchangeable priority structures: the 4-ary heap
// (works on any weights) and a bucket queue (integer weights only). The
// bucket queue runs in one of two configurations, named by SpQueue: Dial's
// queue (kBucket: one key per bucket, O(1) push/pop — the classic win over
// comparison heaps for bounded integer distances) and delta-stepping
// (kDelta: delta-wide buckets park far pushes in O(1), a heap orders only
// the open bucket). Callers express a *policy*; the concrete queue is picked
// per graph from its hoisted weight profile (see WeightProfile in
// graph/csr.hpp), so `auto` costs one branch per run, not a per-run scan.
//
// The engine then picks by query shape: a search in one direction (run(),
// bounded_pair(), the oracle's and the serve daemon's searches) uses the
// resolved queue, while a bidirectional pair search (the greedy's
// DijkstraEngine::bidirectional_bounded_pair) uses Dial's queue or the heap,
// never delta — its two half-searches are too small to amortize delta-wide
// buckets. Every queue settles in the same order, so neither choice moves
// an output bit.
#pragma once

#include <cstdint>
#include <limits>

#include "graph/types.hpp"

namespace ftspan {

/// The concrete priority structure a run uses.
enum class SpQueue : std::uint8_t { kHeap, kBucket, kDelta };

/// What the caller asked for. kAuto resolves per graph: the bucket queue
/// when the weights are non-negative integers no larger than the bucket
/// ceiling, the delta queue for integer weights above it (the mid-range
/// regime: DIMACS road weights up to ~10^6), and the heap otherwise.
/// kBucket and kDelta are *requests*, downgraded to the heap unless every
/// path sum is an exact integer (WeightProfile::exact_sums): a label-setting
/// bucket structure is incorrect on fractional keys, and its integer key
/// overflows on sums past 2^64. So every policy is safe on every graph.
enum class SpEnginePolicy : std::uint8_t { kAuto, kHeap, kBucket, kDelta };

/// Largest integer arc weight the bucket queue accepts by default: the
/// circular bucket array has max_weight + 2 slots and a pop scans forward
/// one key at a time (Dial's O(m + D)), so huge weights would trade heap
/// log-factors for a worse linear scan. 4096 covers every integer-weight
/// workload in the registry with a bucket array that still fits in L1/L2.
/// It doubles as the delta queue's bucket-count budget (see tune_delta).
inline constexpr Weight kMaxBucketWeight = 4096;

/// True when `bucket_max` can bound a bucket array: finite and >= 1 (NaN is
/// neither). Below 1, tune_delta's doubling never ends (or reaches infinity
/// at 0), so every seam that takes a bucket_max rejects any other value
/// before it searches.
inline constexpr bool valid_bucket_max(Weight bucket_max) {
  return bucket_max >= 1.0 &&
         bucket_max <= std::numeric_limits<Weight>::max();
}

/// Auto-tuned delta-stepping bucket width: the smallest power of two such
/// that max_weight / delta <= bucket_max, i.e. the delta bucket array has
/// at most bucket_max + 2 buckets — the same array budget the Dial queue
/// gets at its ceiling. Power-of-two widths make bucketing a shift, not a
/// division. Examples at the default ceiling: max_weight 10^5 -> delta 32,
/// 10^6 -> delta 256.
inline Weight tune_delta(Weight max_weight,
                         Weight bucket_max = kMaxBucketWeight) {
  Weight delta = 1;
  while (max_weight / delta > bucket_max) delta *= 2;
  return delta;
}

/// `exact_sums` is the graph's WeightProfile::exact_sums(): the weights are
/// non-negative integers whose path sums are all exact.
inline SpQueue select_sp_queue(SpEnginePolicy policy, bool exact_sums,
                               Weight max_weight,
                               Weight bucket_max = kMaxBucketWeight) {
  switch (policy) {
    case SpEnginePolicy::kHeap: return SpQueue::kHeap;
    case SpEnginePolicy::kBucket:
      return exact_sums && max_weight <= bucket_max ? SpQueue::kBucket
                                                    : SpQueue::kHeap;
    case SpEnginePolicy::kDelta:
      return exact_sums ? SpQueue::kDelta : SpQueue::kHeap;
    case SpEnginePolicy::kAuto:
    default:
      if (!exact_sums) return SpQueue::kHeap;
      return max_weight <= bucket_max ? SpQueue::kBucket : SpQueue::kDelta;
  }
}

inline const char* to_string(SpEnginePolicy p) {
  switch (p) {
    case SpEnginePolicy::kHeap: return "heap";
    case SpEnginePolicy::kBucket: return "bucket";
    case SpEnginePolicy::kDelta: return "delta";
    default: return "auto";
  }
}

inline const char* to_string(SpQueue q) {
  switch (q) {
    case SpQueue::kBucket: return "bucket";
    case SpQueue::kDelta: return "delta";
    default: return "heap";
  }
}

}  // namespace ftspan
