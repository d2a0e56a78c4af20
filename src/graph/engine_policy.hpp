// Engine selection for the shortest-path engine (graph/sp_engine.hpp).
//
// The engine owns two interchangeable priority structures: the 4-ary heap
// (works on any weights) and a bucket queue (integer weights only) whose
// buckets are delta = tune_delta(max_weight) keys wide. On weights up to
// kMaxBucketWeight delta is 1 — one key per bucket, O(1) push and pop, i.e.
// Dial's queue; above it delta-wide buckets park far pushes in O(1) and a
// heap orders only the open bucket (delta-stepping). Callers express a
// *policy*; the concrete queue is picked per graph from its hoisted weight
// profile (see WeightProfile in graph/csr.hpp), so `auto` costs one branch
// per run, not a per-run scan.
//
// Only searches in one direction (run(), bounded_pair(), the oracle's and
// the serve daemon's searches) use the resolved queue. A bidirectional pair
// search (DijkstraEngine::bidirectional_bounded_pair) always runs on the
// engines' heaps: its two half-searches settle a few dozen vertices each,
// too few for buckets to pay for themselves. Every queue settles in the
// same order, so no choice moves an output bit.
#pragma once

#include <cstdint>
#include <limits>

#include "graph/types.hpp"

namespace ftspan {

/// The concrete priority structure a run uses. Policies resolve only to
/// kHeap or kDelta; kBucket (the bucket queue with one key per bucket,
/// whatever max_weight is) stays only because perfbench/src/compute.cpp's
/// graph.sp_probe names it — ROADMAP item 4 deletes it with the
/// engine/bucket_max seams.
enum class SpQueue : std::uint8_t { kHeap, kBucket, kDelta };

/// What the caller asked for. kAuto resolves per graph: the delta queue
/// whenever every path sum is an exact integer (WeightProfile::exact_sums),
/// the heap otherwise. kDelta is a *request*, downgraded to the heap on the
/// same condition: a label-setting bucket structure is incorrect on
/// fractional keys, and its integer key overflows on sums past 2^64. So
/// every policy is safe on every graph.
enum class SpEnginePolicy : std::uint8_t { kAuto, kHeap, kDelta };

/// Default bucket budget of the bucket queue: its circular array has
/// max_weight / delta + 2 buckets, which tune_delta keeps at most
/// kMaxBucketWeight + 2. A pop scans forward one bucket at a time (Dial's
/// O(m + D)), so a larger array would trade heap log-factors for a worse
/// linear scan. Integer weights up to 4096 get one key per bucket (Dial's
/// queue), in an array that still fits in L1/L2.
inline constexpr Weight kMaxBucketWeight = 4096;

/// True when `bucket_max` can bound a bucket array: finite and >= 1 (NaN is
/// neither). Below 1, tune_delta's doubling never ends (or reaches infinity
/// at 0), so every seam that takes a bucket_max rejects any other value
/// before it searches.
inline constexpr bool valid_bucket_max(Weight bucket_max) {
  return bucket_max >= 1.0 &&
         bucket_max <= std::numeric_limits<Weight>::max();
}

/// Auto-tuned bucket width: the smallest power of two such that
/// max_weight / delta <= bucket_max, i.e. the bucket array has at most
/// bucket_max + 2 buckets. Power-of-two widths make bucketing a shift, not
/// a division. Examples at the default ceiling: max_weight up to 4096 ->
/// delta 1, 10^5 -> delta 32, 10^6 -> delta 256.
inline Weight tune_delta(Weight max_weight,
                         Weight bucket_max = kMaxBucketWeight) {
  Weight delta = 1;
  while (max_weight / delta > bucket_max) delta *= 2;
  return delta;
}

/// `exact_sums` is the graph's WeightProfile::exact_sums(): the weights are
/// non-negative integers whose path sums are all exact. The third parameter
/// (the graph's max weight) is read by nothing; it stays only so that
/// perfbench/src/compute.cpp's 3-argument call compiles.
inline SpQueue select_sp_queue(SpEnginePolicy policy, bool exact_sums,
                               Weight /*max_weight*/ = 0) {
  if (policy == SpEnginePolicy::kHeap || !exact_sums) return SpQueue::kHeap;
  return SpQueue::kDelta;
}

inline const char* to_string(SpEnginePolicy p) {
  switch (p) {
    case SpEnginePolicy::kHeap: return "heap";
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
