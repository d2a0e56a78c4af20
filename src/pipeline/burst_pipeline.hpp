// run_bursts — the repo's one fan-out executor.
//
// Every parallel loop in the repo (conversion sampling iterations,
// StretchOracle fault-set checks, QueryEngine cache misses) is an index loop
// 0..count whose bodies run on per-worker pooled state. A generic thread pool
// would hand indices out one atomic fetch_add at a time: one shared-cache-line
// bounce per task, with tasks that can be a few microseconds each. This
// driver applies the dataplane shape instead (per-core workers, SPSC rings,
// burst processing — the ndn-dpdk idiom):
//
//   - the coordinator slices 0..count into bursts and round-robins them into
//     one SpscRing per worker (single producer: the coordinator; single
//     consumer: the worker — no shared ring, no CAS anywhere);
//   - each worker drains its own ring and runs whole bursts against its own
//     state (engines, scratch graphs), so the shared-line traffic is one
//     acquire/release pair per burst instead of per task;
//   - distribution is deterministic (burst b → worker b % workers), which
//     keeps "which worker ran which index" reproducible, though callers must
//     not depend on it — output determinism comes from index-keyed results.
//
// The burst width is derived, never configured: min(kDefaultBurst,
// ceil(count / workers)). Fan-outs of at least 16·workers indices get full
// 16-index bursts; smaller ones are cut finer, so no lane runs more than its
// even share of ceil(count / workers) indices (12 fault sets on 4 workers run
// as four bursts of 3, one per lane).
//
// Exceptions: a worker that throws records the first exception and discards
// the rest of its feed (it keeps draining so the coordinator never blocks on
// a full ring); the coordinator rethrows the lowest-indexed worker's
// exception after joining.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace ftspan {

/// Largest burst: indices per ring hand-off once count >= 16·workers. Large
/// enough to amortize the hand-off, small enough that a burst of even the
/// slowest tasks (a greedy run per index) keeps all workers fed.
inline constexpr std::size_t kDefaultBurst = 16;

/// Bursts in flight per worker before the coordinator waits on that ring.
inline constexpr std::size_t kRingCapacity = 64;

/// The machine's hardware concurrency, never reported as 0.
std::size_t hardware_threads();

/// Sanity ceiling on every worker and client-thread count (conversion and
/// oracle fan-outs, QueryEngine lanes, load-test connections), not a tuning
/// knob: far above any speedup-bearing thread count, low enough that a
/// bogus request (e.g. size_t(-1)) cannot exhaust OS threads — each worker
/// also owns scratch sized to the graph.
inline constexpr std::size_t kMaxWorkers = 256;

/// Worker count actually used for a fan-out of `count` indices: 0 means
/// "all hardware threads"; the result is clamped to
/// [1, min(count, kMaxWorkers)] so oversubscription never spawns idle
/// workers.
std::size_t resolve_threads(std::size_t requested, std::size_t count);

/// Runs one index of the fan-out. Invoked on the owning worker's thread.
using BurstTask = std::function<void(std::size_t)>;

/// Creates the task for worker `w`; called on worker w's own thread, so
/// per-worker state (engines, scratch) is constructed where it runs.
using BurstTaskFactory = std::function<BurstTask(std::size_t worker)>;

/// Runs task(i) for every i in [0, count) across `workers` workers (0 is
/// taken as 1). With one worker this is a plain inline loop on the caller's
/// thread (no threads, no rings); with more it stands up a temporary
/// BurstPool (below) for the call.
void run_bursts(std::size_t count, std::size_t workers,
                const BurstTaskFactory& factory);

/// BurstPool — the persistent form of run_bursts.
///
/// run_bursts spawns and joins its workers on every call, which is fine for
/// one-shot fan-outs (a conversion, an oracle check) but wrong for a server
/// answering query batches at a steady cadence: thread creation would
/// dominate small batches. A BurstPool keeps the worker lanes alive across
/// run() calls — workers block on a per-lane condition variable while idle
/// (no spinning between batches) and drain their SPSC ring exactly like the
/// one-shot path while a run is in flight.
///
/// Contracts carried over from run_bursts:
///   - the factory runs once per worker, on that worker's own thread;
///   - distribution is deterministic (burst b -> worker b % workers);
///   - a worker that throws abandons the rest of its feed but keeps
///     draining, and run() rethrows the lowest-indexed worker's exception
///     (after which the pool is usable again — the error slot is cleared).
///
/// One coordinator thread at a time: run() calls must not overlap.
///
/// Teardown contract: run() returns (or throws) only after every burst of
/// that run has been popped and counted, so the destructor never races
/// in-flight feed — it merely flips each lane's stop flag and joins workers
/// that are either idle or finishing their last completion hand-off. The
/// pool may therefore be destroyed immediately after run() returns, after
/// run() threw, without ever calling run(), and from a different thread
/// than the one that ran it (the epoch-teardown shape: the last owner of a
/// retired engine drops it from whichever thread held the final reference).
class BurstPool {
 public:
  /// Spawns `workers` (>= 1) lanes; the factory is invoked on each worker
  /// thread before its first burst. A factory that throws poisons the lane:
  /// its bursts are drained unrun and the next run() rethrows.
  BurstPool(std::size_t workers, BurstTaskFactory factory);
  ~BurstPool();  ///< joins all workers

  BurstPool(const BurstPool&) = delete;
  BurstPool& operator=(const BurstPool&) = delete;

  std::size_t workers() const { return lanes_.size(); }

  /// Runs task(i) for every i in [0, count) in bursts of the derived width
  /// (see the file comment). Blocks until every burst has been processed.
  void run(std::size_t count);

 private:
  struct Lane;
  struct Completion;
  void feed(Lane& lane, std::size_t begin, std::size_t end);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<Completion> done_;
  std::vector<std::thread> threads_;
};

}  // namespace ftspan
