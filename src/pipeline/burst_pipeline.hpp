// BurstPool — the repo's one fan-out executor.
//
// Every parallel loop in the repo (conversion sampling iterations,
// StretchOracle baseline sources and fault-set checks, QueryEngine cache
// misses) is an index loop 0..count whose bodies run on per-lane state. A
// generic thread pool would hand indices out one atomic fetch_add at a time:
// one shared-cache-line bounce per task, with tasks that can be a few
// microseconds each. This executor applies the dataplane shape instead
// (per-core lanes, SPSC rings, burst processing — the ndn-dpdk idiom):
//
//   - the coordinator slices 0..count into bursts and round-robins them into
//     one SpscRing per lane (single producer: the coordinator; single
//     consumer: the lane — no shared ring, no CAS anywhere);
//   - each lane drains its own ring and runs whole bursts against its own
//     state (engines, scratch graphs), so the shared-line traffic is one
//     acquire/release pair per burst instead of per task;
//   - distribution is deterministic (burst b → lane b % workers), which
//     keeps "which lane ran which index" reproducible, though callers must
//     not depend on it — output determinism comes from index-keyed results.
//
// The burst width is derived, never configured: min(kDefaultBurst,
// ceil(count / workers)). Fan-outs of at least 16·workers indices get full
// 16-index bursts; smaller ones are cut finer, so no lane runs more than its
// even share of ceil(count / workers) indices (12 fault sets on 4 workers run
// as four bursts of 3, one per lane).
//
// Exceptions: a lane that throws records the first exception and discards
// the rest of its feed (it keeps draining so the coordinator never blocks on
// a full ring); the coordinator rethrows the lowest-indexed lane's
// exception once every burst is done.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
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

namespace detail {

/// BurstPool's threads, rings and error slots: everything that does not
/// depend on the lanes' state type, compiled once. Always two or more lanes
/// (one lane runs inline and never builds this). Use BurstPool.
class BurstLanes {
 public:
  /// Runs on lane w's own thread: `enter` once before its first burst,
  /// `leave` once after its last.
  using Hook = std::function<void(std::size_t lane)>;
  /// Runs indices [begin, end) on lane `lane`'s thread.
  using Burst =
      std::function<void(std::size_t lane, std::size_t begin, std::size_t end)>;

  BurstLanes(std::size_t workers, Hook enter, Hook leave);
  ~BurstLanes();  ///< joins all lanes

  BurstLanes(const BurstLanes&) = delete;
  BurstLanes& operator=(const BurstLanes&) = delete;

  /// Feeds [0, count) to the lanes in bursts and waits for all of them.
  void run(std::size_t count, const Burst& burst);

 private:
  struct Lane;
  struct Completion;
  void lane_main(std::size_t w, const Hook& enter, const Hook& leave);
  void stop_and_join();
  void feed(Lane& lane, std::size_t begin, std::size_t end);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<Completion> done_;
  const Burst* burst_ = nullptr;  ///< published to the lanes by each feed
  std::vector<std::thread> threads_;
};

}  // namespace detail

/// The fan-out executor: `workers` lanes, each owning one State, that stay
/// alive across run() calls. run(count, job) calls job(i, state) for every
/// i in [0, count), with the state of the lane that index i's burst went
/// to, so two runs with different jobs share the lanes' state (an oracle
/// check's baseline sweep and then its fault sets; the daemon's successive
/// batches).
///
///   - Each lane builds its State once, as make(lane), on the thread it runs
///     on: its own thread, started by the constructor, or with one lane the
///     caller's, inside the first run(). A lane thread also destroys its
///     State before it exits, so the state's memory goes back to the
///     allocator arena it came from. One lane spawns no thread and no ring:
///     run() is a plain loop.
///   - Distribution is deterministic (burst b -> lane b % workers).
///   - A lane whose job throws abandons the rest of its feed but keeps
///     draining, and run() rethrows the lowest-indexed lane's exception
///     (after which the pool is usable again). A lane whose make throws
///     never gets state: its bursts are drained unrun and every run()
///     rethrows (with one lane, every run() retries make).
///
/// One coordinator thread at a time: run() calls must not overlap. A job
/// must only touch its index's slots of shared output and its lane's state.
///
/// Teardown contract: run() returns (or throws) only after every burst of
/// that run has been popped and counted, so the destructor never races
/// in-flight feed — it merely flips each lane's stop flag and joins lanes
/// that are either idle or finishing their last completion hand-off. The
/// pool may therefore be destroyed immediately after run() returns, after
/// run() threw, without ever calling run(), and from a different thread
/// than the one that ran it (the epoch-teardown shape: the last owner of a
/// retired engine drops it from whichever thread held the final reference).
template <class State>
class BurstPool {
 public:
  using Make = std::function<State(std::size_t lane)>;

  /// `workers` lanes (0 is taken as 1).
  BurstPool(std::size_t workers, Make make)
      : make_(std::move(make)), states_(workers == 0 ? 1 : workers) {
    if (states_.size() > 1)
      lanes_.emplace(
          states_.size(), [this](std::size_t w) { build(w); },
          [this](std::size_t w) { states_[w].reset(); });
  }

  BurstPool(const BurstPool&) = delete;
  BurstPool& operator=(const BurstPool&) = delete;

  std::size_t workers() const { return states_.size(); }

  /// Runs job(i, state) for every i in [0, count) in bursts of the derived
  /// width (see the file comment). Blocks until every burst has run.
  template <class Job>
  void run(std::size_t count, const Job& job) {
    if (count == 0) return;
    if (!lanes_) {
      if (states_[0] == nullptr) build(0);
      for (std::size_t i = 0; i < count; ++i) job(i, *states_[0]);
      return;
    }
    lanes_->run(count, [this, &job](std::size_t w, std::size_t begin,
                                    std::size_t end) {
      State& state = *states_[w];
      for (std::size_t i = begin; i < end; ++i) job(i, state);
    });
  }

 private:
  void build(std::size_t w) { states_[w] = std::make_unique<State>(make_(w)); }

  Make make_;
  std::vector<std::unique_ptr<State>> states_;  ///< slot w: lane w's only
  std::optional<detail::BurstLanes> lanes_;  ///< last: joined before the rest
};

}  // namespace ftspan
