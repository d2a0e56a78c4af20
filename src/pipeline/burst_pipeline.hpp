// BurstPool — the repo's one fan-out executor.
//
// Every parallel loop in the repo (conversion sampling iterations,
// StretchOracle baseline sources and fault-set checks, QueryEngine cache
// misses) is an index loop 0..count whose bodies run on per-lane state, and
// every body is tens of microseconds to milliseconds of search work: a
// greedy run, a fault set, a baseline source, a cache miss. So the pool
// balances at run time, one index at a time:
//
//   - run() publishes (count, job) under the pool's mutex, bumps a
//     generation counter and wakes every lane;
//   - each lane claims the next index from one shared cursor (one fetch_add
//     per index) and runs it against its own state (engines, scratch
//     graphs), until the count is used up;
//   - run() returns once every lane has checked out of that generation.
//
// A lane that runs slower, or draws a heavier index, simply claims fewer:
// no index waits behind another in a queue it cannot leave. One shared
// cache-line bounce per index is noise next to a job of this size. Which
// lane runs which index is not reproducible, so callers must not depend on
// it — output determinism comes from index-keyed results.
//
// Exceptions: once a job throws, no lane starts a new index, and run()
// rethrows the exception of the lowest index that threw. Claims go in
// ascending order and every claimed index runs, so that index is the
// lowest throwing one whatever the timing: the rule is deterministic.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace ftspan {

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

/// BurstPool's threads, shared cursor and error slots: everything that does
/// not depend on the lanes' state type, compiled once. Always two or more
/// lanes (one lane runs inline and never builds this). Use BurstPool.
class BurstLanes {
 public:
  /// Runs on lane w's own thread: `enter` once before its first job,
  /// `leave` once after its last.
  using Hook = std::function<void(std::size_t lane)>;
  /// Runs index i on lane `lane`'s thread.
  using Job = std::function<void(std::size_t lane, std::size_t i)>;

  BurstLanes(std::size_t workers, Hook enter, Hook leave);
  ~BurstLanes();  ///< joins all lanes

  BurstLanes(const BurstLanes&) = delete;
  BurstLanes& operator=(const BurstLanes&) = delete;

  /// Lets the lanes claim [0, count) one index at a time and waits until
  /// every lane has checked out.
  void run(std::size_t count, const Job& job);

 private:
  struct Shared;
  void lane_main(std::size_t w, const Hook& enter, const Hook& leave);
  void claim_until_done(std::size_t w);
  void stop_and_join();

  std::unique_ptr<Shared> shared_;
  std::vector<std::thread> threads_;
};

}  // namespace detail

/// The fan-out executor: `workers` lanes, each owning one State, that stay
/// alive across run() calls. run(count, job) calls job(i, state) for every
/// i in [0, count), with the state of whichever lane claimed index i, so two
/// runs with different jobs share the lanes' state (an oracle check's
/// baseline sweep and then its fault sets; the daemon's successive batches).
///
///   - Each lane builds its State once, as make(lane), on the thread it runs
///     on: its own thread, started by the constructor, or with one lane the
///     caller's, inside the first run(). A lane thread also destroys its
///     State before it exits, so the state's memory goes back to the
///     allocator arena it came from. One lane spawns no thread: run() is a
///     plain loop.
///   - Lanes claim indices one at a time from a shared cursor, so which
///     lane runs which index depends on timing (see the file comment).
///   - Once a job throws, no lane starts a new index, and run() rethrows
///     the exception of the lowest index that threw (after which the pool
///     is usable again). A lane whose make throws never gets state: it
///     claims nothing, and every run() rethrows (with one lane, every run()
///     retries make).
///
/// One coordinator thread at a time: run() calls must not overlap. A job
/// must only touch its index's slots of shared output and its lane's state.
///
/// Teardown contract: run() returns (or throws) only after every lane has
/// checked out of that run, so the destructor never races a job — it
/// merely sets the stop flag and joins lanes that are either idle or
/// finishing their check-out. The pool may therefore be destroyed
/// immediately after run() returns, after run() threw, without ever calling
/// run(), and from a different thread than the one that ran it (the
/// epoch-teardown shape: the last owner of a retired engine drops it from
/// whichever thread held the final reference).
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

  /// Runs job(i, state) for every i in [0, count), one claimed index at a
  /// time (see the file comment). Blocks until every lane has checked out.
  template <class Job>
  void run(std::size_t count, const Job& job) {
    if (count == 0) return;
    if (!lanes_) {
      if (states_[0] == nullptr) build(0);
      for (std::size_t i = 0; i < count; ++i) job(i, *states_[0]);
      return;
    }
    lanes_->run(count, [this, &job](std::size_t w, std::size_t i) {
      job(i, *states_[w]);
    });
  }

 private:
  void build(std::size_t w) { states_[w] = std::make_unique<State>(make_(w)); }

  Make make_;
  std::vector<std::unique_ptr<State>> states_;  ///< slot w: lane w's only
  std::optional<detail::BurstLanes> lanes_;  ///< last: joined before the rest
};

}  // namespace ftspan
