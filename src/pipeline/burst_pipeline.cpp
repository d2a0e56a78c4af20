#include "pipeline/burst_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ftspan {

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t resolve_threads(std::size_t requested, std::size_t count) {
  std::size_t t = requested == 0 ? hardware_threads() : requested;
  t = std::min(t, std::max<std::size_t>(count, 1));
  return std::clamp<std::size_t>(t, 1, kMaxWorkers);
}

namespace detail {

/// What the coordinator and the lanes share. The mutex guards the run's
/// publication and the lanes' check-out; while a run is in flight the lanes
/// touch only the cursor and the stop-claiming flag, each on a cache line
/// of its own so a claim does not evict the flag every lane reads.
struct BurstLanes::Shared {
  explicit Shared(std::size_t workers) : lanes(workers) {}

  const std::size_t lanes;

  std::mutex m;
  std::condition_variable start;  ///< a new generation, or stop
  std::condition_variable done;   ///< every lane has checked out
  std::uint64_t generation = 0;   ///< guarded by m; bumped by each run
  bool stop = false;              ///< guarded by m
  std::size_t count = 0;          ///< guarded by m; the run's index count
  const Job* job = nullptr;       ///< guarded by m; the run's job
  std::size_t checked_out = 0;    ///< guarded by m; lanes done this run
  std::exception_ptr error;       ///< guarded by m; lowest throwing index's
  std::size_t error_index = 0;    ///< guarded by m; meaningful with error
  std::exception_ptr make_error;  ///< guarded by m; permanent

  alignas(64) std::atomic<std::size_t> next{0};  ///< the shared cursor
  /// Set by a throwing job or a failed make: lanes start no new index.
  alignas(64) std::atomic<bool> halt{false};
};

BurstLanes::BurstLanes(std::size_t workers, Hook enter, Hook leave)
    : shared_(std::make_unique<Shared>(workers)) {
  threads_.reserve(workers);
  // A failed thread start must not leave the started lanes unjoined.
  try {
    for (std::size_t w = 0; w < workers; ++w)
      threads_.emplace_back(&BurstLanes::lane_main, this, w, enter, leave);
  } catch (...) {
    stop_and_join();
    throw;
  }
}

void BurstLanes::lane_main(std::size_t w, const Hook& enter,
                           const Hook& leave) {
  Shared& sh = *shared_;
  bool has_state = true;
  try {
    enter(w);
  } catch (...) {
    has_state = false;
    std::lock_guard<std::mutex> l(sh.m);
    sh.make_error = std::current_exception();
    sh.halt.store(true, std::memory_order_relaxed);
  }
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> l(sh.m);
      sh.start.wait(l,
                    [&sh, seen] { return sh.stop || sh.generation != seen; });
      if (sh.stop) break;
      seen = sh.generation;
    }
    if (has_state) claim_until_done(w);
    std::lock_guard<std::mutex> l(sh.m);
    if (++sh.checked_out == sh.lanes) sh.done.notify_one();
  }
  leave(w);
}

void BurstLanes::claim_until_done(std::size_t w) {
  Shared& sh = *shared_;
  // Read under the mutex when this generation was observed; run() changes
  // neither until every lane has checked out.
  const std::size_t count = sh.count;
  const Job& job = *sh.job;
  // The halt check comes before the claim and a claimed index always runs:
  // every index below a throwing one was claimed before it, so it ran too,
  // and the lowest throwing index is always among those recorded.
  while (!sh.halt.load(std::memory_order_relaxed)) {
    const std::size_t i = sh.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    try {
      job(w, i);
    } catch (...) {
      std::lock_guard<std::mutex> l(sh.m);
      if (sh.error == nullptr || i < sh.error_index) {
        sh.error = std::current_exception();
        sh.error_index = i;
      }
      sh.halt.store(true, std::memory_order_relaxed);
    }
  }
}

BurstLanes::~BurstLanes() { stop_and_join(); }

void BurstLanes::stop_and_join() {
  {
    std::lock_guard<std::mutex> l(shared_->m);
    shared_->stop = true;
  }
  shared_->start.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BurstLanes::run(std::size_t count, const Job& job) {
  if (count == 0) return;
  Shared& sh = *shared_;
  std::unique_lock<std::mutex> l(sh.m);
  sh.count = count;
  sh.job = &job;
  sh.checked_out = 0;
  sh.next.store(0, std::memory_order_relaxed);
  sh.halt.store(sh.make_error != nullptr, std::memory_order_relaxed);
  ++sh.generation;
  sh.start.notify_all();
  sh.done.wait(l, [&sh] { return sh.checked_out == sh.lanes; });

  // A job's error is cleared so the pool stays usable; a lane whose make
  // threw never got state, so its error is permanent and comes first.
  const std::exception_ptr error = std::exchange(sh.error, nullptr);
  if (sh.make_error != nullptr) std::rethrow_exception(sh.make_error);
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace detail
}  // namespace ftspan
