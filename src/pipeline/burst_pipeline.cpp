#include "pipeline/burst_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/spsc_ring.hpp"

namespace ftspan {

namespace {

/// A half-open index range; the unit that travels through a worker's ring.
struct Burst {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Indices per burst for a run of count >= 1: full kDefaultBurst bursts for
/// large fan-outs, finer ones when count < kDefaultBurst * workers so no lane
/// gets more than its even share.
std::size_t burst_width(std::size_t count, std::size_t workers) {
  return std::min(kDefaultBurst, (count + workers - 1) / workers);
}

}  // namespace

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t resolve_threads(std::size_t requested, std::size_t count) {
  std::size_t t = requested == 0 ? hardware_threads() : requested;
  t = std::min(t, std::max<std::size_t>(count, 1));
  return std::clamp<std::size_t>(t, 1, kMaxWorkers);
}

/// Everything one worker owns. Rings are per-worker (SPSC: coordinator
/// produces, the worker consumes). The mutex/cv pair only matters while the
/// lane is idle: a worker with a non-empty ring never touches it, so the
/// in-flight hand-off cost stays one acquire/release pair per burst.
struct BurstPool::Lane {
  SpscRing<Burst> ring{kRingCapacity};
  std::mutex m;
  std::condition_variable cv;
  bool stop = false;         ///< guarded by m
  std::exception_ptr error;  ///< worker-written; read/cleared between runs
  bool factory_failed = false;  ///< permanent: the lane never got a task
};

/// Run-completion rendezvous: workers count finished bursts, the
/// coordinator sleeps until the count reaches the run's burst total.
struct BurstPool::Completion {
  std::atomic<std::size_t> bursts{0};
  std::mutex m;
  std::condition_variable cv;
};

BurstPool::BurstPool(std::size_t workers, BurstTaskFactory factory) {
  const std::size_t n = workers == 0 ? 1 : workers;
  lanes_.reserve(n);
  for (std::size_t w = 0; w < n; ++w)
    lanes_.push_back(std::make_unique<Lane>());

  done_ = std::make_unique<Completion>();
  threads_.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    Lane* lane = lanes_[w].get();
    Completion* done = done_.get();
    threads_.emplace_back([lane, done, factory, w] {
      BurstTask task;
      try {
        task = factory(w);
      } catch (...) {
        lane->error = std::current_exception();
        lane->factory_failed = true;
      }
      Burst b;
      for (;;) {
        if (lane->ring.try_pop(b)) {
          // After a failure keep draining without running: the coordinator
          // may be spinning on this ring being full, so the feed must keep
          // moving even though its results are abandoned.
          if (lane->error == nullptr) {
            try {
              for (std::size_t i = b.begin; i < b.end; ++i) task(i);
            } catch (...) {
              lane->error = std::current_exception();
            }
          }
          done->bursts.fetch_add(1, std::memory_order_release);
          {
            std::lock_guard<std::mutex> l(done->m);
          }
          done->cv.notify_one();
          continue;
        }
        std::unique_lock<std::mutex> l(lane->m);
        if (!lane->ring.empty()) continue;  // pushed while we took the lock
        if (lane->stop) break;
        lane->cv.wait(l);
      }
    });
  }
}

BurstPool::~BurstPool() {
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> l(lane->m);
      lane->stop = true;
    }
    lane->cv.notify_one();
  }
  for (std::thread& t : threads_) t.join();
}

void BurstPool::feed(Lane& lane, std::size_t begin, std::size_t end) {
  const Burst b{begin, end};
  while (!lane.ring.try_push(b)) std::this_thread::yield();
  // The empty critical section orders the push before the worker's
  // ring-empty recheck under the same mutex, so the notify cannot be lost.
  {
    std::lock_guard<std::mutex> l(lane.m);
  }
  lane.cv.notify_one();
}

void BurstPool::run(std::size_t count) {
  if (count == 0) return;
  const std::size_t width = burst_width(count, lanes_.size());
  const std::size_t total = (count + width - 1) / width;

  done_->bursts.store(0, std::memory_order_relaxed);

  // Round-robin distribution: burst b -> worker b % workers, in order. With
  // equal-cost bursts this is exactly the static block-cyclic schedule; with
  // skewed costs the ring depth (bursts in flight) absorbs the imbalance.
  std::size_t next_worker = 0;
  for (std::size_t begin = 0; begin < count; begin += width) {
    feed(*lanes_[next_worker], begin, std::min(begin + width, count));
    next_worker = next_worker + 1 == lanes_.size() ? 0 : next_worker + 1;
  }

  {
    std::unique_lock<std::mutex> l(done_->m);
    done_->cv.wait(l, [this, total] {
      return done_->bursts.load(std::memory_order_acquire) == total;
    });
  }

  // First error by worker index, so the rethrown exception is deterministic.
  // Task errors are cleared so the pool stays usable; a lane whose factory
  // threw never got a task, so its error is permanent.
  std::exception_ptr first;
  for (auto& lane : lanes_) {
    if (lane->error != nullptr && first == nullptr) first = lane->error;
    if (!lane->factory_failed) lane->error = nullptr;
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void run_bursts(std::size_t count, std::size_t workers,
                const BurstTaskFactory& factory) {
  if (count == 0) return;
  if (workers <= 1) {
    const BurstTask task = factory(0);
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }

  // One-shot: a temporary pool scoped to this call. Callers with a steady
  // cadence of small batches hold a BurstPool instead.
  BurstPool pool(workers, factory);
  pool.run(count);
}

}  // namespace ftspan
