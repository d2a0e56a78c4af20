// The dataplane pipeline: SpscRing (bounded lock-free SPSC queue) and
// run_bursts (the burst-batched fan-out driver).
//
// This suite links tests/support/counting_allocator.cpp, whose counting
// allocation functions let the steady-state ring tests assert an exact
// allocation count of zero.
#include "pipeline/burst_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ftspanner/parallel.hpp"
#include "serve/query.hpp"
#include "support/counting_allocator.hpp"
#include "util/spsc_ring.hpp"

namespace ftspan {
namespace {

// --- SpscRing ------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, FullAndEmptyAreReportedExactly) {
  SpscRing<int> ring(4);
  int out = 0;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_TRUE(ring.empty());
}

// Push/pop far beyond the capacity: the 64-bit positions mask down into the
// slot array, so order must survive arbitrarily many wraps.
TEST(SpscRing, WraparoundPreservesFifoOrder) {
  SpscRing<int> ring(4);
  int next_push = 0, next_pop = 0, out = 0;
  for (int round = 0; round < 1000; ++round) {
    // Vary the fill level so head/tail cross the slot boundary at every
    // possible phase.
    const int batch = 1 + round % 4;
    for (int i = 0; i < batch; ++i) ASSERT_TRUE(ring.try_push(next_push++));
    for (int i = 0; i < batch; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(out, next_pop++);
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, SteadyStateOperationsAreAllocationFree) {
  SpscRing<int> ring(8);
  const std::size_t before = test::allocation_count();
  int out = 0;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ASSERT_TRUE(ring.try_pop(out));
  }
  const std::size_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u);
}

// The actual SPSC contract: one producer thread, one consumer thread, no
// locks. The consumer must observe every value exactly once, in order.
TEST(SpscRing, ConcurrentProducerConsumerDeliversInOrder) {
  constexpr std::uint64_t kCount = 200000;
  SpscRing<std::uint64_t> ring(16);
  std::atomic<bool> failed{false};

  std::thread consumer([&] {
    std::uint64_t expect = 0, v = 0;
    while (expect < kCount) {
      if (!ring.try_pop(v)) {
        std::this_thread::yield();
        continue;
      }
      if (v != expect) {
        failed.store(true);
        return;
      }
      ++expect;
    }
  });

  for (std::uint64_t i = 0; i < kCount; ++i)
    while (!ring.try_push(i)) std::this_thread::yield();
  consumer.join();
  EXPECT_FALSE(failed.load());
}

// The degenerate geometry: one slot. Full after one push, empty after one
// pop — the boundary where an off-by-one in the masked positions would make
// full and empty indistinguishable.
TEST(SpscRing, CapacityOneAlternatesFullAndEmpty) {
  SpscRing<int> ring(1);
  ASSERT_EQ(ring.capacity(), 1u);
  int out = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ring.empty());
    ASSERT_TRUE(ring.try_push(i));
    EXPECT_FALSE(ring.empty());
    EXPECT_FALSE(ring.try_push(-1));  // full at depth 1
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
    EXPECT_FALSE(ring.try_pop(out));
  }
}

// empty() is consumer-side state plus one acquire load of the producer's
// tail — safe to call while the producer is pushing. Run it hot against a
// live producer so TSan can vet the claim; the only invariant it must hold
// is "false implies try_pop succeeds" (from the single consumer's view,
// non-empty cannot become empty without a pop).
TEST(SpscRing, EmptyIsSafeAgainstAConcurrentProducer) {
  constexpr std::uint64_t kCount = 100000;
  SpscRing<std::uint64_t> ring(8);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i)
      while (!ring.try_push(i)) std::this_thread::yield();
  });

  std::uint64_t expect = 0, v = 0;
  while (expect < kCount) {
    if (ring.empty()) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_TRUE(ring.try_pop(v));  // non-empty must imply a poppable item
    ASSERT_EQ(v, expect);
    ++expect;
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// The serve daemon's request/response payloads ride rings between the event
// loop and the worker lanes; pin that the non-trivial types (heap-owning
// vectors) move through a ring intact under the real two-thread contract.
TEST(SpscRing, CarriesServeQueryPayloadsAcrossThreads) {
  constexpr std::uint64_t kCount = 20000;
  SpscRing<serve::ServeQuery> ring(4);
  std::atomic<bool> failed{false};

  std::thread consumer([&] {
    serve::ServeQuery q;
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_pop(q)) std::this_thread::yield();
      const auto v = static_cast<Vertex>(i % 97);
      if (q.s != v || q.t != v + 1 || q.avoid_vertices.size() != i % 3 ||
          q.avoid_edges.size() != i % 2) {
        failed.store(true);
        return;
      }
    }
  });

  for (std::uint64_t i = 0; i < kCount; ++i) {
    serve::ServeQuery q;
    q.s = static_cast<Vertex>(i % 97);
    q.t = q.s + 1;
    q.avoid_vertices.assign(i % 3, q.s);
    q.avoid_edges.assign(i % 2, {q.s, q.t});
    while (!ring.try_push(q)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_FALSE(failed.load());
}

// --- run_bursts ----------------------------------------------------------

/// The width run_bursts derives: full kDefaultBurst bursts from 16·workers
/// indices on, finer ones below (pipeline/burst_pipeline.hpp).
std::size_t expected_width(std::size_t count, std::size_t workers) {
  return std::min(kDefaultBurst, (count + workers - 1) / workers);
}

/// Counts on both sides of the 16·workers point where the derived width
/// stops shrinking.
std::vector<std::size_t> counts_around_full_bursts(std::size_t workers) {
  const std::size_t full = kDefaultBurst * workers;
  return {0, 1, workers, 12, full - 1, full, full + 1, 4 * full + 7};
}

// Every index in [0, count) must run exactly once, whatever the worker count
// and whichever side of 16·workers the count falls on (finer bursts below,
// full bursts above).
TEST(RunBursts, CoversEveryIndexExactlyOnce) {
  for (const std::size_t workers : {1, 2, 4})
    for (const std::size_t count : counts_around_full_bursts(workers)) {
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) h.store(0);
      run_bursts(count, workers, [&hits](std::size_t) -> BurstTask {
        return [&hits](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        };
      });
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i].load(), 1)
            << "count=" << count << " workers=" << workers << " i=" << i;
    }
}

TEST(RunBursts, WorkerPinningIsDeterministic) {
  // Burst b goes to worker b % workers: record who ran each index and check
  // the round-robin layout directly, at the derived width.
  constexpr std::size_t kWorkers = 3;
  for (const std::size_t count : counts_around_full_bursts(kWorkers)) {
    std::vector<std::atomic<std::size_t>> ran_by(count);
    for (auto& r : ran_by) r.store(SIZE_MAX);
    run_bursts(count, kWorkers, [&ran_by](std::size_t w) -> BurstTask {
      return [&ran_by, w](std::size_t i) {
        ran_by[i].store(w, std::memory_order_relaxed);
      };
    });
    const std::size_t width = expected_width(count, kWorkers);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(ran_by[i].load(), (i / width) % kWorkers)
          << "count=" << count << " i=" << i;
  }
}

// A fan-out smaller than one full burst per worker — the 12 fault sets of a
// small certification on 4 workers — must still reach every lane instead of
// running as one burst on lane 0.
TEST(RunBursts, SmallFanOutReachesEveryLane) {
  constexpr std::size_t kCount = 12, kWorkers = 4;
  std::vector<std::atomic<std::size_t>> ran_by(kCount);
  run_bursts(kCount, kWorkers, [&ran_by](std::size_t w) -> BurstTask {
    return [&ran_by, w](std::size_t i) {
      ran_by[i].store(w, std::memory_order_relaxed);
    };
  });
  std::vector<std::size_t> per_lane(kWorkers, 0);
  for (const auto& w : ran_by) ++per_lane[w.load()];
  EXPECT_EQ(per_lane, std::vector<std::size_t>(kWorkers, kCount / kWorkers));
}

TEST(RunBursts, TaskExceptionPropagatesWithoutDeadlock) {
  // A mid-stream throw must reach the caller even though the coordinator
  // keeps pushing bursts into the thrower's ring (the worker drains and
  // discards them). 10000 indices on 2 workers are ~312 full bursts per
  // lane, several times the kRingCapacity-burst ring, so a stalled consumer
  // would deadlock the feed.
  static_assert(10000 / (2 * kDefaultBurst) > 4 * kRingCapacity);
  EXPECT_THROW(run_bursts(10000, 2,
                          [](std::size_t) -> BurstTask {
                            return [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            };
                          }),
               std::runtime_error);
}

TEST(RunBursts, FactoryExceptionPropagates) {
  EXPECT_THROW(run_bursts(100, 2,
                          [](std::size_t w) -> BurstTask {
                            if (w == 1)
                              throw std::runtime_error("factory boom");
                            return [](std::size_t) {};
                          }),
               std::runtime_error);
}

// The consumer contract the conversion engine relies on: union_iterations
// over the burst pipeline produces the same marks as the sequential loop,
// for every worker count and on both sides of 16·workers iterations.
TEST(RunBursts, UnionIterationsIsGeometryInvariant) {
  constexpr std::size_t kEdges = 512;
  const IterationBodyFactory factory = [](std::size_t) -> IterationBody {
    return [](std::size_t it, std::vector<char>& marks) {
      // A deterministic, iteration-dependent scatter.
      for (std::size_t j = 0; j < 16; ++j)
        marks[(it * 31 + j * 97) % kEdges] = 1;
    };
  };
  for (const std::size_t workers : {2, 3, 8})
    for (const std::size_t iters : counts_around_full_bursts(workers)) {
      const std::vector<char> want = union_iterations(iters, 1, kEdges, factory);
      EXPECT_EQ(union_iterations(iters, workers, kEdges, factory), want)
          << "workers=" << workers << " iters=" << iters;
    }
}

// The burst inner loop itself must not allocate: after the factory has built
// the per-worker state, processing indices is ring pops + task calls only.
TEST(RunBursts, SingleWorkerInnerLoopIsAllocationFree) {
  std::size_t sum = 0, before = 0, after = 0;
  run_bursts(100000, 1, [&](std::size_t) -> BurstTask {
    before = test::allocation_count();
    return [&sum](std::size_t i) { sum += i; };
  });
  after = test::allocation_count();
  EXPECT_GT(sum, 0u);
  // The one allowance: materializing the returned BurstTask (a
  // std::function) may allocate once outside the loop.
  EXPECT_LE(after - before, 1u);
}

// --- BurstPool -----------------------------------------------------------

// The persistent pool must behave exactly like run_bursts call after call:
// the factory runs once per worker (not once per run), and every run covers
// its indices exactly once.
TEST(BurstPool, ReusesLanesAcrossRuns) {
  constexpr std::size_t kWorkers = 3;
  std::atomic<std::size_t> factory_calls{0};
  std::vector<std::atomic<int>> hits(257);
  BurstPool pool(kWorkers, [&](std::size_t) -> BurstTask {
    factory_calls.fetch_add(1, std::memory_order_relaxed);
    return [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    };
  });
  EXPECT_EQ(pool.workers(), kWorkers);

  const std::size_t counts[] = {1, 64, 257, 7, 0, 100};
  int rounds = 0;
  for (const std::size_t count : counts) {
    for (auto& h : hits) h.store(0);
    pool.run(count);
    ++rounds;
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
          << "round=" << rounds << " count=" << count << " i=" << i;
  }
  EXPECT_EQ(factory_calls.load(), kWorkers);
}

// A task exception poisons one run, not the pool: run() rethrows, then the
// next run must succeed (the error slot is cleared).
TEST(BurstPool, RecoversAfterATaskException) {
  std::atomic<bool> armed{true};
  std::atomic<std::size_t> done{0};
  BurstPool pool(2, [&](std::size_t) -> BurstTask {
    return [&](std::size_t i) {
      if (armed.load(std::memory_order_relaxed) && i == 13)
        throw std::runtime_error("boom");
      done.fetch_add(1, std::memory_order_relaxed);
    };
  });
  EXPECT_THROW(pool.run(100), std::runtime_error);
  armed.store(false);
  done.store(0);
  pool.run(100);
  EXPECT_EQ(done.load(), 100u);
}

// A factory that throws poisons its lane permanently: every run rethrows
// (the lane never got a task), but runs still terminate — the lane drains
// its feed without executing it.
TEST(BurstPool, FactoryFailurePoisonsEveryRun) {
  BurstPool pool(2, [](std::size_t w) -> BurstTask {
    if (w == 1) throw std::runtime_error("factory boom");
    return [](std::size_t) {};
  });
  EXPECT_THROW(pool.run(50), std::runtime_error);
  EXPECT_THROW(pool.run(50), std::runtime_error);
}

// --- BurstPool teardown --------------------------------------------------
//
// The pool's destructor runs while worker threads may still be between
// their last completion hand-off and the idle wait; these tests hammer that
// window from every shape the serve layer can produce (see the teardown
// contract in burst_pipeline.hpp). They are primarily TSan/ASan fodder: the
// assertions are thin on purpose — the property under test is "no data
// race, no deadlock, no touch-after-free during teardown".

// Destroy the pool the instant run() returns, while workers are still
// draining out of their final notify. Slow tasks widen the window; several
// rounds make the interleaving vary.
TEST(BurstPool, DestructionImmediatelyAfterRunIsClean) {
  for (int round = 0; round < 8; ++round) {
    std::atomic<std::size_t> done{0};
    {
      BurstPool pool(4, [&done](std::size_t) -> BurstTask {
        return [&done](std::size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          done.fetch_add(1, std::memory_order_relaxed);
        };
      });
      pool.run(64);
    }  // ~BurstPool races the workers' post-completion wind-down
    EXPECT_EQ(done.load(), 64u);
  }
}

// A run that throws still drains every burst before rethrowing, so tearing
// the pool down right out of the catch block must be as safe as after a
// clean run — no worker may still hold a burst whose task state is gone.
TEST(BurstPool, DestructionAfterAThrowingRunIsClean) {
  for (int round = 0; round < 8; ++round) {
    bool threw = false;
    {
      BurstPool pool(3, [](std::size_t) -> BurstTask {
        return [](std::size_t i) {
          if (i == 17) throw std::runtime_error("boom");
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        };
      });
      try {
        pool.run(200);
      } catch (const std::runtime_error&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw);
  }
}

// Construct-then-destroy with no run in between: the stop flag may be set
// before a worker has even reached its first idle wait (or run its
// factory), and the join must still succeed.
TEST(BurstPool, DestructionWithoutAnyRunIsClean) {
  for (int round = 0; round < 16; ++round) {
    BurstPool pool(4, [](std::size_t) -> BurstTask {
      return [](std::size_t) {};
    });
  }
}

// The epoch-teardown shape: the pool is built and run on one thread, but
// the last owner drops it from another (a retired engine's final reference
// is released by whichever thread held it — for the serve daemon, possibly
// the reload worker). The destructor must not assume the coordinator's
// thread identity.
TEST(BurstPool, DestructionOnADifferentThreadIsClean) {
  std::atomic<std::size_t> done{0};
  auto pool = std::make_unique<BurstPool>(3, [&done](std::size_t) -> BurstTask {
    return [&done](std::size_t) {
      done.fetch_add(1, std::memory_order_relaxed);
    };
  });
  pool->run(100);
  EXPECT_EQ(done.load(), 100u);
  std::thread reaper([p = std::move(pool)]() mutable { p.reset(); });
  reaper.join();
}

// Same deterministic distribution as run_bursts: burst b -> worker
// b % workers at the derived width, stable across runs of the same pool.
TEST(BurstPool, WorkerPinningMatchesRunBursts) {
  constexpr std::size_t kWorkers = 3;
  const std::vector<std::size_t> counts = counts_around_full_bursts(kWorkers);
  std::vector<std::atomic<std::size_t>> ran_by(counts.back());
  BurstPool pool(kWorkers, [&ran_by](std::size_t w) -> BurstTask {
    return [&ran_by, w](std::size_t i) {
      ran_by[i].store(w, std::memory_order_relaxed);
    };
  });
  for (int round = 0; round < 2; ++round)
    for (const std::size_t count : counts) {
      for (auto& r : ran_by) r.store(SIZE_MAX);
      pool.run(count);
      const std::size_t width = expected_width(count, kWorkers);
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(ran_by[i].load(), (i / width) % kWorkers)
            << "round=" << round << " count=" << count << " i=" << i;
    }
}

// The persistent pool derives the same width: 12 indices on 4 lanes run as
// four bursts of 3, one per lane.
TEST(BurstPool, SmallRunReachesEveryLane) {
  constexpr std::size_t kCount = 12, kWorkers = 4;
  std::vector<std::atomic<std::size_t>> ran_by(kCount);
  BurstPool pool(kWorkers, [&ran_by](std::size_t w) -> BurstTask {
    return [&ran_by, w](std::size_t i) {
      ran_by[i].store(w, std::memory_order_relaxed);
    };
  });
  pool.run(kCount);
  std::vector<std::size_t> per_lane(kWorkers, 0);
  for (const auto& w : ran_by) ++per_lane[w.load()];
  EXPECT_EQ(per_lane, std::vector<std::size_t>(kWorkers, kCount / kWorkers));
}

}  // namespace
}  // namespace ftspan
