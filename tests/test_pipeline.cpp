// The dataplane pipeline: SpscRing (bounded lock-free SPSC queue),
// resolve_threads, and BurstPool (the burst-batched fan-out executor).
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

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
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

// --- resolve_threads -----------------------------------------------------

TEST(ResolveThreads, ZeroMeansHardware) {
  EXPECT_EQ(resolve_threads(0, 100000),
            std::min(hardware_threads(), kMaxWorkers));
}

TEST(ResolveThreads, ClampedToIterations) {
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(8, 0), 1u);  // never 0 workers
  EXPECT_EQ(resolve_threads(2, 1000), 2u);
}

TEST(ResolveThreads, BogusRequestHitsTheCeiling) {
  EXPECT_EQ(resolve_threads(static_cast<std::size_t>(-1), 1u << 20),
            kMaxWorkers);
}

// --- BurstPool -----------------------------------------------------------

/// The width the pool derives: full kDefaultBurst bursts from 16·workers
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

/// Lane state that is just the lane's index.
std::size_t lane_index(std::size_t w) { return w; }

// Every index in [0, count) runs exactly once, on one lane or several,
// whichever side of 16·workers the count falls on, and run after run of the
// same pool: each lane builds its state once, not once per run.
TEST(BurstPool, CoversEveryIndexExactlyOnceAcrossRuns) {
  for (const std::size_t workers : {1, 2, 4}) {
    std::atomic<std::size_t> builds{0};
    BurstPool<std::size_t> pool(workers, [&builds](std::size_t w) {
      builds.fetch_add(1, std::memory_order_relaxed);
      return w;
    });
    EXPECT_EQ(pool.workers(), workers);
    const std::vector<std::size_t> counts = counts_around_full_bursts(workers);
    std::vector<std::atomic<int>> hits(counts.back());
    for (const std::size_t count : counts) {
      for (auto& h : hits) h.store(0);
      pool.run(count, [&hits](std::size_t i, std::size_t&) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
            << "workers=" << workers << " count=" << count << " i=" << i;
    }
    EXPECT_EQ(builds.load(), workers);
  }
}

// Burst b goes to lane b % workers at the derived width: record who ran
// each index and check the round-robin layout directly, twice over the same
// pool.
TEST(BurstPool, LanePinningIsDeterministic) {
  for (const std::size_t workers : {1, 3}) {
    const std::vector<std::size_t> counts = counts_around_full_bursts(workers);
    std::vector<std::atomic<std::size_t>> ran_by(counts.back());
    BurstPool<std::size_t> pool(workers, lane_index);
    for (int round = 0; round < 2; ++round)
      for (const std::size_t count : counts) {
        for (auto& r : ran_by) r.store(SIZE_MAX);
        pool.run(count, [&ran_by](std::size_t i, std::size_t& w) {
          ran_by[i].store(w, std::memory_order_relaxed);
        });
        const std::size_t width = expected_width(count, workers);
        for (std::size_t i = 0; i < count; ++i)
          EXPECT_EQ(ran_by[i].load(), (i / width) % workers)
              << "workers=" << workers << " round=" << round
              << " count=" << count << " i=" << i;
      }
  }
}

// A fan-out smaller than one full burst per lane — the 12 fault sets of a
// small certification on 4 lanes — must still reach every lane instead of
// running as one burst on lane 0: four bursts of 3.
TEST(BurstPool, SmallRunReachesEveryLane) {
  constexpr std::size_t kCount = 12, kWorkers = 4;
  std::vector<std::atomic<std::size_t>> ran_by(kCount);
  BurstPool<std::size_t> pool(kWorkers, lane_index);
  pool.run(kCount, [&ran_by](std::size_t i, std::size_t& w) {
    ran_by[i].store(w, std::memory_order_relaxed);
  });
  std::vector<std::size_t> per_lane(kWorkers, 0);
  for (const auto& w : ran_by) ++per_lane[w.load()];
  EXPECT_EQ(per_lane, std::vector<std::size_t>(kWorkers, kCount / kWorkers));
}

// Each lane builds its state on the thread that then runs its bursts: its
// own thread, or with one lane the caller's.
TEST(BurstPool, LaneStateIsBuiltOnItsLanesThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t workers : {1, 3}) {
    BurstPool<std::thread::id> pool(
        workers, [](std::size_t) { return std::this_thread::get_id(); });
    std::atomic<int> foreign{0}, on_caller{0};
    pool.run(300, [&](std::size_t, std::thread::id& built_on) {
      if (built_on != std::this_thread::get_id()) foreign.fetch_add(1);
      if (built_on == caller) on_caller.fetch_add(1);
    });
    EXPECT_EQ(foreign.load(), 0) << "workers=" << workers;
    EXPECT_EQ(on_caller.load(), workers == 1 ? 300 : 0) << "workers=" << workers;
  }
}

// A mid-stream throw must reach the caller even though the coordinator
// keeps pushing bursts into the thrower's ring (the lane drains and
// discards them). 10000 indices on 2 lanes are ~312 full bursts per lane,
// several times the kRingCapacity-burst ring, so a stalled consumer would
// deadlock the feed. The throw poisons one run, not the pool: the next run
// succeeds.
TEST(BurstPool, JobExceptionPropagatesWithoutDeadlockAndRecovers) {
  static_assert(10000 / (2 * kDefaultBurst) > 4 * kRingCapacity);
  for (const std::size_t workers : {1, 2}) {
    BurstPool<std::size_t> pool(workers, lane_index);
    EXPECT_THROW(pool.run(10000,
                          [](std::size_t i, std::size_t&) {
                            if (i == 37) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    std::atomic<std::size_t> done{0};
    pool.run(100, [&done](std::size_t, std::size_t&) {
      done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 100u) << "workers=" << workers;
  }
}

// A make that throws leaves its lane without state: every run rethrows, but
// runs still terminate — the lane drains its feed without running it.
TEST(BurstPool, LaneStateFailurePropagatesOnEveryRun) {
  for (const std::size_t workers : {1, 2}) {
    BurstPool<std::size_t> pool(workers, [workers](std::size_t w) {
      if (w == workers - 1) throw std::runtime_error("make boom");
      return w;
    });
    const auto job = [](std::size_t, std::size_t&) {};
    EXPECT_THROW(pool.run(50, job), std::runtime_error);
    EXPECT_THROW(pool.run(50, job), std::runtime_error);
  }
}

// One lane runs inline: once its state exists, a run is a plain loop of
// job calls with no allocation at all.
TEST(BurstPool, InlineInnerLoopIsAllocationFree) {
  BurstPool<std::size_t> pool(1, lane_index);
  pool.run(1, [](std::size_t, std::size_t&) {});  // builds the lane's state
  std::size_t sum = 0;
  const std::size_t before = test::allocation_count();
  pool.run(100000, [&sum](std::size_t i, std::size_t&) { sum += i; });
  const std::size_t after = test::allocation_count();
  EXPECT_EQ(sum, std::size_t{100000} * 99999 / 2);
  EXPECT_EQ(after - before, 0u);
}

// The consumer contract the conversion relies on: its union is the same at
// any thread count, for iteration counts on both sides of 16·workers (so
// both finer and full bursts).
TEST(BurstPool, ConversionUnionIsGeometryInvariant) {
  const Graph g = gnp(24, 0.3, 5);
  for (const std::size_t workers : {2, 3, 8})
    for (const std::size_t iters : counts_around_full_bursts(workers)) {
      ConversionOptions opt;
      opt.iterations = iters;
      const ConversionResult want = ft_greedy_spanner(g, 3.0, 2, 11, opt);
      opt.threads = workers;
      const ConversionResult got = ft_greedy_spanner(g, 3.0, 2, 11, opt);
      EXPECT_EQ(got.edges, want.edges)
          << "workers=" << workers << " iters=" << iters;
      EXPECT_EQ(got.max_survivors, want.max_survivors);
      EXPECT_EQ(got.threads_used, resolve_threads(workers, iters));
    }
}

// --- BurstPool teardown --------------------------------------------------
//
// The pool's destructor runs while lane threads may still be between their
// last completion hand-off and the idle wait; these tests hammer that
// window from every shape the serve layer can produce (see the teardown
// contract in burst_pipeline.hpp). They are primarily TSan/ASan fodder: the
// assertions are thin on purpose — the property under test is "no data
// race, no deadlock, no touch-after-free during teardown".

// Destroy the pool the instant run() returns, while lanes are still
// draining out of their final notify. Slow jobs widen the window; several
// rounds make the interleaving vary.
TEST(BurstPool, DestructionImmediatelyAfterRunIsClean) {
  for (int round = 0; round < 8; ++round) {
    std::atomic<std::size_t> done{0};
    {
      BurstPool<std::size_t> pool(4, lane_index);
      pool.run(64, [&done](std::size_t, std::size_t&) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }  // ~BurstPool races the lanes' post-completion wind-down
    EXPECT_EQ(done.load(), 64u);
  }
}

// A run that throws still drains every burst before rethrowing, so tearing
// the pool down right out of the catch block must be as safe as after a
// clean run — no lane may still hold a burst whose job is gone.
TEST(BurstPool, DestructionAfterAThrowingRunIsClean) {
  for (int round = 0; round < 8; ++round) {
    bool threw = false;
    {
      BurstPool<std::size_t> pool(3, lane_index);
      try {
        pool.run(200, [](std::size_t i, std::size_t&) {
          if (i == 17) throw std::runtime_error("boom");
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
      } catch (const std::runtime_error&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw);
  }
}

// Construct-then-destroy with no run in between: the stop flag may be set
// before a lane has even reached its first idle wait (or built its state),
// and the join must still succeed.
TEST(BurstPool, DestructionWithoutAnyRunIsClean) {
  for (int round = 0; round < 16; ++round) {
    BurstPool<std::vector<int>> pool(
        4, [](std::size_t w) { return std::vector<int>(64, static_cast<int>(w)); });
  }
}

// The epoch-teardown shape: the pool is built and run on one thread, but
// the last owner drops it from another (a retired engine's final reference
// is released by whichever thread held it — for the serve daemon, possibly
// the reload worker). The destructor must not assume the coordinator's
// thread identity.
TEST(BurstPool, DestructionOnADifferentThreadIsClean) {
  std::atomic<std::size_t> done{0};
  auto pool = std::make_unique<BurstPool<std::size_t>>(3, lane_index);
  pool->run(100, [&done](std::size_t, std::size_t&) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 100u);
  std::thread reaper([p = std::move(pool)]() mutable { p.reset(); });
  reaper.join();
}

}  // namespace
}  // namespace ftspan
