// The fan-out executor: resolve_threads and BurstPool (lanes that claim
// indices one at a time from a shared cursor).
//
// This suite links tests/support/counting_allocator.cpp, whose counting
// allocation functions let the inline-loop test assert an exact allocation
// count of zero.
#include "pipeline/burst_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "support/counting_allocator.hpp"

namespace ftspan {
namespace {

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

/// Run sizes from empty through fewer indices than lanes to many per lane.
std::vector<std::size_t> run_counts(std::size_t workers) {
  return {0, 1, workers, 12, 64 * workers - 1, 64 * workers + 7};
}

/// Lane state that is just the lane's index.
std::size_t lane_index(std::size_t w) { return w; }

// Every index in [0, count) runs exactly once, on one lane or several, for
// runs smaller and larger than the lane count, and run after run of the
// same pool: each lane builds its state once, not once per run.
TEST(BurstPool, CoversEveryIndexExactlyOnceAcrossRuns) {
  for (const std::size_t workers : {1, 2, 4}) {
    std::atomic<std::size_t> builds{0};
    BurstPool<std::size_t> pool(workers, [&builds](std::size_t w) {
      builds.fetch_add(1, std::memory_order_relaxed);
      return w;
    });
    EXPECT_EQ(pool.workers(), workers);
    const std::vector<std::size_t> counts = run_counts(workers);
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

// Lanes balance at run time: a job that blocks holds up only its own lane.
// Index 0 waits until every other index has run; with indices pinned to
// lanes in advance, the indices queued behind it would never run and the
// wait would time out instead. The deadline turns a regression into a
// failure, not a hang.
TEST(BurstPool, ABlockedJobDoesNotHoldBackTheRest) {
  constexpr std::size_t kWorkers = 4, kCount = 64;
  BurstPool<std::size_t> pool(kWorkers, lane_index);
  std::atomic<std::size_t> others{0};
  std::atomic<bool> timed_out{false};
  pool.run(kCount, [&](std::size_t i, std::size_t&) {
    if (i != 0) {
      others.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (others.load(std::memory_order_relaxed) < kCount - 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(others.load(), kCount - 1);
}

// The rethrown error is the lowest throwing index's, not the first thrown:
// index 5 sleeps before it throws, so index 200 throws first on another
// lane, yet run() must rethrow index 5's error. On one lane the loop stops
// at index 5 and never reaches 200.
TEST(BurstPool, RethrowsTheLowestThrowingIndex) {
  for (const std::size_t workers : {1, 2, 4}) {
    BurstPool<std::size_t> pool(workers, lane_index);
    try {
      pool.run(1000, [](std::size_t i, std::size_t&) {
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("index 5");
        }
        if (i == 200) throw std::runtime_error("index 200");
      });
      ADD_FAILURE() << "run() did not throw, workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 5") << "workers=" << workers;
    }
  }
}

// Each lane builds its state on the thread that then runs its jobs: its
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

// A mid-stream throw must reach the caller, and the lanes must stop
// claiming and check out rather than leave the coordinator waiting. The
// throw poisons one run, not the pool: the next run succeeds.
TEST(BurstPool, JobExceptionPropagatesWithoutDeadlockAndRecovers) {
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
// runs still terminate — that lane claims nothing and still checks out.
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
// any thread count, whichever lane ran which iteration, for iteration
// counts below, at and well above the lane count.
TEST(BurstPool, ConversionUnionIsGeometryInvariant) {
  const Graph g = gnp(24, 0.3, 5);
  for (const std::size_t workers : {2, 3, 8})
    for (const std::size_t iters : run_counts(workers)) {
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
// check-out and the idle wait; these tests hammer that
// window from every shape the serve layer can produce (see the teardown
// contract in burst_pipeline.hpp). They are primarily TSan/ASan fodder: the
// assertions are thin on purpose — the property under test is "no data
// race, no deadlock, no touch-after-free during teardown".

// Destroy the pool the instant run() returns, while lanes are still
// leaving their check-out. Slow jobs widen the window; several
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

// A run that throws still waits for every lane to check out before
// rethrowing, so tearing the pool down right out of the catch block must be
// as safe as after a clean run — no lane may still hold an index whose job
// is gone.
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
