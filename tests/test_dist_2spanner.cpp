#include "local/dist_2spanner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "graph/generators.hpp"
#include "spanner2/verify2.hpp"

namespace ftspan::local {
namespace {

using ftspan::Digraph;
using ftspan::di_gnp;
using ftspan::is_ft_2spanner;

TEST(CommunicationGraph, MergesArcPairs) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  const auto comm = communication_graph(g);
  EXPECT_EQ(comm.num_edges(), 2u);
  EXPECT_TRUE(comm.has_edge(0, 1));
  EXPECT_TRUE(comm.has_edge(1, 2));
}

TEST(ClusterLpValues, Lemma38HoldsOnSampledPartitions) {
  // Σ_C LP*(C) <= LP* for every partition (Lemma 3.8).
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Digraph g = di_gnp(12, 0.35, seed);
    const std::size_t r = 1;
    const auto full = ftspan::solve_lp4(g, r);
    ASSERT_EQ(full.status, ftspan::LpStatus::kOptimal);
    const auto comm = communication_graph(g);
    const auto d = sample_padded_decomposition(comm, seed * 7);
    const auto sum = cluster_lp_values(g, r, d);
    EXPECT_LE(sum.sum_cluster_values, full.value + 1e-5)
        << "seed=" << seed;
  }
}

TEST(DistFt2Spanner, ValidOnRandomInstances) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    const Digraph g = di_gnp(10, 0.4, seed);
    for (std::size_t r : {0u, 1u}) {
      const auto res = distributed_ft_2spanner(g, r, seed * 3 + r);
      EXPECT_TRUE(res.valid) << "seed=" << seed << " r=" << r;
      EXPECT_TRUE(is_ft_2spanner(g, res.in_spanner, r));
    }
  }
}

TEST(DistFt2Spanner, IterationCountIsLogarithmic) {
  const Digraph g = di_gnp(12, 0.4, 5);
  DistTwoSpannerOptions opt;
  opt.iteration_constant = 2.0;
  const auto res = distributed_ft_2spanner(g, 0, 7, opt);
  EXPECT_EQ(res.iterations,
            static_cast<std::size_t>(std::ceil(2.0 * std::log(12.0))));
}

TEST(DistFt2Spanner, XTildeCostBoundedByFourLpStar) {
  // Theorem 3.9's accounting: Σ c_e x̃_e <= 4 LP* (before the min with 1,
  // which can only lower it).
  for (std::uint64_t seed : {3ull, 4ull}) {
    const Digraph g = di_gnp(10, 0.45, seed);
    const std::size_t r = 1;
    const auto full = ftspan::solve_lp4(g, r);
    ASSERT_EQ(full.status, ftspan::LpStatus::kOptimal);
    const auto res = distributed_ft_2spanner(g, r, seed);
    EXPECT_LE(res.x_tilde_cost, 4.0 * full.value + 1e-5) << "seed=" << seed;
  }
}

TEST(DistFt2Spanner, RoundsPolylogarithmic) {
  const Digraph g = di_gnp(12, 0.4, 9);
  const auto res = distributed_ft_2spanner(g, 1, 11);
  const double ln_n = std::log(12.0);
  // t = O(log n) iterations x O(log n) rounds each, plus rounding rounds.
  EXPECT_LE(static_cast<double>(res.stats.rounds),
            60.0 * ln_n * ln_n + 40.0);
  EXPECT_GT(res.stats.rounds, res.iterations);  // at least 1 round/iteration
}

TEST(DistFt2Spanner, CostWithinLogFactorOfLp) {
  const Digraph g = di_gnp(12, 0.45, 13);
  const std::size_t r = 1;
  const auto full = ftspan::solve_lp4(g, r);
  ASSERT_EQ(full.status, ftspan::LpStatus::kOptimal);
  ASSERT_GT(full.value, 0.0);
  const auto res = distributed_ft_2spanner(g, r, 15);
  ASSERT_TRUE(res.valid);
  // Generous constant: 8 · 4 · ln n (4 from averaging, ln n from rounding).
  EXPECT_LT(res.cost / full.value, 32.0 * std::log(12.0));
}

// Algorithm 2's outputs, pinned bit for bit: an FNV-1a hash of in_spanner,
// the attempts, the repaired edges, the exact cost and the LOCAL rounds
// charged (one per rounding attempt on top of the decompositions).
std::uint64_t spanner_hash(const std::vector<char>& in_spanner) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char b : in_spanner) {
    h ^= static_cast<unsigned char>(b);
    h *= 1099511628211ull;
  }
  return h;
}

struct DistPin {
  std::uint64_t hash;
  std::size_t attempts, repaired_edges;
  double cost;
  std::size_t rounds;
};

void expect_pin(const DistTwoSpannerResult& res, const DistPin& want,
                const char* what) {
  EXPECT_TRUE(res.valid) << what;
  EXPECT_EQ(spanner_hash(res.in_spanner), want.hash) << what;
  EXPECT_EQ(res.attempts, want.attempts) << what;
  EXPECT_EQ(res.repaired_edges, want.repaired_edges) << what;
  EXPECT_EQ(res.cost, want.cost) << what;
  EXPECT_EQ(res.stats.rounds, want.rounds) << what;
}

TEST(Section3Pins, DistributedOutputs) {
  const Digraph g = di_gnp(10, 0.4, 21, 3.0);
  DistTwoSpannerOptions opt;
  opt.alpha = 0.7;  // the first valid draw is the fifth
  expect_pin(distributed_ft_2spanner(g, 1, 4, opt),
             {0xb3e44205ec634bfaull, 5, 0, 0x1.1f046d7b237edp+6, 215},
             "seed 4");
  opt.alpha = 1e-6;
  opt.max_attempts = 2;
  expect_pin(distributed_ft_2spanner(g, 1, 4, opt),
             {0xc4be5bf3f6d9461eull, 3, 35, 0x1.114d2d60d2441p+6, 213},
             "repair");
}

TEST(DistFt2Spanner, EmptyGraphTrivial) {
  Digraph g(5);
  const auto res = distributed_ft_2spanner(g, 2, 1);
  EXPECT_TRUE(res.valid);
  EXPECT_DOUBLE_EQ(res.cost, 0.0);
}

}  // namespace
}  // namespace ftspan::local
