#include "spanner2/rounding.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>

#include "graph/generators.hpp"
#include "spanner2/dk10_baseline.hpp"
#include "spanner2/verify2.hpp"

namespace ftspan {
namespace {

TEST(ThresholdRound, AlphaXAboveOneTakesEverything) {
  const Digraph g = di_complete(6);
  std::vector<double> x(g.num_edges(), 1.0);
  const auto in = threshold_round(g, x, 2.0, 1);
  for (char b : in) EXPECT_TRUE(b);
}

TEST(ThresholdRound, ZeroCapacityTakesNothing) {
  const Digraph g = di_complete(6);
  std::vector<double> x(g.num_edges(), 0.0);
  const auto in = threshold_round(g, x, 5.0, 1);
  for (char b : in) EXPECT_FALSE(b);
}

TEST(ThresholdRound, InclusionProbabilityScalesWithAlphaX) {
  const Digraph g = di_complete(30);
  std::vector<double> x(g.num_edges(), 0.05);
  const double alpha = 4.0;
  // Pr[edge kept] = Pr[min(Tu,Tv) <= 0.2] = 1 - 0.8² = 0.36.
  std::size_t kept = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto in = threshold_round(g, x, alpha, seed);
    for (char b : in) {
      kept += b;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / total, 0.36, 0.04);
}

TEST(ThresholdRound, DeterministicPerSeed) {
  const Digraph g = di_gnp(12, 0.4, 3);
  std::vector<double> x(g.num_edges(), 0.3);
  EXPECT_EQ(threshold_round(g, x, 2.0, 77), threshold_round(g, x, 2.0, 77));
}

TEST(ApproxFt2Spanner, ValidOnRandomInstances) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    const Digraph g = di_gnp(12, 0.4, seed);
    for (std::size_t r : {0u, 1u, 2u}) {
      const auto res = approx_ft_2spanner(g, r, seed * 5 + r);
      EXPECT_TRUE(res.valid) << "seed=" << seed << " r=" << r;
      EXPECT_TRUE(is_ft_2spanner(g, res.in_spanner, r));
      EXPECT_GE(res.cost, res.lp_value - 1e-6);  // LP is a lower bound
    }
  }
}

TEST(ApproxFt2Spanner, ApproximationFactorReasonable) {
  // Not the O(log n) proof — just a regression guard: cost within
  // 3 ln n of the LP lower bound on these instances.
  for (std::uint64_t seed : {3ull, 4ull}) {
    const Digraph g = di_gnp(14, 0.4, seed);
    const auto res = approx_ft_2spanner(g, 1, seed);
    ASSERT_TRUE(res.valid);
    ASSERT_GT(res.lp_value, 0.0);
    EXPECT_LT(res.cost / res.lp_value, 3.0 * std::log(14.0) + 1.0);
  }
}

TEST(ApproxFt2Spanner, GapGadgetBuysExpensiveEdge) {
  const Digraph g = gap_gadget(3, 50.0);
  const auto res = approx_ft_2spanner(g, 3, 7);
  ASSERT_TRUE(res.valid);
  EXPECT_TRUE(res.in_spanner[*g.edge_id(0, 1)]);
  // LP (4) already pays for the edge, so cost stays near OPT = M + 2r.
  EXPECT_LE(res.cost, 50.0 + 2.0 * 3 + 1e-6);
}

TEST(ApproxFt2Spanner, AlphaOverride) {
  const Digraph g = di_gnp(10, 0.5, 5);
  RoundingOptions opt;
  opt.alpha = 100.0;  // absurdly large: every positive-x edge is taken
  const auto res = approx_ft_2spanner(g, 1, 3, opt);
  EXPECT_DOUBLE_EQ(res.alpha, 100.0);
  EXPECT_TRUE(res.valid);
}

TEST(ApproxFt2Spanner, RepairKicksInAtTinyAlpha) {
  const Digraph g = di_gnp(12, 0.4, 9);
  RoundingOptions opt;
  opt.alpha = 1e-6;  // rounding alone will fail; repair must save validity
  opt.max_attempts = 2;
  const auto res = approx_ft_2spanner(g, 1, 3, opt);
  EXPECT_TRUE(res.valid);
  EXPECT_GT(res.repaired_edges, 0u);
}

TEST(Dk10Baseline, ValidAndUsesLargerAlpha) {
  const Digraph g = di_gnp(12, 0.4, 11);
  const std::size_t r = 3;
  const auto ours = approx_ft_2spanner(g, r, 1);
  const auto dk10 = dk10_ft_2spanner(g, r, 1);
  EXPECT_TRUE(ours.valid);
  EXPECT_TRUE(dk10.valid);
  // DK10 inflates by (r+1) ln n vs our ln n.
  EXPECT_NEAR(dk10.alpha / ours.alpha, static_cast<double>(r + 1), 1e-9);
}

TEST(Dk10Baseline, Lp3ValueAtMostLp4Value) {
  const Digraph g = di_gnp(12, 0.4, 13);
  const auto ours = approx_ft_2spanner(g, 2, 1);
  const auto dk10 = dk10_ft_2spanner(g, 2, 1);
  EXPECT_LE(dk10.lp_value, ours.lp_value + 1e-6);
}

// Algorithm 1's outputs, pinned bit for bit: an FNV-1a hash of in_spanner,
// the attempts, the repaired edges and the exact cost. A change to the
// retry-then-repair loop, or to how much of the Rng it consumes, moves them.
std::uint64_t spanner_hash(const std::vector<char>& in_spanner) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char b : in_spanner) {
    h ^= static_cast<unsigned char>(b);
    h *= 1099511628211ull;
  }
  return h;
}

struct RoundingPin {
  std::uint64_t hash;
  std::size_t attempts, repaired_edges;
  double cost;
};

void expect_pin(const TwoSpannerResult& res, const RoundingPin& want,
                const char* what) {
  EXPECT_TRUE(res.valid) << what;
  EXPECT_EQ(spanner_hash(res.in_spanner), want.hash) << what;
  EXPECT_EQ(res.attempts, want.attempts) << what;
  EXPECT_EQ(res.repaired_edges, want.repaired_edges) << what;
  EXPECT_EQ(res.cost, want.cost) << what;
}

TEST(Section3Pins, ApproxAndDk10OnTwoSeeds) {
  // At α = 0.8 the seeds disagree, most runs retry, and dk10's seed 1 runs
  // out of attempts and repairs: the pins see every draw the driver takes.
  const Digraph g = di_gnp(9, 0.6, 21, 3.0);
  const std::size_t r = 2;
  RoundingOptions opt;
  opt.alpha = 0.8;
  expect_pin(approx_ft_2spanner(g, r, 1, opt),
             {0x785e5b8f0654f578ull, 11, 0, 0x1.3df6740c5102ap+6},
             "approx seed 1");
  expect_pin(approx_ft_2spanner(g, r, 2, opt),
             {0x12f5e0475e03e21dull, 1, 0, 0x1.4247c65b08dffp+6},
             "approx seed 2");
  expect_pin(dk10_ft_2spanner(g, r, 1, opt),
             {0x46605bb516c249f4ull, 26, 11, 0x1.275cd7aa6f7b9p+6},
             "dk10 seed 1");
  expect_pin(dk10_ft_2spanner(g, r, 2, opt),
             {0xa291bb64e4f74a93ull, 4, 0, 0x1.2c91e84aa4fc7p+6},
             "dk10 seed 2");
}

TEST(Section3Pins, RepairPath) {
  const Digraph g = di_gnp(12, 0.4, 9, 3.0);
  RoundingOptions opt;
  opt.alpha = 1e-6;
  opt.max_attempts = 2;
  expect_pin(approx_ft_2spanner(g, 1, 3, opt),
             {0x005d530e58226637ull, 3, 46, 0x1.5874dcae41dccp+6},
             "approx repair");
  expect_pin(dk10_ft_2spanner(g, 1, 3, opt),
             {0x005d530e58226637ull, 3, 46, 0x1.5874dcae41dccp+6},
             "dk10 repair");
}

// The seed reaches the draws: on this instance at α = 0.6 seeds 1 and 2
// end in different spanners and attempt counts (seed 1 at its first draw,
// seed 2 repaired after every draw failed), so the test fails once
// round_until_valid stops drawing from the Rng it is handed. LP (4) is
// integral here, so each kept edge survives a draw with probability
// 1 - (1 - α)²; from α = 0.7 up, and at the default α, both seeds keep
// every edge at the first draw and cannot be told apart.
TEST(ApproxFt2Spanner, SeedsOneAndTwoDrawDifferently) {
  const Digraph g = di_gnp(12, 0.4, 21, 3.0);
  RoundingOptions opt;
  opt.alpha = 0.6;
  const TwoSpannerResult one = approx_ft_2spanner(g, 2, 1, opt);
  const TwoSpannerResult two = approx_ft_2spanner(g, 2, 2, opt);
  EXPECT_TRUE(one.valid);
  EXPECT_TRUE(two.valid);
  EXPECT_TRUE(spanner_hash(one.in_spanner) != spanner_hash(two.in_spanner) ||
              one.attempts != two.attempts)
      << "seeds 1 and 2 both: hash " << spanner_hash(one.in_spanner)
      << ", attempt " << one.attempts;
}

// Property sweep: the driver always returns a valid spanner.
class RoundingSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(RoundingSweep, AlwaysValid) {
  const auto [n, r, seed] = GetParam();
  const Digraph g = di_gnp(n, 0.45, static_cast<std::uint64_t>(seed), 3.0);
  const auto res = approx_ft_2spanner(g, r, static_cast<std::uint64_t>(seed));
  EXPECT_TRUE(res.valid);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RoundingSweep,
    ::testing::Combine(::testing::Values<std::size_t>(8, 12),
                       ::testing::Values<std::size_t>(0, 1, 3),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace ftspan
