#include "ftspanner/conversion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "graph/generators.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/greedy.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

TEST(ConversionIterations, MatchesFormula) {
  // alpha = ceil(c (r+2) ln n / q), q = keep² (1-keep)^r.
  // r = 2: keep 1/2, q = 1/16 -> ceil(4 ln 100 * 16) = 295.
  EXPECT_EQ(conversion_iterations(2, 100, 1.0), 295u);
  // r = 1: keep 1/2, q = 1/8 -> ceil(3 ln 100 * 8) = 111.
  EXPECT_EQ(conversion_iterations(1, 100, 1.0), 111u);
  // r = 0 is clamped to 1.
  EXPECT_EQ(conversion_iterations(0, 100, 1.0), conversion_iterations(1, 100, 1.0));
  // The constant scales linearly.
  EXPECT_EQ(conversion_iterations(2, 100, 2.0), 590u);
  // Θ(r³ log n): the ratio alpha(2r)/alpha(r) approaches 8.
  EXPECT_NEAR(static_cast<double>(conversion_iterations(8, 4096, 1.0)) /
                  static_cast<double>(conversion_iterations(4, 4096, 1.0)),
              8.0, 3.0);
}

TEST(Conversion, RejectsR0) {
  const Graph g = complete(5);
  EXPECT_THROW(ft_greedy_spanner(g, 3.0, 0, 1), std::invalid_argument);
}

// Both fault models' entry points refuse a k that is not finite or is below
// 1, a c that is not finite or is <= 0, and an iteration count past size_t,
// before sampling anything (RejectsR0 and EdgeFt.RejectsR0 cover r = 0).
TEST(Conversion, BothEntryPointsRejectInvalidArguments) {
  const Graph g = complete(6);
  using Entry = ConversionResult (*)(const Graph&, double, std::size_t,
                                     std::uint64_t, const ConversionOptions&);
  const double nan = std::nan("");
  for (const Entry convert : {Entry{ft_greedy_spanner},
                              Entry{ft_edge_greedy_spanner}}) {
    const ConversionOptions ok;
    for (const double k : {nan, kInfiniteWeight, 0.5})
      EXPECT_THROW(convert(g, k, 1, 1, ok), std::invalid_argument) << k;
    for (const double c : {nan, kInfiniteWeight, 0.0, -1.0}) {
      ConversionOptions opt;
      opt.iteration_constant = c;
      EXPECT_THROW(convert(g, 3.0, 1, 1, opt), std::invalid_argument) << c;
    }
    // r = 10^10 asks for ~10^20 edge-fault (and far more vertex-fault)
    // iterations.
    EXPECT_THROW(convert(g, 3.0, 10'000'000'000, 1, ok),
                 std::invalid_argument);
    ConversionOptions low;
    low.iteration_constant = 0.05;  // below the proof constant is allowed
    EXPECT_NO_THROW(convert(g, 3.0, 1, 1, low));
  }
  EXPECT_THROW(conversion_iterations(2, 100, nan), std::invalid_argument);
  EXPECT_THROW(edge_conversion_iterations(2, 100, -1.0), std::invalid_argument);

  // A custom base is never called when the arguments are rejected.
  std::size_t calls = 0;
  const BaseSpanner base = [&calls](const Graph& h, const VertexSet* mask,
                                    std::uint64_t) {
    ++calls;
    return greedy_spanner(h, 3.0, mask);
  };
  ConversionOptions bad_c;
  bad_c.iteration_constant = -1.0;
  EXPECT_THROW(fault_tolerant_spanner(g, 1, base, 1, bad_c),
               std::invalid_argument);
  EXPECT_EQ(calls, 0u);
}

TEST(Conversion, KeepProbabilityMatchesPaper) {
  const Graph g = complete(12);
  ConversionOptions opt;
  opt.iterations = 1;
  EXPECT_DOUBLE_EQ(ft_greedy_spanner(g, 3.0, 1, 1, opt).keep_probability, 0.5);
  EXPECT_DOUBLE_EQ(ft_greedy_spanner(g, 3.0, 2, 1, opt).keep_probability, 0.5);
  EXPECT_DOUBLE_EQ(ft_greedy_spanner(g, 3.0, 4, 1, opt).keep_probability, 0.25);
}

TEST(Conversion, OneFaultCompleteGraphIsFtValid) {
  const Graph g = complete(14);
  const auto res = ft_greedy_spanner(g, 3.0, 1, 42);
  const Graph h = g.edge_subgraph(res.edges);
  const auto check = StretchOracle(g, h, 3.0).check_exact(1);
  EXPECT_TRUE(check.valid) << "worst stretch " << check.worst_stretch;
}

TEST(Conversion, TwoFaultsGnpIsFtValid) {
  const Graph g = gnp(18, 0.5, 7);
  const auto res = ft_greedy_spanner(g, 3.0, 2, 43);
  const Graph h = g.edge_subgraph(res.edges);
  const auto check = StretchOracle(g, h, 3.0).check_exact(2);
  EXPECT_TRUE(check.valid) << "worst stretch " << check.worst_stretch;
}

TEST(Conversion, PlainGreedyFailsWhereConversionHolds) {
  // Sanity for the whole exercise: a non-FT spanner of K_n (a star-ish
  // greedy output) is NOT 1-fault tolerant, while the conversion output is.
  const Graph g = complete(12);
  const Graph plain = greedy_spanner_graph(g, 3.0);
  EXPECT_FALSE(StretchOracle(g, plain, 3.0).check_exact(1).valid);

  const auto res = ft_greedy_spanner(g, 3.0, 1, 44);
  const Graph h = g.edge_subgraph(res.edges);
  EXPECT_TRUE(StretchOracle(g, h, 3.0).check_exact(1).valid);
}

TEST(Conversion, SizeWithinCorollaryBound) {
  const Graph g = gnp(60, 0.4, 11);
  const auto res = ft_greedy_spanner(g, 3.0, 2, 45);
  // Corollary 2.2 with a generous constant (and never more than all edges).
  EXPECT_LE(res.edges.size(), g.num_edges());
  EXPECT_LT(static_cast<double>(res.edges.size()),
            8.0 * corollary22_size_bound(60, 3.0, 2));
}

TEST(Conversion, IterationOverrideHonored) {
  const Graph g = complete(10);
  ConversionOptions opt;
  opt.iterations = 5;
  const auto res = ft_greedy_spanner(g, 3.0, 3, 46, opt);
  EXPECT_EQ(res.iterations, 5u);
}

TEST(Conversion, MaxSurvivorsTracksOversampling) {
  const Graph g = complete(64);
  ConversionOptions opt;
  opt.iterations = 50;
  const auto res = ft_greedy_spanner(g, 3.0, 4, 47, opt);
  // keep prob 1/4: survivors should hover near 16, certainly below 2n/r = 32
  // in most iterations (the proof's Chernoff bound); max over 50 iterations
  // stays below n.
  EXPECT_GT(res.max_survivors, 4u);
  EXPECT_LT(res.max_survivors, 40u);
}

TEST(Conversion, WorksWithBaswanaSenBase) {
  const Graph g = gnp(16, 0.6, 13);
  const BaseSpanner base = [](const Graph& graph, const VertexSet* mask,
                              std::uint64_t seed) {
    return baswana_sen_spanner(graph, 2, seed, mask);
  };
  const auto res = fault_tolerant_spanner(g, 1, base, 48);
  const Graph h = g.edge_subgraph(res.edges);
  const auto check = StretchOracle(g, h, 3.0).check_exact(1);
  EXPECT_TRUE(check.valid) << "worst stretch " << check.worst_stretch;
}

TEST(Conversion, DeterministicPerSeed) {
  const Graph g = gnp(20, 0.4, 3);
  ConversionOptions opt;
  opt.iterations = 20;
  const auto a = ft_greedy_spanner(g, 3.0, 2, 99, opt);
  const auto b = ft_greedy_spanner(g, 3.0, 2, 99, opt);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(SizeBounds, Clpr09GrowsExponentiallyInR) {
  // The point of Theorem 1.1: poly vs exponential r-dependence.
  const double ours_r2 = corollary22_size_bound(1000, 3.0, 2);
  const double ours_r8 = corollary22_size_bound(1000, 3.0, 8);
  const double clpr_r2 = clpr09_size_bound(1000, 3.0, 2);
  const double clpr_r8 = clpr09_size_bound(1000, 3.0, 8);
  const double ours_growth = ours_r8 / ours_r2;
  const double clpr_growth = clpr_r8 / clpr_r2;
  EXPECT_LT(ours_growth, 10.0);     // ~ (8/2)^{3/2} = 8
  EXPECT_GT(clpr_growth, 1000.0);   // ~ 16 * 2^6 * ... — exponential in r
}

// Property sweep: validity across (n, r, k) for exact-checkable sizes.
class ConversionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(ConversionSweep, ExactlyFaultTolerant) {
  const auto [n, r, k] = GetParam();
  const Graph g = gnp(n, 0.6, 100 + n + r);
  const auto res = ft_greedy_spanner(g, k, r, 1000 + n * r);
  const Graph h = g.edge_subgraph(res.edges);
  const auto check = StretchOracle(g, h, k).check_exact(r);
  EXPECT_TRUE(check.valid)
      << "n=" << n << " r=" << r << " k=" << k << " stretch "
      << check.worst_stretch;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConversionSweep,
    ::testing::Combine(::testing::Values<std::size_t>(10, 14),
                       ::testing::Values<std::size_t>(1, 2),
                       ::testing::Values(3.0, 5.0)));

}  // namespace
}  // namespace ftspan
