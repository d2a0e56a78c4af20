// Fault-tolerant spanner validation through StretchOracle: fault-set
// counting, exact enumeration (verdict, witness, overflow cap), sampled
// checks, and FtCheckResult's worst-case bookkeeping.
#include "validate/stretch_oracle.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "spanner/greedy.hpp"

namespace ftspan {
namespace {

TEST(CountFaultSets, SmallValues) {
  EXPECT_EQ(count_fault_sets(5, 0), 1u);               // only ∅
  EXPECT_EQ(count_fault_sets(5, 1), 6u);               // ∅ + 5
  EXPECT_EQ(count_fault_sets(5, 2), 16u);              // 1 + 5 + 10
  EXPECT_EQ(count_fault_sets(4, 4), 16u);              // all subsets
  EXPECT_EQ(count_fault_sets(4, 10), 16u);             // r > n saturates at 2^n
}

TEST(CountFaultSets, SaturatesInsteadOfOverflowing) {
  EXPECT_GT(count_fault_sets(1000, 20), 1'000'000'000u);
}

TEST(CountFaultSets, BoundaryRZeroIsAlwaysOne) {
  // r = 0: only the empty fault set, for any n (including n = 0).
  EXPECT_EQ(count_fault_sets(0, 0), 1u);
  EXPECT_EQ(count_fault_sets(1, 0), 1u);
  EXPECT_EQ(count_fault_sets(1'000'000'000, 0), 1u);
}

TEST(CountFaultSets, BoundaryLargeNSmallR) {
  // Exact values stay exact as long as they fit: 1 + n + C(n, 2).
  const std::size_t n = 1'000'000;
  EXPECT_EQ(count_fault_sets(n, 1), n + 1);
  EXPECT_EQ(count_fault_sets(n, 2), 1 + n + n * (n - 1) / 2);
}

TEST(CountFaultSets, BoundaryRNearNSaturates) {
  // 2^64 and 2^64 - C(64, 64) both exceed the saturation cap, and once
  // saturated the count is monotone-stable: the same cap for every larger
  // argument.
  const std::size_t cap = count_fault_sets(64, 64);
  EXPECT_GT(cap, std::size_t{1} << 61);
  EXPECT_EQ(count_fault_sets(64, 63), cap);
  EXPECT_EQ(count_fault_sets(200, 199), cap);
  EXPECT_EQ(count_fault_sets(200, 200), cap);
  // r > n saturates at 2^n when that still fits...
  EXPECT_EQ(count_fault_sets(20, 1000), std::size_t{1} << 20);
  // ...and at the cap when it does not.
  EXPECT_EQ(count_fault_sets(80, 1000), cap);
}

TEST(StretchOracle, ExactCheckDetectsNonFaultTolerantSpanner) {
  // Star spanner of K_5 is a 2-spanner but dies with the center.
  const Graph g = complete(5);
  const Graph h = star(5);
  const StretchOracle oracle(g, h, 2.0);
  EXPECT_TRUE(oracle.check_exact(0).valid);
  const FtCheckResult res = oracle.check_exact(1);
  EXPECT_FALSE(res.valid);
  EXPECT_TRUE(res.witness_faults.contains(0));  // the center
}

TEST(StretchOracle, ExactCheckWitnessPairIsReal) {
  const Graph g = complete(6);
  const Graph h = star(6);
  const FtCheckResult res = StretchOracle(g, h, 3.0).check_exact(1);
  ASSERT_FALSE(res.valid);
  EXPECT_NE(res.witness_u, kInvalidVertex);
  EXPECT_NE(res.witness_v, kInvalidVertex);
  EXPECT_TRUE(g.has_edge(res.witness_u, res.witness_v));
  EXPECT_FALSE(res.witness_faults.contains(res.witness_u));
  EXPECT_FALSE(res.witness_faults.contains(res.witness_v));
}

TEST(StretchOracle, ExactCheckCustomCapIsReportedInMessage) {
  const Graph g = complete(10);
  FtCheckOptions options;
  options.max_fault_sets = 5;
  try {
    StretchOracle(g, g, 2.0).check_exact(2, options);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("n=10"), std::string::npos) << msg;
    EXPECT_NE(msg.find("r=2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("56"), std::string::npos) << msg;  // 1 + 10 + 45
    EXPECT_NE(msg.find("max_fault_sets=5"), std::string::npos) << msg;
  }
}

TEST(StretchOracle, SampledCheckAgreesWithExactOnValidSpanner) {
  const Graph g = complete(14);
  const auto ft = ft_greedy_spanner(g, 3.0, 1, 7);
  const Graph h = g.edge_subgraph(ft.edges);
  const StretchOracle oracle(g, h, 3.0);
  ASSERT_TRUE(oracle.check_exact(1).valid);
  EXPECT_TRUE(oracle.check_sampled(1, 200, 200, 5).valid);
}

TEST(FtCheckResult, ConsiderTracksWorst) {
  FtCheckResult res;
  res.witness_faults = VertexSet(4);
  VertexSet f(4, {1});
  res.consider(2.5, f, 0, 2, 3.0);
  EXPECT_TRUE(res.valid);  // 2.5 <= 3
  EXPECT_DOUBLE_EQ(res.worst_stretch, 2.5);
  VertexSet f2(4, {2});
  res.consider(3.5, f2, 0, 3, 3.0);
  EXPECT_FALSE(res.valid);
  EXPECT_EQ(res.witness_v, 3u);
  // A smaller stretch later does not overwrite the worst.
  res.consider(1.5, f, 0, 1, 3.0);
  EXPECT_DOUBLE_EQ(res.worst_stretch, 3.5);
}

}  // namespace
}  // namespace ftspan
