// Fault-tolerant spanner validation through StretchOracle: fault-set
// counting, exact enumeration (verdict, witness, overflow cap), sampled
// checks, and FtCheckResult's worst-case bookkeeping.
#include "validate/stretch_oracle.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftspanner/baselines.hpp"
#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "spanner/greedy.hpp"
#include "spanner2/formulation.hpp"

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

// The one enumeration behind every exact check, LP (2) and the
// union-over-faults baseline: by size, then lexicographically.
TEST(ForEachFaultSet, BySizeThenLexicographic) {
  std::vector<std::vector<Vertex>> seen;
  for_each_fault_set("test", /*edge_faults=*/false, 4, 2, 100,
                     [&seen](std::span<const Vertex> f) {
                       seen.emplace_back(f.begin(), f.end());
                     });
  const std::vector<std::vector<Vertex>> want = {
      {},     {0},    {1},    {2},    {3},    {0, 1},
      {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(seen.size(), count_fault_sets(4, 2));
}

// Every caller of the walk reports an overflow through
// throw_fault_set_overflow, naming itself, before enumerating anything.
TEST(ForEachFaultSet, OverflowNamesTheCallerBeforeAnySet) {
  const auto message = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  bool called = false;
  const std::string walk = message([&called] {
    for_each_fault_set("walk", /*edge_faults=*/false, 30, 4, 100,
                       [&called](std::span<const Vertex>) { called = true; });
  });
  EXPECT_FALSE(called);
  EXPECT_NE(walk.find("walk: too many vertex-fault sets"), std::string::npos)
      << walk;
  const std::string lp2 =
      message([] { solve_lp2_exact(di_complete(30), 4, 100); });
  EXPECT_NE(lp2.find("solve_lp2_exact: too many vertex-fault sets"),
            std::string::npos)
      << lp2;
  EXPECT_NE(lp2.find("max_fault_sets=100"), std::string::npos) << lp2;
  const BaseSpanner none = [](const Graph&, const VertexSet*, std::uint64_t) {
    return std::vector<EdgeId>();
  };
  const std::string union_faults = message(
      [&none] { union_over_faults_spanner(gnp(200, 0.05, 1), 5, none, 1); });
  EXPECT_NE(union_faults.find("union_over_faults_spanner: too many"),
            std::string::npos)
      << union_faults;
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
