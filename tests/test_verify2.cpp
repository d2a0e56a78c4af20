#include "spanner2/verify2.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ftspan {
namespace {

std::vector<char> all_edges(const Digraph& g) {
  return std::vector<char>(g.num_edges(), 1);
}

TEST(SpannerTwoPaths, CountsOnlyCompletePaths) {
  Digraph g(4);
  const EdgeId a = g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  const EdgeId d = g.add_edge(2, 3);
  g.add_edge(0, 3);
  std::vector<char> in(g.num_edges(), 1);
  EXPECT_EQ(spanner_two_paths(g, in, 0, 3), 2u);
  in[a] = 0;  // breaks path via 1
  EXPECT_EQ(spanner_two_paths(g, in, 0, 3), 1u);
  in[d] = 0;  // breaks path via 2
  EXPECT_EQ(spanner_two_paths(g, in, 0, 3), 0u);
}

TEST(EdgeSatisfied, DirectMembershipSuffices) {
  Digraph g(2);
  const EdgeId e = g.add_edge(0, 1);
  std::vector<char> in{1};
  EXPECT_TRUE(edge_satisfied(g, in, e, 5));
  in[0] = 0;
  EXPECT_FALSE(edge_satisfied(g, in, e, 0));
}

TEST(IsFt2Spanner, WholeGraphAlwaysValid) {
  const Digraph g = di_gnp(15, 0.3, 3);
  EXPECT_TRUE(is_ft_2spanner(g, all_edges(g), 0));
  EXPECT_TRUE(is_ft_2spanner(g, all_edges(g), 3));
}

TEST(IsFt2Spanner, NeedsRPlusOnePaths) {
  // K_5 directed; drop edge (0,1). 3 midpoints remain.
  Digraph g = di_complete(5);
  std::vector<char> in = all_edges(g);
  in[*g.edge_id(0, 1)] = 0;
  EXPECT_TRUE(is_ft_2spanner(g, in, 2));   // 3 paths >= r+1 = 3
  EXPECT_FALSE(is_ft_2spanner(g, in, 3));  // needs 4 paths
}

TEST(UnsatisfiedEdges, ListsExactlyTheBrokenOnes) {
  Digraph g = di_complete(4);
  std::vector<char> in = all_edges(g);
  const EdgeId e01 = *g.edge_id(0, 1);
  const EdgeId e23 = *g.edge_id(2, 3);
  in[e01] = in[e23] = 0;
  // Each missing edge has 2 midpoints; r = 2 requires 3.
  auto bad = unsatisfied_edges(g, in, 2);
  EXPECT_EQ(bad.size(), 2u);
  EXPECT_TRUE(is_ft_2spanner(g, in, 1));
}

TEST(SpannerCost, SumsSelectedEdges) {
  Digraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(0, 2, 5.0);
  std::vector<char> in{1, 0, 1};
  EXPECT_DOUBLE_EQ(spanner_cost(g, in), 7.0);
}

// The heart of the module: Lemma 3.1's characterization agrees with the
// definition-level check (enumerating fault sets) on random instances.
class Lemma31Equivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, std::size_t, int>> {};

TEST_P(Lemma31Equivalence, CharacterizationMatchesDefinition) {
  const auto [n, p, r, seed] = GetParam();
  const Digraph g = di_gnp(n, p, static_cast<std::uint64_t>(seed));
  Rng rng(static_cast<std::uint64_t>(seed) * 17 + 1);
  // Random subsets of edges as candidate spanners.
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<char> in(g.num_edges());
    for (auto& b : in) b = rng.bernoulli(0.7) ? 1 : 0;
    EXPECT_EQ(is_ft_2spanner(g, in, r),
              is_ft_2spanner_by_definition(g, in, r))
        << "n=" << n << " p=" << p << " r=" << r << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Lemma31Equivalence,
    ::testing::Combine(::testing::Values<std::size_t>(6, 8, 10),
                       ::testing::Values(0.4, 0.8),
                       ::testing::Values<std::size_t>(0, 1, 2),
                       ::testing::Values(1, 2)));

TEST(DefinitionCheck, ThrowsOnHugeEnumeration) {
  const Digraph g = di_gnp(64, 0.1, 1);
  FtCheckOptions options;
  options.max_fault_sets = 1000;
  EXPECT_THROW(is_ft_2spanner_by_definition(g, all_edges(g), 10, options),
               std::runtime_error);
}

TEST(GreedyRepair, FixesEverything) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Digraph g = di_gnp(12, 0.4, seed);
    for (std::size_t r : {0u, 1u, 3u}) {
      std::vector<char> in(g.num_edges(), 0);
      greedy_repair(g, in, r);
      EXPECT_TRUE(is_ft_2spanner(g, in, r)) << "seed=" << seed << " r=" << r;
    }
  }
}

TEST(GreedyRepair, NoWorkWhenAlreadyValid) {
  const Digraph g = di_gnp(10, 0.4, 9);
  std::vector<char> in = all_edges(g);
  EXPECT_EQ(greedy_repair(g, in, 2), 0u);
}

TEST(GreedyRepair, PrefersCheapPathsOverExpensiveEdge) {
  // u->v costs 100; two unit 2-paths exist. r = 0: repair should complete a
  // path rather than buy the direct edge.
  Digraph g(4);
  const EdgeId direct = g.add_edge(0, 1, 100.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 1, 1.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(3, 1, 1.0);
  std::vector<char> in(g.num_edges(), 0);
  greedy_repair(g, in, 0);
  EXPECT_TRUE(is_ft_2spanner(g, in, 0));
  EXPECT_FALSE(in[direct]);
}

TEST(GreedyRepair, BuysEdgeWhenPathsInsufficient) {
  const Digraph g = gap_gadget(2, 100.0);  // only 2 midpoints, r = 2 needs 3
  std::vector<char> in(g.num_edges(), 0);
  greedy_repair(g, in, 2);
  EXPECT_TRUE(is_ft_2spanner(g, in, 2));
  EXPECT_TRUE(in[*g.edge_id(0, 1)]);
}

TEST(GreedyFt2Spanner, ValidAcrossR) {
  const Digraph g = di_complete(8);
  for (std::size_t r : {0u, 1u, 2u, 4u}) {
    const auto in = greedy_ft_2spanner(g, r);
    EXPECT_TRUE(is_ft_2spanner(g, in, r));
  }
}

TEST(DefinitionCheck, AgreesOnHandCraftedFaultScenario) {
  // The Lemma 3.1 proof scenario: H misses (u,v) and has exactly r paths;
  // failing all midpoints disconnects u,v in H but not in G.
  const std::size_t r = 2;
  Digraph g(2 + r + 1);  // u=0, v=1, mids 2..4 (r+1 = 3 midpoints in G)
  g.add_edge(0, 1);
  for (Vertex m = 2; m < 2 + r + 1; ++m) {
    g.add_edge(0, m);
    g.add_edge(m, 1);
  }
  std::vector<char> in(g.num_edges(), 1);
  in[0] = 0;  // drop (u,v): 3 = r+1 paths remain -> valid for r
  EXPECT_TRUE(is_ft_2spanner(g, in, r));
  EXPECT_TRUE(is_ft_2spanner_by_definition(g, in, r));
  // Drop one path's first arc: only r paths remain -> invalid.
  in[1] = 0;
  EXPECT_FALSE(is_ft_2spanner(g, in, r));
  EXPECT_FALSE(is_ft_2spanner_by_definition(g, in, r));
}

}  // namespace
}  // namespace ftspan
