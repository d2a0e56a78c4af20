// E7 — Theorem 3.4: O(log Δ)-approximation for unit costs via the
// constructive Lovász Local Lemma.
//
// Regime of the theorem: Δ fixed, n growing — then α = C ln Δ stays flat
// while the log n rounding's α grows. Workload: b disjoint copies of the
// complete digraph K_m (Δ = m-1 fixed, n = b·m, every edge has m-2
// two-paths, so there is genuine rounding freedom). LP (4) decomposes
// exactly over components, so we solve one block and replicate its
// (symmetric) solution — the full-graph LP* is b times the block value.
//
// Secondary table: sparse bounded-degree digraphs, where LP (4) is already
// integral and both roundings coincide (a consistency check, not a
// separation).
#include <cstdio>

#include "graph/generators.hpp"
#include "spanner2/lll.hpp"
#include "spanner2/rounding.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ftspan;

namespace {

Digraph k_blocks(std::size_t blocks, std::size_t m) {
  Digraph g(blocks * m);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j)
        if (i != j)
          g.add_edge(static_cast<Vertex>(b * m + i),
                     static_cast<Vertex>(b * m + j));
  return g;
}

}  // namespace

int main() {
  std::printf("# E7: LLL rounding (alpha = ln Delta) vs log-n rounding\n");

  {
    const std::size_t m = 8;  // Delta = 7, fixed
    const std::size_t r = 1;
    const Digraph block = di_complete(m);
    const auto block_lp = solve_lp4(block, r);

    banner("b disjoint K_8 blocks (Delta = 7 fixed, n grows), r = 1, 3 seeds");
    Table t({"blocks", "n", "m edges", "LP*", "LLL-alpha cost", "logn-alpha cost",
             "LLL/LP", "logn/LP", "a=ln D", "a=ln n"});
    for (const std::size_t blocks : {3u, 6u, 12u, 24u}) {
      const Digraph g = k_blocks(blocks, m);
      const std::size_t n = g.num_vertices();
      // Replicate the block solution (LP (4) decomposes over components).
      std::vector<double> x(g.num_edges());
      for (EdgeId id = 0; id < g.num_edges(); ++id)
        x[id] = block_lp.x[id % block.num_edges()];
      const double lp_star = block_lp.value * static_cast<double>(blocks);

      const double a_lll = std::log(static_cast<double>(m - 1));
      const double a_logn = std::log(static_cast<double>(n));
      const std::size_t attempts = RoundingOptions{}.max_attempts;
      Stats lll_cost, logn_cost;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 977);
        lll_cost.add(round_until_valid(g, x, a_lll, r, attempts, rng).cost);
        logn_cost.add(round_until_valid(g, x, a_logn, r, attempts, rng).cost);
      }
      t.row()
          .cell(blocks)
          .cell(n)
          .cell(g.num_edges())
          .cell(lp_star, 1)
          .cell(lll_cost.mean(), 1)
          .cell(logn_cost.mean(), 1)
          .cell(lll_cost.mean() / lp_star, 3)
          .cell(logn_cost.mean() / lp_star, 3)
          .cell(a_lll, 2)
          .cell(a_logn, 2);
    }
    t.print();
    std::printf(
        "Reading: LLL/LP stays flat as n grows (alpha = ln Delta is "
        "n-independent); logn/LP climbs until alpha*x >= 1 buys every edge. "
        "This is Theorem 3.4's improvement over Theorem 3.3 at bounded "
        "degree.\n");
  }

  {
    banner("sparse bounded-degree digraphs (consistency check), r = 1");
    Table t({"n", "Delta", "m", "LP(4)*", "LLL cost", "logn cost",
             "resamples", "converged"});
    for (const std::size_t n : {30u, 60u}) {
      for (const std::size_t delta : {4u, 8u}) {
        Stats lp, lll_c, logn_c, resamples;
        std::size_t m = 0;
        bool all_converged = true;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const Digraph g = di_bounded_degree(n, delta, 0.6, 100 * n + seed);
          m = g.num_edges();
          const auto a = lll_ft_2spanner(g, 1, seed * 5 + 1);
          const auto b = approx_ft_2spanner(g, 1, seed * 5 + 1);
          if (!a.valid || !b.valid) continue;
          lp.add(a.lp_value);
          lll_c.add(a.cost);
          logn_c.add(b.cost);
          resamples.add(static_cast<double>(a.resamples));
          all_converged = all_converged && a.converged;
        }
        t.row()
            .cell(n)
            .cell(delta)
            .cell(m)
            .cell(lp.mean(), 1)
            .cell(lll_c.mean(), 1)
            .cell(logn_c.mean(), 1)
            .cell(resamples.mean(), 1)
            .cell(all_converged ? "yes" : "partly");
      }
    }
    t.print();
    std::printf(
        "Reading: these LPs are near-integral (few 2-paths at this "
        "sparsity), so both roundings sit at LP* — consistent, no "
        "separation expected here.\n");
  }
  return 0;
}
