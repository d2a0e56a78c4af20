// E9 — Theorem 2.3 / Corollary 2.4: the distributed conversion.
//
// Base algorithm: distributed Baswana–Sen (stretch 2k-1 = 3), simulated in
// the LOCAL engine. We sweep n and r, reporting LOCAL rounds (theory:
// O(r³ log n · t(n)) with t(n) = O(k²)), spanner size, and a fault-
// tolerance check (exact where feasible, sampled otherwise).
#include <cstdio>

#include "graph/generators.hpp"
#include "local/dist_spanner.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "validate/stretch_oracle.hpp"

using namespace ftspan;
using namespace ftspan::local;

int main() {
  std::printf("# E9: distributed FT conversion (Theorem 2.3), stretch 3\n");
  std::printf("# base: distributed Baswana-Sen k=2 (7 LOCAL rounds/run)\n");

  banner("rounds and size vs (n, r)");
  Table t({"n", "m", "r", "iterations", "LOCAL rounds", "rounds/(r^3 ln n)",
           "|H|", "|H|/m", "valid", "check", "sec"});
  for (const std::size_t n : {64u, 128u, 256u}) {
    const Graph g = gnp(n, 12.0 / n, 31 + n);
    for (const std::size_t r : {1u, 2u, 3u}) {
      Timer timer;
      const auto res = distributed_ft_spanner(g, 2, r, 7 * n + r);
      const double sec = timer.seconds();
      const Graph h = g.edge_subgraph(res.edges);

      bool exact = count_fault_sets(n, r) <= 50'000;
      // Exact checking costs |fault sets| × n Dijkstras; keep it for the
      // smallest configurations only.
      exact = exact && n <= 64;
      const StretchOracle oracle(g, h, 3.0);
      const auto check = exact ? oracle.check_exact(r)
                               : oracle.check_sampled(r, 15, 25, /*seed=*/5);
      const double theory =
          std::pow(static_cast<double>(r), 3.0) * std::log(static_cast<double>(n));
      t.row()
          .cell(n)
          .cell(g.num_edges())
          .cell(r)
          .cell(res.iterations)
          .cell(res.stats.rounds)
          .cell(static_cast<double>(res.stats.rounds) / theory, 1)
          .cell(res.edges.size())
          .cell(static_cast<double>(res.edges.size()) / g.num_edges(), 3)
          .cell(check.valid ? "yes" : "NO")
          .cell(exact ? "exact" : "sampled")
          .cell(sec, 2);
    }
  }
  t.print();
  std::printf(
      "\nReading: rounds/(r^3 ln n) is ~constant (= per-iteration base "
      "rounds), matching Theorem 2.3's O(r^3 log n * t(n)).\n");
  return 0;
}
