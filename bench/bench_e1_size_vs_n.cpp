// E1 — Corollary 2.2 size scaling in n, plus conversion-engine throughput.
//
// Claim: the conversion applied to the greedy spanner yields an r-fault-
// tolerant k-spanner of size O(r^{2-2/(k+1)} n^{1+2/(k+1)} log n). We sweep
// n at fixed (k, r), report measured size, size normalized by the bound
// (should be flat-to-decreasing in n), the empirical log-log slope of size
// vs n (should not exceed 1 + 2/(k+1) by much once the log n factor is
// accounted for), and a sampled fault-tolerance validity check.
//
// Every sweep is a list of scenario definitions on the unified runner
// (src/runner); the per-row seed formulas (workload seed 1000+n, conversion
// seed 7n+r, ...) are the historical ones, so the measured sizes are
// bit-identical to the pre-runner bench. The final section sweeps the
// engine's thread fan-out at a pinned iteration count and checks the edge
// sets stay bit-identical via the runner's edge-set hash.
#include <cstdio>
#include <iostream>
#include <vector>

#include "ftspanner/conversion.hpp"
#include "pipeline/burst_pipeline.hpp"
#include "runner/runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ftspan;
using runner::ScenarioSpec;

namespace {

/// Prints the runner table plus the derived bound-normalized columns and
/// the log-log slope of |H| against n.
void report_sweep(const std::vector<ScenarioSpec>& specs, double k,
                  bool with_bound) {
  const runner::ScenarioReport report = runner::run_scenarios(specs);
  runner::print_table(report, std::cout);
  std::vector<double> xs, ys;
  Table derived({"n", "bound", "|H|/bound"});
  for (const runner::ScenarioCell& cell : report.cells) {
    xs.push_back(static_cast<double>(cell.n));
    ys.push_back(static_cast<double>(cell.edges));
    if (with_bound) {
      const double bound = corollary22_size_bound(cell.n, cell.k, cell.r);
      derived.row().cell(cell.n).cell(bound, 0).cell(cell.edges / bound, 4);
    }
  }
  if (with_bound) {
    std::printf("\n");
    derived.print();
  }
  std::printf("log-log slope of |H| vs n: %.3f (paper exponent %.3f + o(1); "
              "when |H|/m ~ 1 the union has saturated at G itself and the "
              "slope reflects m, not the bound)\n",
              loglog_slope(xs, ys), 1.0 + 2.0 / (k + 1.0));
}

}  // namespace

int main() {
  std::printf("# E1: FT-greedy spanner size vs n (Corollary 2.2)\n");
  std::printf("# workload: G(n, p) with expected average degree 16\n");

  const std::vector<std::size_t> ns{128, 256, 512};
  for (const double k : {3.0, 5.0}) {
    for (const std::size_t r : {1u, 2u, 4u}) {
      banner("k = " + std::to_string(static_cast<int>(k)) +
             ", r = " + std::to_string(r));
      std::vector<ScenarioSpec> specs;
      for (const std::size_t n : ns) {
        ScenarioSpec s;
        s.workload = "gnp";
        s.n = {n};
        s.p = 16.0 / static_cast<double>(n);
        s.wseed = 1000 + n;
        s.algo = "ft_vertex";
        s.k = {k};
        s.r = {r};
        s.seed = 7 * n + r;
        s.validate = "sampled";
        s.trials = 15;
        s.adversarial = 25;
        s.vseed = 5;
        specs.push_back(std::move(s));
      }
      report_sweep(specs, k, /*with_bound=*/true);
    }
  }

  std::printf(
      "\nNote: with the proof-faithful iteration count, alpha * f(2n/r) "
      "exceeds m for these n, so the union saturates towards G — the size "
      "bound is vacuous below the crossover scale. The dense-family table "
      "below uses the practical preset (c = 0.25, validity still holding per "
      "experiment A1) where sparsification is visible.\n");

  for (const double k : {3.0, 5.0}) {
    for (const std::size_t r : {1u, 2u}) {
      banner("complete graphs, practical preset c=0.25: k = " +
             std::to_string(static_cast<int>(k)) + ", r = " + std::to_string(r));
      std::vector<ScenarioSpec> specs;
      for (const std::size_t n : {64u, 128u, 256u}) {
        ScenarioSpec s;
        s.workload = "complete";
        s.n = {n};
        s.algo = "ft_vertex";
        s.k = {k};
        s.r = {r};
        s.c = 0.25;
        s.seed = 11 * n + r;
        s.validate = "sampled";
        s.trials = 10;
        s.adversarial = 20;
        s.vseed = 5;
        specs.push_back(std::move(s));
      }
      report_sweep(specs, k, /*with_bound=*/false);
    }
  }

  // ---------------------------------------------------------------------
  // Parallel-engine throughput: the conversion's iterations are independent,
  // so wall-clock should drop near-linearly with threads (up to the core
  // count). The iteration count is pinned so every cell does identical work;
  // the runner's edge-set hash certifies the engine's determinism contract
  // (bit-identical output at every width).
  {
    banner("parallel engine: G(2000, 8/n), k = 3, r = 2, alpha = 48");
    std::printf("hardware threads available: %zu\n",
                hardware_threads());
    ScenarioSpec s;
    s.workload = "gnp";
    s.n = {2000};
    s.p = 8.0 / 2000.0;
    s.wseed = 4242;
    s.algo = "ft_vertex";
    s.k = {3.0};
    s.r = {2};
    s.iters = 48;
    s.seed = 77;
    s.threads = {1, 2, 4, 8};
    s.validate = "none";
    const runner::ScenarioReport report = runner::run_scenario(s);

    const runner::ScenarioCell& seq = report.cells.front();
    Table t({"threads", "|H|", "sec", "speedup", "identical to seq"});
    for (const runner::ScenarioCell& cell : report.cells)
      t.row()
          .cell(cell.threads)
          .cell(cell.edges)
          .cell(cell.seconds_best, 3)
          .cell(seq.seconds_best / cell.seconds_best, 2)
          .cell(cell.edges_hash == seq.edges_hash ? "yes" : "NO");
    t.print();
    std::printf(
        "Speedup saturates at the machine's core count; per-iteration RNG "
        "streams keep every row's edge set bit-identical.\n");
  }
  return 0;
}
