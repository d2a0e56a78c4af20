// A1 (ablation) — how many conversion iterations are needed in practice?
//
// Theorem 2.1 uses α = Θ(r³ log n); the constant matters in practice. We
// sweep the constant c and measure the fraction of seeds whose output is
// exactly fault tolerant, plus the spanner size. The experiment shows the
// theory constant is conservative — small c already gives validity — which
// is why ConversionOptions exposes it.
//
// All execution runs through the unified scenario runner (src/runner): the
// c-sweep is one exactly-validated scenario per (c, seed) cell, and the
// thread fan-out is a single threads-sweep scenario.
#include <cstdio>
#include <vector>

#include "pipeline/burst_pipeline.hpp"
#include "runner/runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ftspan;
using runner::ScenarioSpec;

int main() {
  std::printf("# A1: iteration-constant sweep for the Theorem 2.1 conversion\n");
  std::printf("# instance: G(16, 0.5), k = 3, r = 2; 10 seeds per cell\n");

  banner("validity vs iteration constant c (alpha = c r^3 ln n)");
  Table t({"c", "alpha", "valid fraction", "mean |H|", "|H|/m"});
  for (const double c : {0.05, 0.1, 0.25, 0.5, 1.0, 2.0}) {
    // Ten seeds, one exactly-validated scenario each (seed formula 71s).
    std::vector<ScenarioSpec> specs;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      ScenarioSpec s;
      s.workload = "gnp";
      s.n = {16};
      s.p = 0.5;
      s.wseed = 99;
      s.algo = "ft_vertex";
      s.k = {3.0};
      s.r = {2};
      s.c = c;
      s.seed = seed * 71;
      s.validate = "exact";
      specs.push_back(std::move(s));
    }
    const runner::ScenarioReport report = runner::run_scenarios(specs);
    std::size_t valid = 0, alpha = 0;
    Stats size;
    for (const runner::ScenarioCell& cell : report.cells) {
      alpha = static_cast<std::size_t>(cell.stat("iterations"));
      size.add(static_cast<double>(cell.edges));
      if (cell.valid) ++valid;
    }
    t.row()
        .cell(c, 2)
        .cell(alpha)
        .cell(static_cast<double>(valid) / 10.0, 2)
        .cell(size.mean(), 1)
        .cell(size.mean() / report.cells.front().m, 3);
  }
  t.print();
  std::printf(
      "\nReading: validity saturates well below c = 1 — the proof constant is "
      "loose; size grows with c until the union saturates.\n");

  // At the proof constant the iterations dominate the run time, which is
  // exactly what the parallel engine targets; sweep threads on a larger
  // instance and confirm the output does not depend on the thread count.
  banner("iteration fan-out: G(512, 16/n), k = 3, r = 2, c = 1");
  std::printf("hardware threads available: %zu\n",
              hardware_threads());
  {
    ScenarioSpec s;
    s.workload = "gnp";
    s.n = {512};
    s.p = 16.0 / 512.0;
    s.wseed = 4242;
    s.algo = "ft_vertex";
    s.k = {3.0};
    s.r = {2};
    s.seed = 4242;
    s.threads = {1, 2, 4, 8};
    s.validate = "none";
    const runner::ScenarioReport report = runner::run_scenario(s);
    const runner::ScenarioCell& seq = report.cells.front();
    Table tt({"threads", "alpha", "|H|", "sec", "speedup"});
    for (const runner::ScenarioCell& cell : report.cells) {
      if (cell.edges_hash != seq.edges_hash)
        std::printf("WARNING: thread count changed the output!\n");
      tt.row()
          .cell(cell.threads)
          .cell(static_cast<std::size_t>(cell.stat("iterations")))
          .cell(cell.edges)
          .cell(cell.seconds_best, 3)
          .cell(seq.seconds_best / cell.seconds_best, 2);
    }
    tt.print();
  }
  return 0;
}
