// E11 — validation throughput: the StretchOracle vs the per-pair path.
//
// The pre-oracle validators ran one Dijkstra pair per *pair* (edge) per
// fault set. The oracle runs one source-batched Dijkstra pair per
// spanner-edge endpoint, bounds the G-side run by the largest incident edge
// length, early-exits both runs once every incident target is settled, and
// reuses epoch-stamped scratch across fault sets. This bench times both on
// the same fault-set stream (so worst stretch must match exactly) and then
// shows the thread fan-out.
//
// The oracle side runs as scenario definitions on the unified runner
// (src/runner) — the same cells `ftspan bench validation_throughput`
// executes; only the legacy per-pair reference is bench-local code.
//
//   $ ./bench_e11_validation_throughput [n] [p] [r] [trials] [--json <path>]
//
// Acceptance (ISSUE 3): oracle >= 5x faster than the per-pair path at one
// thread on gnp(400, 0.05), r = 2, with identical worst_stretch.
// `--json <path>` writes the runner's JSON record of the oracle scenario.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "graph/generators.hpp"
#include "graph/sp_engine.hpp"
#include "runner/runner.hpp"
#include "spanner/greedy.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "validate/stretch_oracle.hpp"

using namespace ftspan;
using runner::ScenarioSpec;

namespace {

/// The pre-oracle formulation: per fault set, one full (unbounded,
/// untargeted) Dijkstra pair per surviving edge. Consumes the same per-trial
/// RNG streams as StretchOracle::check_sampled's random trials, so the
/// fault-set stream — and therefore the worst stretch — matches the oracle
/// exactly.
FtCheckResult per_pair_reference(const Graph& g, const Graph& h, double k,
                                 std::size_t r, std::size_t trials,
                                 std::uint64_t seed) {
  const std::size_t n = g.num_vertices();
  FtCheckResult out;
  out.witness_faults = VertexSet(n);
  const std::size_t fault_size =
      std::min(r, n >= 2 ? n - 2 : std::size_t{0});
  std::vector<Vertex> pool;
  VertexSet faults(n);
  DijkstraEngine dg, dh;
  for (std::size_t t = 0; t < trials; ++t) {
    Rng rng(hash_combine(seed, t));
    sample_fault_set(rng, fault_size, pool, faults);
    ++out.fault_sets_checked;
    for (const Edge& e : g.edges()) {
      if (faults.contains(e.u) || faults.contains(e.v)) continue;
      dg.run(g, e.u, &faults);  // one full run per PAIR
      dh.run(h, e.u, &faults);
      if (!dg.reachable(e.v) || dg.dist(e.v) <= 0) continue;
      const double stretch = dh.reachable(e.v) ? dh.dist(e.v) / dg.dist(e.v)
                                               : kInfiniteWeight;
      out.consider(stretch, faults, e.u, e.v, k);
    }
  }
  return out;
}

/// The oracle scenario: greedy k-spanner of gnp(n, p), sampled validation.
ScenarioSpec oracle_spec(std::size_t n, double p, std::size_t r,
                         std::size_t trials, std::size_t adversarial,
                         std::uint64_t seed) {
  ScenarioSpec s;
  s.workload = "gnp";
  s.n = {n};
  s.p = p;
  s.wseed = seed;
  s.algo = "greedy";
  s.k = {3.0};
  s.r = {r};
  s.seed = seed;
  s.validate = "sampled";
  s.trials = trials;
  s.adversarial = adversarial;
  s.vseed = seed;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* pos[4] = {nullptr, nullptr, nullptr, nullptr};
  int npos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path argument\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (npos < 4) {
      pos[npos++] = argv[i];
    }
  }
  const std::size_t n = pos[0] ? std::strtoul(pos[0], nullptr, 10) : 400;
  const double p = pos[1] ? std::strtod(pos[1], nullptr) : 0.05;
  const std::size_t r = pos[2] ? std::strtoul(pos[2], nullptr, 10) : 2;
  const std::size_t trials = pos[3] ? std::strtoul(pos[3], nullptr, 10) : 12;
  const double k = 3.0;
  const std::uint64_t seed = 1;

  std::printf("# E11: validation throughput — StretchOracle vs per-pair\n");
  const Graph g = gnp(n, p, seed);
  const Graph h = greedy_spanner_graph(g, k);
  std::printf("\ngraph: gnp(n=%zu, p=%g) -> m=%zu; greedy %g-spanner: %zu "
              "edges; r=%zu, %zu random fault sets\n",
              n, p, g.num_edges(), k, h.num_edges(), r, trials);

  runner::ScenarioReport oracle_report;
  {
    banner("sampled check at 1 thread (identical fault-set stream)");

    Timer t1;
    const FtCheckResult ref = per_pair_reference(g, h, k, r, trials, seed);
    const double ms_ref = t1.millis();

    oracle_report = runner::run_scenario(
        oracle_spec(n, p, r, trials, /*adversarial=*/0, seed));
    const runner::ScenarioCell& ora = oracle_report.cells.front();
    const double ms_ora = ora.val_seconds * 1e3;

    Table t({"validator", "fault sets", "ms", "sets/s", "worst stretch"});
    t.row()
        .cell("per-pair (pre-oracle)")
        .cell(ref.fault_sets_checked)
        .cell(ms_ref, 1)
        .cell(ref.fault_sets_checked / (ms_ref / 1e3), 1)
        .cell(ref.worst_stretch, 4);
    t.row()
        .cell("StretchOracle (runner)")
        .cell(ora.fault_sets)
        .cell(ms_ora, 1)
        .cell(ora.fault_sets / (ms_ora / 1e3), 1)
        .cell(ora.worst_stretch, 4);
    t.print();

    const double speedup = ms_ref / ms_ora;
    const bool same = ref.worst_stretch == ora.worst_stretch;
    std::printf("\nspeedup: %.1fx; worst-stretch self-check: %s\n", speedup,
                same ? "IDENTICAL (pass)" : "MISMATCH (FAIL)");
    if (!same || speedup < 5.0) {
      std::printf("acceptance FAILED (need identical stretch and >= 5x)\n");
      return 1;
    }
  }

  {
    banner("full sampled check (random + adversarial), oracle only");
    const runner::ScenarioReport report =
        runner::run_scenario(oracle_spec(n, p, r, trials, trials, seed));
    const runner::ScenarioCell& cell = report.cells.front();
    std::printf("%zu fault sets in %.1f ms (%s, worst stretch %.4f)\n",
                cell.fault_sets, cell.val_seconds * 1e3,
                cell.valid ? "valid" : "INVALID", cell.worst_stretch);
  }

  {
    banner("thread fan-out (bit-identical result at every width)");
    ScenarioSpec s = oracle_spec(n, p, r, trials, trials, seed);
    s.threads = {1, 2, 4, 8};
    const runner::ScenarioReport report = runner::run_scenario(s);
    const runner::ScenarioCell& base = report.cells.front();
    Table t({"threads", "ms", "speedup", "bit-identical"});
    for (const runner::ScenarioCell& cell : report.cells) {
      const bool same = cell.valid == base.valid &&
                        cell.worst_stretch == base.worst_stretch &&
                        cell.witness_u == base.witness_u &&
                        cell.witness_v == base.witness_v &&
                        cell.fault_sets == base.fault_sets;
      t.row()
          .cell(cell.threads)
          .cell(cell.val_seconds * 1e3, 1)
          .cell(base.val_seconds / cell.val_seconds, 2)
          .cell(same ? "yes" : "NO");
      if (!same) {
        t.print();
        std::printf("\ndeterminism FAILED at %zu threads\n", cell.threads);
        return 1;
      }
    }
    t.print();
    std::printf(
        "\nReading: the oracle turns one Dijkstra pair per pair into one per "
        "endpoint (bounded + early-exit + reused scratch), and the fault-set "
        "fan-out adds wall-clock speedup without changing a single bit.\n");
  }

  if (json_path != nullptr) {
    std::ofstream os(json_path);
    if (!os) {
      std::printf("ERROR: cannot open %s for writing\n", json_path);
      return 1;
    }
    runner::print_json(oracle_report, os);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
