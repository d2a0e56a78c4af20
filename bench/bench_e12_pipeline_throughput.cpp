// E12 — engine specialization + burst pipeline throughput.
//
// PR 6 added two single-thread levers under the same scenario cells PR 4/5
// tracked: (1) the Dial bucket-queue frontier, selected per graph by the
// engine=auto policy when the hoisted weight profile shows bounded integer
// weights, and (2) the dataplane burst pipeline (pipeline/burst_pipeline.hpp)
// that routes conversion iterations and fault-set checks to per-worker
// engines in bursts instead of one shared-counter bounce per task. PR 10
// adds the third frontier — delta-stepping (engine=delta) — for the
// mid-range integer regime the bucket's O(max_weight) bucket array cannot
// reach.
//
// This bench runs the tracked presets (conv_throughput,
// validation_throughput, midrange_throughput — the exact cells
// `ftspan bench` and CI execute) under every engine policy, checks that
// every policy produces bit-identical outputs, and reports the measured
// multiples. It then sweeps threads x engine on the mid-range cell to show
// neither changes a bit.
//
//   $ ./bench_e12_pipeline_throughput [trials] [--json <path>]
//
// Acceptance: all engine policies bit-identical on every cell (edges_hash,
// worst stretch, witnesses); engine=auto resolves to the bucket on the
// unit-weight cells and to delta on the mid-range cell (where an explicit
// engine=bucket must downgrade to the heap — the resolver never builds a
// 1e5-bucket array); bucket beats the forced heap by >= 1.1x on the
// unit-weight validation cell and delta >= heap on the mid-range cell at
// one thread. `--json <path>` writes the runner's JSON record with one row
// per engine setting, each naming the engine actually resolved
// (engine_resolved) — the BENCH_pr10.json snapshot CI gates against — with
// hardware_concurrency stamped in every timed cell.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "util/table.hpp"

using namespace ftspan;
using runner::ScenarioCell;
using runner::ScenarioReport;
using runner::ScenarioSpec;

namespace {

/// The tracked preset, parsed from the registry so this bench can never
/// drift from what `ftspan bench <name>` runs.
ScenarioSpec preset_spec(const std::string& name) {
  return ScenarioSpec::parse(runner::preset_registry().get(name).spec);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::size_t trials = 60;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path argument\n");
        return 2;
      }
      json_path = argv[++i];
    } else {
      trials = std::strtoul(argv[i], nullptr, 10);
    }
  }

  std::printf("# E12: engine specialization + burst pipeline\n");
  bool ok = true;

  // --- conversion cell: engine policy sweep -------------------------------
  double conv_heap_ips = 0, conv_auto_ips = 0;
  {
    banner("conv_throughput preset under engine=heap|bucket|delta|auto");
    ScenarioSpec spec = preset_spec("conv_throughput");
    Table t({"engine", "resolved", "sec (best)", "iters/s", "|H|",
             "edges_hash"});
    std::uint64_t hash0 = 0;
    for (const char* engine : {"heap", "bucket", "delta", "auto"}) {
      spec.engine = engine;
      const ScenarioReport report = runner::run_scenario(spec);
      const ScenarioCell& cell = report.cells.front();
      const double ips = cell.stat("iterations") / cell.seconds_best;
      if (std::strcmp(engine, "heap") == 0) conv_heap_ips = ips;
      if (std::strcmp(engine, "auto") == 0) conv_auto_ips = ips;
      char hash[32];
      std::snprintf(hash, sizeof hash, "0x%016llx",
                    static_cast<unsigned long long>(cell.edges_hash));
      t.row()
          .cell(engine)
          .cell(cell.engine_resolved)
          .cell(cell.seconds_best, 3)
          .cell(ips, 1)
          .cell(cell.edges)
          .cell(hash);
      if (hash0 == 0)
        hash0 = cell.edges_hash;
      else if (cell.edges_hash != hash0) {
        std::printf("BIT-IDENTITY FAILED: engine=%s changed the edge set\n",
                    engine);
        ok = false;
      }
    }
    t.print();
    std::printf("\nauto/heap multiple: %.2fx (unit weights: auto resolves to "
                "the bucket queue)\n",
                conv_auto_ips / conv_heap_ips);
  }

  // --- validation cell: engine policy sweep -------------------------------
  double val_heap_sps = 0, val_bucket_sps = 0;
  {
    banner("validation_throughput preset under engine=heap|bucket|delta|auto");
    ScenarioSpec spec = preset_spec("validation_throughput");
    spec.trials = trials;  // more fault sets -> steadier clock
    Table t({"engine", "resolved", "val sec", "sets/s", "worst stretch"});
    ScenarioCell base;
    bool have_base = false;
    for (const char* engine : {"heap", "bucket", "delta", "auto"}) {
      spec.engine = engine;
      const ScenarioReport report = runner::run_scenario(spec);
      const ScenarioCell& cell = report.cells.front();
      const double sps = cell.fault_sets / cell.val_seconds;
      if (std::strcmp(engine, "heap") == 0) val_heap_sps = sps;
      if (std::strcmp(engine, "bucket") == 0) val_bucket_sps = sps;
      t.row()
          .cell(engine)
          .cell(cell.engine_resolved)
          .cell(cell.val_seconds, 3)
          .cell(sps, 1)
          .cell(cell.worst_stretch, 4);
      if (!have_base) {
        base = cell;
        have_base = true;
      } else if (cell.worst_stretch != base.worst_stretch ||
                 cell.witness_u != base.witness_u ||
                 cell.witness_v != base.witness_v ||
                 cell.valid != base.valid) {
        std::printf("BIT-IDENTITY FAILED: engine=%s changed the validation "
                    "result\n",
                    engine);
        ok = false;
      }
    }
    t.print();
    const double multiple = val_bucket_sps / val_heap_sps;
    std::printf("\nbucket/heap multiple: %.2fx (need >= 1.1x)\n", multiple);
    if (multiple < 1.1) {
      std::printf("acceptance FAILED: bucket did not beat the heap\n");
      ok = false;
    }
  }

  // --- mid-range cell: the delta-stepping regime --------------------------
  {
    banner("midrange_throughput preset under engine=heap|bucket|delta|auto");
    ScenarioSpec spec = preset_spec("midrange_throughput");
    Table t({"engine", "resolved", "val sec", "sets/s", "worst stretch"});
    ScenarioCell base;
    bool have_base = false;
    double heap_sps = 0, delta_sps = 0;
    for (const char* engine : {"heap", "bucket", "delta", "auto"}) {
      spec.engine = engine;
      const ScenarioReport report = runner::run_scenario(spec);
      const ScenarioCell& cell = report.cells.front();
      const double sps = cell.fault_sets / cell.val_seconds;
      if (std::strcmp(engine, "heap") == 0) heap_sps = sps;
      if (std::strcmp(engine, "delta") == 0) delta_sps = sps;
      t.row()
          .cell(engine)
          .cell(cell.engine_resolved)
          .cell(cell.val_seconds, 3)
          .cell(sps, 1)
          .cell(cell.worst_stretch, 4);
      if (!have_base) {
        base = cell;
        have_base = true;
      } else if (cell.edges_hash != base.edges_hash ||
                 cell.worst_stretch != base.worst_stretch ||
                 cell.witness_u != base.witness_u ||
                 cell.witness_v != base.witness_v) {
        std::printf("BIT-IDENTITY FAILED: engine=%s changed the mid-range "
                    "result\n",
                    engine);
        ok = false;
      }
      // The resolver's contract on a 1e5-max integer graph: auto and
      // explicit delta run delta-stepping; explicit bucket must downgrade
      // to the heap rather than build a 1e5-slot bucket array.
      const char* want = std::strcmp(engine, "heap") == 0    ? "heap"
                         : std::strcmp(engine, "bucket") == 0 ? "heap"
                                                              : "delta";
      if (cell.engine_resolved != want) {
        std::printf("RESOLUTION FAILED: engine=%s resolved to %s, want %s\n",
                    engine, cell.engine_resolved.c_str(), want);
        ok = false;
      }
    }
    t.print();
    const double multiple = heap_sps > 0 ? delta_sps / heap_sps : 0;
    std::printf("\ndelta/heap multiple: %.2fx (need >= 1.0x)\n", multiple);
    if (multiple < 1.0) {
      std::printf("acceptance FAILED: delta fell behind the heap on the "
                  "mid-range cell\n");
      ok = false;
    }
  }

  // --- threads x engine on the mid-range cell -----------------------------
  {
    banner("midrange threads x engine sweep (worker lanes)");
    ScenarioSpec spec = preset_spec("midrange_throughput");
    Table t({"engine", "threads", "val sec", "sets/s", "edges_hash"});
    std::uint64_t hash0 = 0;
    for (const char* engine : {"heap", "delta"}) {
      spec.engine = engine;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
        spec.threads = {threads};
        const ScenarioReport report = runner::run_scenario(spec);
        const ScenarioCell& cell = report.cells.front();
        char hash[32];
        std::snprintf(hash, sizeof hash, "0x%016llx",
                      static_cast<unsigned long long>(cell.edges_hash));
        t.row()
            .cell(engine)
            .cell(threads)
            .cell(cell.val_seconds, 3)
            .cell(cell.fault_sets / cell.val_seconds, 1)
            .cell(hash);
        if (hash0 == 0)
          hash0 = cell.edges_hash;
        else if (cell.edges_hash != hash0) {
          std::printf("BIT-IDENTITY FAILED: engine=%s threads=%zu changed "
                      "the edge set\n",
                      engine, threads);
          ok = false;
        }
      }
    }
    t.print();
  }

  // --- the tracked snapshot ------------------------------------------------
  if (json_path != nullptr) {
    // The tracked cells at their preset definitions plus the mid-range cell
    // under every engine setting — one JSON row per engine, each naming the
    // engine actually resolved (engine_resolved; delta rows included) —
    // and a threads sweep over the mid-range cell. hardware_concurrency is
    // stamped inside every timed cell. This is the BENCH_pr10.json snapshot
    // CI's perf-smoke gates against.
    std::vector<ScenarioSpec> specs = {preset_spec("conv_throughput"),
                                       preset_spec("validation_throughput")};
    for (const char* engine : {"heap", "bucket", "delta", "auto"}) {
      ScenarioSpec spec = preset_spec("midrange_throughput");
      spec.engine = engine;
      specs.push_back(spec);
    }
    {
      ScenarioSpec sweep = preset_spec("midrange_throughput");
      sweep.threads = {1, 2, 4, 8};
      specs.push_back(sweep);
    }
    const ScenarioReport report = runner::run_scenarios(specs);
    std::ofstream os(json_path);
    if (!os) {
      std::printf("ERROR: cannot open %s for writing\n", json_path);
      return 1;
    }
    runner::print_json(report, os);
    std::printf("wrote %s\n", json_path);
  }

  std::printf("\n%s\n", ok ? "acceptance PASSED" : "acceptance FAILED");
  return ok ? 0 : 1;
}
