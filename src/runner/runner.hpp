// The scenario driver: expands ScenarioSpecs into cells, executes each cell
// through the workload and algorithm registries, validates the result
// through the StretchOracle (vertex- or edge-fault checks, by the
// algorithm's fault model), and emits the report as a util/table.hpp text
// table, CSV, or versioned JSON.
//
// Determinism contract: every metric in a cell — sizes, stats, validity,
// worst stretch, witnesses, edge-set hash — is bit-identical for the same
// spec and seeds at every thread count (wall-clock fields are the only
// exception, and `timings=off` removes them from the emitters entirely).
//
// Within one spec the driver binds the algorithm once per workload instance
// and reuses the bound state (e.g. greedy's GreedyContext edge sort and
// workspace) across the k/r/threads sweep and all timing repetitions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "runner/algorithms.hpp"
#include "runner/scenario.hpp"
#include "serve/loadtest.hpp"

namespace ftspan::runner {

/// One executed (workload, algorithm, k, r, threads) combination.
struct ScenarioCell {
  // Instance identity.
  std::string workload;
  std::string params;  ///< the workload's canonical parameter string
  std::size_t n = 0;   ///< vertices of the generated instance
  std::size_t m = 0;   ///< edges of the generated instance

  // Algorithm and its result.
  std::string algorithm;
  double k = 3.0;
  std::size_t r = 1;
  std::size_t threads = 1;
  std::size_t edges = 0;         ///< spanner size |H|
  std::uint64_t edges_hash = 0;  ///< FNV-1a over the edge-id sequence
  /// The SP queue the engines resolve to against the BASE graph's weight
  /// profile ("heap" | "bucket" | "delta"). Deterministic — a function of
  /// the instance only — so it sits outside the timings gate. (The spanner
  /// H resolves separately per graph; its profile can only be narrower.)
  std::string engine_resolved;
  std::vector<std::pair<std::string, double>> stats;

  // Validation (fields meaningful when validate != "none").
  std::string validate = "none";
  bool valid = true;
  double worst_stretch = 1.0;
  std::size_t fault_sets = 0;
  /// The oracle's source searches (FtCheckResult::searches): a work count,
  /// deterministic at any thread count, so outside the timings gate.
  std::size_t searches = 0;
  Vertex witness_u = kInvalidVertex;
  Vertex witness_v = kInvalidVertex;

  // Wall clock and machine-dependent metrics (never part of the determinism
  // contract; `timings=off` removes them from the emitters).
  std::size_t reps = 1;
  double seconds_best = 0;  ///< construction, best of `reps`
  double val_seconds = 0;   ///< validation, best of `reps`
  /// std::thread::hardware_concurrency() where the cell ran.
  /// Machine-dependent, so the emitters keep it inside the timings-gated
  /// block.
  std::size_t hw_concurrency = 0;
  /// Process-wide peak RSS sampled after the cell ran (util/mem.hpp):
  /// an upper bound on the cell's footprint, monotone across cells.
  std::size_t peak_rss = 0;

  /// workload=serve load-test result (serve/loadtest.hpp). Machine-
  /// dependent like the clocks, so the emitters put it inside the
  /// timings-gated block; empty when no load phase ran (duration=0 or
  /// timings=off).
  std::optional<serve::LoadTestResult> load;

  /// Value of a named stat, or `dflt` when the algorithm did not emit it.
  double stat(const std::string& name, double dflt = 0) const;
};

struct ScenarioReport {
  std::vector<ScenarioSpec> specs;
  /// Cells in execution order: specs in input order, each expanded
  /// n-major, then k, then r, then threads.
  std::vector<ScenarioCell> cells;
  /// Index into `cells` of each spec's first cell (parallel to `specs`).
  std::vector<std::size_t> first_cell;
};

/// Executes the spec(s). Throws std::invalid_argument for unknown workload
/// or algorithm names (listing the valid names).
ScenarioReport run_scenario(const ScenarioSpec& spec);
ScenarioReport run_scenarios(const std::vector<ScenarioSpec>& specs);

/// Emitters. Table and CSV share one column layout; JSON is the versioned
/// machine-readable record (schema "ftspan.scenario.v1").
void print_table(const ScenarioReport& report, std::ostream& os);
void print_csv(const ScenarioReport& report, std::ostream& os);
void print_json(const ScenarioReport& report, std::ostream& os);

/// FNV-1a over an edge-id sequence — the cross-run bit-identity fingerprint
/// stored in ScenarioCell::edges_hash (same function the golden-conversion
/// tests use).
std::uint64_t edge_set_hash(const std::vector<EdgeId>& edges);

/// A named, committed scenario: the registry behind `ftspan bench <name>`.
struct ScenarioPreset {
  std::string summary;
  std::string spec;  ///< parseable ScenarioSpec text
};

/// Presets: one `smoke_<algo>` per registered algorithm (tiny instances
/// whose outputs tests/test_runner.cpp pins), the serve load tests, and a
/// `quick` demo sweep.
const Registry<ScenarioPreset>& preset_registry();

}  // namespace ftspan::runner
