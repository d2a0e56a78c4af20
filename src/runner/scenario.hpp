// ScenarioSpec — the declarative description of one experiment:
// {workload × algorithm × k/r/threads sweep × repetitions × validation}.
//
// Specs are plain key=value text (whitespace-separated), e.g.
//
//   workload=gnp n=400 p=0.05 wseed=1234 algo=ft_vertex k=3 r=2 seed=4242
//   threads=1 reps=3 validate=sampled trials=40 adversarial=60 vseed=99
//
// n, k, r, and threads accept comma-separated sweep lists ("r=1,2,4"); a
// spec expands to the cartesian product n × k × r × threads, one cell per
// combination (all cells share the spec's seeds — per-cell seed formulas
// stay in the callers that need them, which simply emit one spec per cell).
// `to_string()` is canonical: fields at their defaults are omitted, numbers
// print in shortest round-trip form, key order is fixed — so
// parse → to_string is idempotent byte-for-byte. docs/SCENARIOS.md has the
// full grammar.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftspan::runner {

struct ScenarioSpec {
  // --- workload ---
  std::string workload = "gnp";
  std::string path;            ///< for workload=file: the graph file to load
                               ///< (no whitespace — specs are token-split)
  std::vector<std::size_t> n;  ///< size sweep; empty = workload default
  double p = -1.0;             ///< density knob; < 0 = workload default
  double scale = 1.0;          ///< workload scale factor
  /// Reweight the generated graph with integer weights drawn uniformly from
  /// [1, max_weight] (seeded by wseed); 0 = keep the workload's own weights.
  /// Makes the mid-range integer regime sweepable without a DIMACS file.
  double max_weight = 0;
  std::uint64_t wseed = 1;     ///< workload RNG seed

  // --- serve load test (workload=serve only; see docs/SERVE.md) ---
  double qps = 0;          ///< paced request rate; 0 = closed loop, unpaced
  std::size_t conns = 1;   ///< concurrent client connections
  double duration = 0;     ///< load-test seconds; 0 = no load phase
  double chaos = 0;        ///< P(a client slot injects a fault); 0 = off
  std::size_t reload_every = 0;  ///< POST /admin/reload every Nth request

  // --- algorithm ---
  std::string algo = "ft_vertex";
  std::vector<double> k = {3.0};       ///< stretch sweep
  std::vector<std::size_t> r = {1};    ///< fault-tolerance sweep
  double c = 1.0;                      ///< conversion iteration constant
  std::size_t iters = 0;               ///< iteration override; 0 = formula
  std::uint64_t seed = 1;              ///< algorithm RNG seed
  std::vector<std::size_t> threads = {1};  ///< fan-out width sweep

  // --- driver ---
  std::size_t reps = 1;  ///< timing repetitions; metrics use rep 0, time is best-of

  // --- validation (via the StretchOracle, in the algorithm's fault model) ---
  std::string validate = "sampled";  ///< none | sampled | exact
  std::size_t trials = 40;           ///< sampled: random fault sets
  std::size_t adversarial = 60;      ///< sampled: adversary probes
  std::uint64_t vseed = 99;          ///< sampled: fault-set stream seed

  // --- output ---
  bool timings = true;  ///< false: omit wall-clock fields from JSON/CSV

  /// Canonical key=value form (see header comment). parse(to_string()) == *this.
  std::string to_string() const;

  /// Parses key=value text; later occurrences of a key override earlier
  /// ones (which is how CLI overrides are applied). Throws
  /// std::invalid_argument on an unknown key or malformed value.
  static ScenarioSpec parse(const std::string& text);

  bool operator==(const ScenarioSpec&) const = default;
};

/// Shortest decimal form of v that parses back to exactly the same double
/// ("3", "0.05", "0.120208..." as needed). Shared by the spec serializer
/// and the runner's JSON/CSV emitters, so every emitted number is both
/// readable and bit-faithful.
std::string format_double(double v);

}  // namespace ftspan::runner
