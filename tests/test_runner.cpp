// The scenario engine (src/runner): registries, spec round-trips, driver
// determinism, and parity with the direct library APIs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "runner/algorithms.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/workloads.hpp"
#include "spanner/greedy.hpp"
#include "support/edge_list_hash.hpp"
#include "support/temp_path.hpp"

namespace ftspan {
namespace {

using runner::AlgoParams;
using runner::ScenarioReport;
using runner::ScenarioSpec;
using runner::WorkloadParams;

// --- registries ---------------------------------------------------------

TEST(Registries, UnknownWorkloadErrorListsValidNames) {
  try {
    runner::workload_registry().get("no_such_workload");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload 'no_such_workload'"),
              std::string::npos)
        << msg;
    // Every registered name must appear in the message.
    for (const std::string& name : runner::workload_registry().names())
      EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
  }
}

TEST(Registries, UnknownAlgorithmErrorListsValidNames) {
  try {
    runner::algorithm_registry().get("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown algorithm 'bogus'"), std::string::npos);
    for (const std::string& name : runner::algorithm_registry().names())
      EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
  }
}

TEST(Registries, CatalogCoverage) {
  // The acceptance floor: >= 6 algorithms and >= 5 workloads registered.
  EXPECT_GE(runner::algorithm_registry().size(), 6u);
  EXPECT_GE(runner::workload_registry().size(), 5u);
  for (const char* name : {"greedy", "baswana_sen", "thorup_zwick",
                           "ft_vertex", "ft_edge", "ft2_rounding",
                           "ft2_dk10", "ft2_lll"})
    EXPECT_TRUE(runner::algorithm_registry().contains(name)) << name;
  for (const char* name : {"gnp", "grid", "sensor", "road", "preferential",
                           "tie_dense"})
    EXPECT_TRUE(runner::workload_registry().contains(name)) << name;
}

TEST(Registries, WorkloadsAreSeedDeterministic) {
  // The `file` workload has no generator seed — its instance is the file.
  // Point it at a saved graph so two make_workload calls load it twice.
  const std::string fgb = test::temp_path("runner_registry.fgb");
  save_graph_binary(fgb, gnp(30, 0.2, 7, 4.0));
  for (const std::string& name : runner::workload_registry().names()) {
    WorkloadParams wp;
    wp.seed = 77;
    if (name == "file") wp.path = fgb;
    const auto a = runner::make_workload(name, wp);
    const auto b = runner::make_workload(name, wp);
    EXPECT_EQ(a.params, b.params) << name;
    EXPECT_EQ(a.g.num_vertices(), b.g.num_vertices()) << name;
    EXPECT_EQ(a.g.num_edges(), b.g.num_edges()) << name;
  }
}

// --- scenario specs -----------------------------------------------------

TEST(ScenarioSpecTest, ParseToStringRoundTripsByteIdentically) {
  const char* cases[] = {
      "workload=gnp wseed=1 algo=ft_vertex k=3 r=1 seed=1 threads=1 reps=1 "
      "validate=sampled trials=40 adversarial=60 vseed=99",
      "workload=complete n=14 wseed=1 algo=greedy k=3,5 r=0 seed=3 "
      "threads=1,2,4,8 reps=2 validate=exact trials=40 adversarial=60 "
      "vseed=99",
      "workload=gnp n=128,256 p=0.09375 wseed=42 algo=ft_vertex k=3 r=1,2,4 "
      "c=1.25 iters=48 seed=7 threads=1 reps=3 validate=none timings=off",
      // The serve load-test keys print between scale and wseed, and only
      // when non-default.
      "workload=serve n=48 qps=64 conns=4 duration=0.4 wseed=2 "
      "algo=ft_vertex k=3 r=1 seed=3 threads=2 reps=1 validate=sampled "
      "trials=5 adversarial=5 vseed=9",
      // chaos/reload_every print after duration; zero (the default) stays
      // invisible (previous case).
      "workload=serve n=48 conns=3 duration=0.4 chaos=0.25 reload_every=50 "
      "wseed=2 algo=ft_vertex k=3 r=1 seed=3 threads=2 reps=1 "
      "validate=none",
      // max_weight prints after scale and stays invisible at its default
      // (every case above). format_double prints 100000 in its shortest
      // round-trip form "1e+05" — that IS the canonical spelling.
      "workload=gnp n=64 max_weight=1e+05 wseed=1 algo=greedy k=3 r=0 "
      "seed=1 threads=1 reps=1 validate=none",
      // c below the proof constant, as experiment A1's sweep prints it.
      "workload=gnp n=60 p=0.2 wseed=1 algo=ft_vertex k=3 r=2 c=0.05 seed=1 "
      "threads=1 reps=1 validate=sampled trials=8 adversarial=0 vseed=1",
  };
  for (const char* text : cases) {
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const std::string canonical = spec.to_string();
    // parse → to_string → parse: identical spec, identical bytes.
    const ScenarioSpec again = ScenarioSpec::parse(canonical);
    EXPECT_EQ(spec, again) << text;
    EXPECT_EQ(canonical, again.to_string()) << text;
  }
  // The cases above are already canonical: to_string must reproduce them.
  for (const char* text : cases)
    EXPECT_EQ(ScenarioSpec::parse(text).to_string(), text);
}

TEST(ScenarioSpecTest, LaterKeysOverrideEarlierOnes) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("workload=gnp r=1 r=2,3 seed=5 seed=9");
  EXPECT_EQ(spec.r, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(spec.seed, 9u);
}

TEST(ScenarioSpecTest, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(ScenarioSpec::parse("wibble=1"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("r=two"), std::invalid_argument);
  // strtoull would silently wrap negatives; the parser must reject them.
  EXPECT_THROW(ScenarioSpec::parse("r=-1"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("seed=+7"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("validate=maybe"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("timings=sometimes"),
               std::invalid_argument);
  // The batching, lane placement and SP queue are not configurable:
  // batch=, pin=, engine= and bucket_max= are unknown keys like any other.
  for (const char* text : {"batch=16", "pin=on", "pin=off", "engine=heap",
                           "engine=auto", "bucket_max=8192"}) {
    try {
      ScenarioSpec::parse(text);
      FAIL() << "expected std::invalid_argument for \"" << text << "\"";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      const std::string key(text, std::strchr(text, '=') - text);
      EXPECT_NE(what.find("unknown key '" + key + "'"), std::string::npos)
          << what;
      const std::string valid = what.substr(what.find("valid keys"));
      EXPECT_EQ(valid.find(key), std::string::npos) << what;
    }
  }
  try {
    ScenarioSpec::parse("frobnicate=1");
  } catch (const std::invalid_argument& e) {
    // The unknown-key error teaches the valid keys, new ones included.
    EXPECT_NE(std::string(e.what()).find("valid keys"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("chaos"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("reload_every"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("max_weight"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, RejectsOutOfRangeNumericValues) {
  // Range checks on the numeric keys: every case used to parse silently
  // and flow a nonsense value into the generators/algorithms.
  const char* bad[] = {
      "p=nan",        "p=1.5",       "p=-0.5",       "p=inf",
      "scale=0",      "scale=-2",    "scale=nan",    "scale=inf",
      "c=0",          "c=inf",       "c=-1",         "c=nan",
      "k=0.5",        "k=0",         "k=nan",        "k=3,0.5",
      "qps=-1",       "qps=nan",     "qps=inf",
      "conns=0",      "duration=-1", "duration=nan", "duration=inf",
      // Thread and connection counts stop at the worker ceiling.
      "conns=257",    "threads=257", "threads=1,257",
      "chaos=1.5",    "chaos=-0.1",  "chaos=nan",    "chaos=inf",
      "reload_every=-1",
      // max_weight must be a whole number >= 1 (or the 0 default).
      "max_weight=-1", "max_weight=0.5", "max_weight=nan", "max_weight=inf",
  };
  for (const char* text : bad) {
    const std::string key(text, std::strchr(text, '=') - text);
    try {
      ScenarioSpec::parse(text);
      FAIL() << "expected std::invalid_argument for \"" << text << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << "message for \"" << text << "\" was: " << e.what();
    }
  }
  // The boundary values themselves stay valid.
  EXPECT_EQ(ScenarioSpec::parse("p=0").p, 0.0);
  EXPECT_EQ(ScenarioSpec::parse("p=1").p, 1.0);
  EXPECT_EQ(ScenarioSpec::parse("c=1").c, 1.0);
  EXPECT_EQ(ScenarioSpec::parse("c=0.05").c, 0.05);  // the A1 sweep's low end
  EXPECT_EQ(ScenarioSpec::parse("k=1").k, (std::vector<double>{1.0}));
  EXPECT_EQ(ScenarioSpec::parse("qps=0").qps, 0.0);
  EXPECT_EQ(ScenarioSpec::parse("conns=1").conns, 1u);
  EXPECT_EQ(ScenarioSpec::parse("conns=256").conns, 256u);
  EXPECT_EQ(ScenarioSpec::parse("threads=0,256").threads,
            (std::vector<std::size_t>{0, 256}));
  EXPECT_EQ(ScenarioSpec::parse("duration=0").duration, 0.0);
  EXPECT_EQ(ScenarioSpec::parse("chaos=0").chaos, 0.0);
  EXPECT_EQ(ScenarioSpec::parse("chaos=1").chaos, 1.0);
  EXPECT_EQ(ScenarioSpec::parse("reload_every=0").reload_every, 0u);
  EXPECT_EQ(ScenarioSpec::parse("max_weight=0").max_weight, 0.0);
  EXPECT_EQ(ScenarioSpec::parse("max_weight=1").max_weight, 1.0);
}

TEST(ScenarioSpecTest, RejectsWhitespaceInPath) {
  // Specs are whitespace-tokenized: a path containing a space cannot
  // round-trip through to_string/parse (the splitter would truncate it into
  // a different spec), so both ends must reject it instead of corrupting
  // the spec silently.
  ScenarioSpec spec;
  spec.workload = "file";
  spec.path = "graphs/my graph.fgb";
  try {
    spec.to_string();
    FAIL() << "expected std::invalid_argument for a path with whitespace";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("whitespace"), std::string::npos)
        << e.what();
  }
  spec.path = "graphs/tab\tgraph.fgb";
  EXPECT_THROW(spec.to_string(), std::invalid_argument);
  // A whitespace-free path round-trips untouched.
  spec.path = "graphs/clean.fgb";
  EXPECT_EQ(ScenarioSpec::parse(spec.to_string()).path, spec.path);
}

TEST(ScenarioSpecTest, IntegerBoundaryValuesErrorWithTheKeyName) {
  // strtoull accepts out-of-range input by saturating (and sets ERANGE);
  // the parser must surface that as a hard error, not a silent clamp.
  const char* bad[] = {
      "r=99999999999999999999999",     // > 2^64: ERANGE saturation
      "seed=18446744073709551616",     // exactly 2^64
      "threads=",                      // empty value
      "reload_every=",                 // empty value, newer key
      "r=-1",                          // strtoull would wrap to 2^64-1
  };
  for (const char* text : bad) {
    const std::string key(text, std::strchr(text, '=') - text);
    try {
      ScenarioSpec::parse(text);
      FAIL() << "expected std::invalid_argument for \"" << text << "\"";
    } catch (const std::invalid_argument& e) {
      // The message must name the offending key.
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << "message for \"" << text << "\" was: " << e.what();
    }
  }
  // The extreme *valid* value still parses exactly.
  EXPECT_EQ(ScenarioSpec::parse("seed=18446744073709551615").seed,
            18446744073709551615ull);
}

TEST(ScenarioSpecTest, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(runner::format_double(3.0), "3");
  EXPECT_EQ(runner::format_double(0.05), "0.05");
  EXPECT_EQ(runner::format_double(0.09375), "0.09375");
  const double ugly = 1.7 / 7.3;
  EXPECT_EQ(std::strtod(runner::format_double(ugly).c_str(), nullptr), ugly);
}

// --- the driver ---------------------------------------------------------

TEST(ScenarioRunner, ExpandsSweepsInDocumentedOrder) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "workload=gnp n=16,24 p=0.4 wseed=3 algo=ft_vertex k=3 r=1,2 "
      "seed=5 threads=1 reps=1 validate=none");
  const ScenarioReport report = runner::run_scenario(spec);
  ASSERT_EQ(report.cells.size(), 4u);  // n-major, then k, then r, then threads
  EXPECT_EQ(report.cells[0].n, 16u);
  EXPECT_EQ(report.cells[0].r, 1u);
  EXPECT_EQ(report.cells[1].n, 16u);
  EXPECT_EQ(report.cells[1].r, 2u);
  EXPECT_EQ(report.cells[2].n, 24u);
  EXPECT_EQ(report.cells[3].n, 24u);
}

TEST(ScenarioRunner, MatchesDirectLibraryCalls) {
  // The runner cell for ft_vertex must reproduce ft_greedy_spanner
  // bit-for-bit: same workload instance, same conversion, same edge set.
  const ScenarioSpec spec = ScenarioSpec::parse(
      "workload=gnp n=48 p=0.2 wseed=11 algo=ft_vertex k=3 r=2 c=1.5 seed=13 "
      "threads=1 reps=2 validate=exact trials=40 adversarial=60 vseed=99");
  const ScenarioReport report = runner::run_scenario(spec);
  ASSERT_EQ(report.cells.size(), 1u);
  const runner::ScenarioCell& cell = report.cells[0];

  const Graph g = gnp(48, 0.2, 11);
  ConversionOptions opt;
  opt.iteration_constant = 1.5;
  const auto direct = ft_greedy_spanner(g, 3.0, 2, 13, opt);
  EXPECT_EQ(cell.m, g.num_edges());
  EXPECT_EQ(cell.edges, direct.edges.size());
  EXPECT_EQ(cell.edges_hash, runner::edge_set_hash(direct.edges));
  EXPECT_EQ(static_cast<std::size_t>(cell.stat("iterations")),
            direct.iterations);
}

TEST(ScenarioRunner, RepetitionsReuseBoundScratchWithoutChangingMetrics) {
  const Graph g = gnp(40, 0.25, 7);
  const runner::BoundAlgorithm bound =
      runner::algorithm_registry().get("ft_vertex").bind(g);
  AlgoParams params;
  params.k = 3.0;
  params.r = 1;
  params.c = 0.5;
  params.seed = 21;
  const runner::AlgoResult first = bound(params);
  for (int rep = 0; rep < 3; ++rep) {
    const runner::AlgoResult again = bound(params);
    EXPECT_EQ(again.edges, first.edges) << "rep " << rep;
  }
}

TEST(ScenarioRunner, JsonIsBitIdenticalAcrossThreadCounts) {
  // The determinism contract end to end: same spec and seeds, timings off,
  // any thread count — every computed metric in the emitted cells is
  // byte-identical. The only fields allowed to differ are the ones that
  // *echo* the requested width ("threads": N and the threads_used stat);
  // the normalizer below blanks exactly those before comparing.
  const auto normalize = [](std::string s) {
    for (const char* needle : {"\"threads\": ", "\"threads_used\": "}) {
      std::size_t at = 0;
      while ((at = s.find(needle, at)) != std::string::npos) {
        at += std::string(needle).size();
        while (at < s.size() && (std::isdigit(s[at]) != 0)) s.erase(at, 1);
      }
    }
    return s;
  };
  std::string cells_at_1;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    std::ostringstream spec_text;
    spec_text << "workload=gnp n=60 p=0.2 wseed=3 algo=ft_vertex k=3 r=1,2 "
                 "c=1.5 seed=5 threads="
              << threads
              << " reps=2 validate=sampled trials=6 adversarial=6 vseed=9 "
                 "timings=off";
    const ScenarioReport report =
        runner::run_scenario(ScenarioSpec::parse(spec_text.str()));
    std::ostringstream json;
    runner::print_json(report, json);
    const std::string text = json.str();
    // Compare everything from the cells array on (the echoed spec string
    // legitimately differs in its threads= token).
    const std::size_t at = text.find("\"cells\"");
    ASSERT_NE(at, std::string::npos);
    const std::string cells = normalize(text.substr(at));
    EXPECT_NE(cells.find("\"edges_hash\""), std::string::npos);
    if (threads == 1)
      cells_at_1 = cells;
    else
      EXPECT_EQ(cells, cells_at_1) << "threads=" << threads;
  }
}

// Tracked cells with committed outputs: the edge set, the SP queue the base
// graph resolves to, and the oracle's verdict must keep these exact values
// at any thread count. The conversion cells are unit-weight ft_vertex and
// ft_edge (24 iterations, so it keeps 8151 of 9092 edges rather than all of
// them), and both again on integer weights up to 1e5 (few iterations, the
// delta regime, whose greedy pair searches run on the heap); layered_greedy
// pins the baseline's r+1 greedy layers; the
// validation cells certify the greedy 3-spanner of the same gnp with unit
// weights (Dial's queue) and with integer weights up to 1e5 (the delta
// queue), 12 sampled fault sets each. Then one row per smoke_<algo> preset:
// every registered algorithm on a tiny instance, validated exactly. The
// last rows validate conversions exactly where the spanner drops edges
// (|H| < m), so their verdicts could fail: unit, integer and fractional
// (sensor) weights, under vertex and edge faults. `searches` is the
// oracle's work count (its shortest-path queries), pinned like an output.
struct Tracked {
  const char* spec;  ///< spec text, or the name of a preset
  std::size_t edges;
  std::uint64_t edges_hash;
  const char* engine_resolved;
  bool valid;            ///< checked when the spec validates
  double worst_stretch;  ///< checked when the spec validates
  std::size_t fault_sets;
  std::size_t searches;  ///< checked when the spec validates
};
const Tracked kTracked[] = {
    {"workload=gnp n=400 p=0.05 wseed=1234 algo=ft_vertex k=3 r=2 "
     "seed=4242 threads=1,4 reps=1 validate=none timings=off",
     4040, 0xbd7fe50e059fd5b3ull, "bucket", true, 0, 0, 0},
    {"workload=gnp n=300 p=0.2 wseed=1234 algo=ft_edge k=3 r=2 iters=24 "
     "seed=4242 threads=1,4 reps=1 validate=none timings=off",
     8151, 0x971b580b77fde662ull, "bucket", true, 0, 0, 0},
    {"workload=gnp n=400 p=0.05 max_weight=100000 wseed=1234 algo=ft_vertex "
     "k=3 r=2 iters=48 seed=4242 threads=1,4 reps=1 validate=none "
     "timings=off",
     1573, 0x2f1150800357a0a2ull, "delta", true, 0, 0, 0},
    {"workload=gnp n=300 p=0.2 max_weight=100000 wseed=1234 algo=ft_edge "
     "k=3 r=2 iters=24 seed=4242 threads=1,4 reps=1 validate=none "
     "timings=off",
     1204, 0xd7957dfa8d8206aeull, "delta", true, 0, 0, 0},
    {"workload=gnp n=400 p=0.1 wseed=1 algo=layered_greedy k=3 r=2 seed=1 "
     "threads=1,4 reps=1 validate=none timings=off",
     5842, 0x8baf0239e803acfdull, "bucket", true, 0, 0, 0},
    {"workload=gnp n=400 p=0.05 wseed=1 algo=greedy k=3 r=2 seed=1 "
     "threads=1,4 reps=1 validate=sampled trials=12 adversarial=0 vseed=1 "
     "timings=off",
     1855, 0xb29ca75cb40a6c08ull, "bucket", false, 4, 12, 953},
    {"workload=gnp n=400 p=0.05 max_weight=100000 wseed=1 algo=greedy k=3 "
     "r=2 seed=1 threads=1,4 reps=1 validate=sampled trials=12 "
     "adversarial=0 vseed=1 timings=off",
     539, 0x2128757e36bbaf0aull, "delta", false, kInfiniteWeight, 12, 1508},
    {"smoke_greedy", 37, 0x31a9c5c30add4d6cull, "bucket", true, 3, 1, 44},
    {"smoke_baswana_sen", 67, 0xf7c72c4ef3cc4989ull, "bucket", true, 3, 1,
     44},
    {"smoke_thorup_zwick", 67, 0xe64355c47cacf2afull, "bucket", true, 3, 1,
     44},
    {"smoke_layered_greedy", 68, 0xe97a47ac39a1fab1ull, "bucket", true, 3, 25,
     55},
    {"smoke_ft_vertex", 76, 0xf08a3dc9d9345103ull, "bucket", true, 1, 25, 44},
    {"smoke_ft_edge", 76, 0xf08a3dc9d9345103ull, "bucket", true, 1, 77, 44},
    {"smoke_ft2_rounding", 30, 0x699b38531cb7a4adull, "bucket", true, 2, 15,
     26},
    {"smoke_ft2_dk10", 33, 0xc148233db5241a03ull, "bucket", true, 1, 15, 22},
    {"smoke_ft2_lll", 30, 0x699b38531cb7a4adull, "bucket", true, 2, 15, 26},
    {"workload=gnp n=40 p=0.5 wseed=5 algo=ft_vertex k=3 r=1 seed=3 "
     "threads=1,4 reps=1 validate=exact timings=off",
     340, 0x46aaa617dbf45348ull, "bucket", true, 2, 41, 124},
    {"workload=gnp n=40 p=0.3 max_weight=100 wseed=5 algo=ft_vertex k=3 r=2 "
     "seed=3 threads=1,4 reps=1 validate=exact timings=off",
     177, 0xc563330c4967aceeull, "bucket", true, 1.1666666666666667, 821,
     41496},
    {"workload=gnp n=30 p=0.4 max_weight=100 wseed=5 algo=ft_edge k=3 r=1 "
     "seed=3 threads=1,4 reps=1 validate=exact timings=off",
     111, 0x626cd937e94c112eull, "bucket", true, 1.1636363636363636, 189,
     926},
    {"workload=sensor n=40 wseed=5 algo=ft_vertex k=3 r=1 seed=3 "
     "threads=1,4 reps=1 validate=exact timings=off",
     150, 0x2609403189033bdeull, "heap", true, 1.3797412741873816, 41, 102},
    {"workload=sensor n=60 wseed=5 algo=ft_edge k=3 r=1 seed=3 "
     "threads=1,4 reps=1 validate=exact timings=off",
     228, 0x434a53410bffb415ull, "heap", true, 1.325408979834829, 248, 143},
};

// A tracked row's spec text: a preset runs as committed, at threads 1 and
// 4 with timings off.
std::string tracked_text(const Tracked& row) {
  return runner::preset_registry().contains(row.spec)
             ? runner::preset_registry().get(row.spec).spec +
                   " threads=1,4 timings=off"
             : row.spec;
}

TEST(ScenarioRunner, TrackedCellsKeepTheirCommittedOutputs) {
  for (const Tracked& want : kTracked) {
    const std::string text = tracked_text(want);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const ScenarioReport report = runner::run_scenario(spec);
    ASSERT_EQ(report.cells.size(), 2u) << text;
    for (const runner::ScenarioCell& cell : report.cells) {
      const std::string where =
          text + " @ threads=" + std::to_string(cell.threads);
      EXPECT_EQ(cell.edges, want.edges) << where;
      EXPECT_EQ(cell.edges_hash, want.edges_hash) << where;
      EXPECT_EQ(cell.engine_resolved, want.engine_resolved) << where;
      if (spec.validate == "none") continue;
      EXPECT_EQ(cell.valid, want.valid) << where;
      EXPECT_EQ(cell.worst_stretch, want.worst_stretch) << where;
      EXPECT_EQ(cell.fault_sets, want.fault_sets) << where;
      EXPECT_EQ(cell.searches, want.searches) << where;
    }
  }
}

// The tracked cells' inputs, pinned like perfbench's
// (BenchmarkInputs.PerfbenchInstancesAreUnchanged in test_golden_conversion):
// the edge count and the FNV-1a hash of the (u, v, w) list of every distinct
// instance above, named by its canonical workload keys. A different libm
// under a generator or the reweight then fails here, as an input check,
// instead of silently moving a committed output.
struct TrackedInput {
  const char* workload;  ///< the workload keys of ScenarioSpec::to_string()
  std::size_t m;
  std::uint64_t edge_list_hash;
};
const TrackedInput kTrackedInputs[] = {
    {"workload=gnp n=400 p=0.05 wseed=1234", 4040, 0x12ef972825c6a0dcull},
    {"workload=gnp n=300 p=0.2 wseed=1234", 9092, 0x66ec281f1c6b9c83ull},
    {"workload=gnp n=400 p=0.05 max_weight=1e+05 wseed=1234", 4040,
     0xb8c29037534a97b0ull},
    {"workload=gnp n=300 p=0.2 max_weight=1e+05 wseed=1234", 9092,
     0x47725e81e3f6c5deull},
    {"workload=gnp n=400 p=0.1 wseed=1", 8049, 0xc0f9b59109e0b432ull},
    {"workload=gnp n=400 p=0.05 wseed=1", 3974, 0xdba84f48cb032f6ull},
    {"workload=gnp n=400 p=0.05 max_weight=1e+05 wseed=1", 3974,
     0xae8abdae914d7207ull},
    {"workload=gnp n=24 p=0.3 wseed=5", 76, 0xb8cf4d32a04c9ec6ull},
    {"workload=gnp n=14 p=0.4 wseed=7", 33, 0x661f3332879909c8ull},
    {"workload=gnp n=40 p=0.5 wseed=5", 387, 0xe872f93c128e6f73ull},
    {"workload=gnp n=40 p=0.3 max_weight=1e+02 wseed=5", 243,
     0xfac350fd4343b227ull},
    {"workload=gnp n=30 p=0.4 max_weight=1e+02 wseed=5", 188,
     0x42316713d3916b42ull},
    {"workload=sensor n=40 wseed=5", 178, 0x6099a7a00150e8fdull},
    {"workload=sensor n=60 wseed=5", 247, 0x1d9ba42af7548dd7ull},
};

TEST(ScenarioRunner, TrackedCellsKeepTheirInputs) {
  std::vector<std::string> seen;
  for (const Tracked& row : kTracked) {
    const ScenarioSpec spec = ScenarioSpec::parse(tracked_text(row));
    ASSERT_LE(spec.n.size(), 1u) << row.spec;
    // to_string() prints the workload keys first, from `workload` to
    // `wseed`; the instance depends on nothing else.
    const std::string text = spec.to_string();
    const std::string name = text.substr(0, text.find(" algo="));
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
    seen.push_back(name);

    runner::WorkloadParams params;
    params.n = spec.n.empty() ? 0 : spec.n[0];
    params.p = spec.p;
    params.scale = spec.scale;
    params.seed = spec.wseed;
    params.max_weight = spec.max_weight;
    params.path = spec.path;
    const Graph g = runner::make_workload(spec.workload, params).g;
    const auto want = std::find_if(
        std::begin(kTrackedInputs), std::end(kTrackedInputs),
        [&name](const TrackedInput& in) { return name == in.workload; });
    ASSERT_NE(want, std::end(kTrackedInputs))
        << "no pinned input for " << name << ": m=" << g.num_edges()
        << " hash=0x" << std::hex << test::edge_list_hash(g);
    EXPECT_EQ(g.num_edges(), want->m) << name;
    EXPECT_EQ(test::edge_list_hash(g), want->edge_list_hash)
        << name << ": 0x" << std::hex << test::edge_list_hash(g);
  }
  // Every pinned input belongs to a tracked row.
  EXPECT_EQ(seen.size(), std::size(kTrackedInputs));
}

// The serve presets measure wall clock, so they have no committed outputs;
// their load blocks must be internally consistent instead, and the chaos
// preset's faults and reload storm must actually happen.
TEST(ScenarioRunner, ServePresetsReportConsistentLoadBlocks) {
  for (const char* name : {"serve_smoke", "serve_chaos"}) {
    const ScenarioReport report = runner::run_scenario(
        ScenarioSpec::parse(runner::preset_registry().get(name).spec));
    ASSERT_EQ(report.cells.size(), 1u) << name;
    ASSERT_TRUE(report.cells[0].load.has_value()) << name;
    const serve::LoadTestResult& load = *report.cells[0].load;
    EXPECT_GT(load.requests, 0u) << name;
    EXPECT_EQ(load.errors, 0u) << name;
    EXPECT_GT(load.seconds, 0.0) << name;
    EXPECT_GT(load.achieved_qps, 0.0) << name;
    EXPECT_LE(0.0, load.p50_ms) << name;
    EXPECT_LE(load.p50_ms, load.p99_ms) << name;
    EXPECT_GT(load.cache_hits + load.cache_misses, 0u) << name;
    EXPECT_GE(load.cache_hit_rate, 0.0) << name;
    EXPECT_LE(load.cache_hit_rate, 1.0) << name;
    std::ostringstream json;
    runner::print_json(report, json);
    EXPECT_NE(json.str().find("\"load\": {\"requests\": " +
                              std::to_string(load.requests) + ", "),
              std::string::npos)
        << name;
    if (std::string(name) != "serve_chaos") continue;
    EXPECT_GT(load.chaos_events, 0u);
    EXPECT_GT(load.reloads_sent, 0u);
    EXPECT_GE(load.reloads_ok, 1u);
    EXPECT_GE(load.final_epoch, 2u);  // the storm landed at least one swap
  }
}

TEST(ScenarioRunner, TwoSpannerAlgorithmsForceK2AndValidate) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "workload=gnp n=14 p=0.4 wseed=7 algo=ft2_rounding k=3 r=1 seed=3 "
      "reps=1 validate=exact");
  const ScenarioReport report = runner::run_scenario(spec);
  ASSERT_EQ(report.cells.size(), 1u);
  const runner::ScenarioCell& cell = report.cells[0];
  EXPECT_EQ(cell.k, 2.0);  // fixed_k overrides the spec's k=3
  EXPECT_TRUE(cell.valid) << "worst stretch " << cell.worst_stretch;
  EXPECT_EQ(cell.stat("lemma_valid"), 1.0);
  EXPECT_GT(cell.stat("lp_value"), 0.0);
}

TEST(ScenarioRunner, UnknownNamesSurfaceFromTheDriver) {
  ScenarioSpec spec;
  spec.workload = "mystery";
  EXPECT_THROW(runner::run_scenario(spec), std::invalid_argument);
  spec.workload = "gnp";
  spec.algo = "mystery";
  EXPECT_THROW(runner::run_scenario(spec), std::invalid_argument);
}

TEST(ScenarioRunner, PresetsParseAndCoverEveryAlgorithm) {
  for (const std::string& name : runner::preset_registry().names()) {
    const runner::ScenarioPreset& preset =
        runner::preset_registry().get(name);
    // Every committed preset must parse and name registered entries.
    const ScenarioSpec spec = ScenarioSpec::parse(preset.spec);
    EXPECT_TRUE(runner::workload_registry().contains(spec.workload)) << name;
    EXPECT_TRUE(runner::algorithm_registry().contains(spec.algo)) << name;
  }
  // Every algorithm has a smoke preset, and every smoke preset a tracked
  // row with committed outputs.
  for (const std::string& algo : runner::algorithm_registry().names()) {
    const std::string preset = "smoke_" + algo;
    EXPECT_TRUE(runner::preset_registry().contains(preset)) << algo;
    EXPECT_TRUE(std::any_of(
        std::begin(kTracked), std::end(kTracked),
        [&preset](const Tracked& t) { return preset == t.spec; }))
        << preset;
  }
}

}  // namespace
}  // namespace ftspan
