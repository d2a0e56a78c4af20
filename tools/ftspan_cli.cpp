// ftspan_cli — command-line access to the library.
//
//   ftspan_cli gen <gnp|grid|geometric|complete> <args...> -o graph.txt
//   ftspan_cli spanner   -i graph.txt -k K [--algo greedy|bs|tz] [-o out.txt]
//   ftspan_cli ft        -i graph.txt -k K -r R [-c CONST] [--threads T]
//   ftspan_cli ftedge    -i graph.txt -k K -r R [-c CONST] [--threads T]
//   ftspan_cli ft2       -i digraph.txt -r R            (directed 2-spanner)
//   ftspan_cli check     -i graph.txt -s spanner.txt -k K -r R [--threads T]
//   ftspan_cli import    -i in.gr -o out.fgb [--format auto|dimacs|edgelist]
//   ftspan_cli info      -i graph.fgb         (validate + print the header)
//   ftspan_cli corpus    -o DIR [--scale S] [--seed S]
//   ftspan_cli selftest                                  (used by ctest)
//   ftspan_cli help                                      (full usage text)
//
// Graph files use the library's edge-list format (see src/graph/io.hpp) or
// the ftspan.graph.v1 binary format (src/graph/graph_file.hpp, written by
// `import`, `corpus`, and any `--binary` emit); every -i flag sniffs which
// one it was given by the file's magic.
// `--threads T` fans the conversion's sampling iterations across T worker
// threads (0 = all hardware threads); the output edge set is bit-identical
// to --threads 1 for the same seed (see oversample in
// src/ftspanner/conversion.cpp).
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/import.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "pipeline/burst_pipeline.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/workloads.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/greedy.hpp"
#include "spanner/thorup_zwick.hpp"
#include "spanner2/rounding.hpp"
#include "util/timer.hpp"
#include "validate/stretch_oracle.hpp"

using namespace ftspan;

namespace {

/// A malformed command line: main() prints it and exits 2, like usage().
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// "-k" / "--threads": how the user spelled the flag stored as `name`.
std::string flag_name(const std::string& name) {
  return (name.size() == 1 ? "-" : "--") + name;
}

/// `text` given for `what` (a flag like "-r", or a positional like "N") is
/// not `expected`.
UsageError invalid_value(const std::string& text, const std::string& what,
                         const char* expected) {
  return UsageError("invalid value '" + text + "' for " + what +
                    " (expected " + expected + ")");
}

/// The whole of `text` as a number; throws invalid_value otherwise.
double parse_number(const std::string& text, const std::string& what,
                    const char* expected = "a number") {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0') throw invalid_value(text, what, expected);
  return v;
}

/// The whole of `text` as a non-negative integer; throws invalid_value
/// otherwise.
std::size_t parse_count(const std::string& text, const std::string& what) {
  constexpr const char* kExpected = "a non-negative integer";
  const double v = parse_number(text, what, kExpected);
  if (!(v >= 0 && v < 0x1p64) || v != std::floor(v))
    throw invalid_value(text, what, kExpected);
  return static_cast<std::size_t>(v);
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --key value / -k value
  bool flag(const std::string& name) const { return options.count(name) > 0; }
  std::string get(const std::string& name, const std::string& dflt = "") const {
    const auto it = options.find(name);
    return it == options.end() ? dflt : it->second;
  }
  /// Numeric flag value, `dflt` when absent; throws UsageError unless the
  /// whole value parses as a number.
  double num(const std::string& name, double dflt) const {
    return flag(name) ? parse_number(get(name), flag_name(name)) : dflt;
  }
  /// Count flag (-r, --threads, --trials, --seed, ...): like num(), but the
  /// value must be a non-negative integer.
  std::size_t count(const std::string& name, std::size_t dflt) const {
    return flag(name) ? parse_count(get(name), flag_name(name)) : dflt;
  }
  /// -k, default 3: a stretch, finite and >= 1 like the library requires.
  double stretch() const {
    const double k = num("k", 3.0);
    if (!valid_stretch(k))
      throw invalid_value(get("k"), "-k", "a finite number >= 1");
    return k;
  }
  /// -c, default 1: the conversion's iteration constant, finite and > 0.
  double iteration_constant() const {
    const double c = num("c", 1.0);
    if (!(c > 0) || !std::isfinite(c))
      throw invalid_value(get("c"), "-c", "a finite number > 0");
    return c;
  }
};

/// A token after a flag is that flag's value unless it is itself a flag;
/// "-1" or "-.5" is a (negative) value, so count flags can reject it.
bool is_flag(const char* token) {
  return token[0] == '-' &&
         !std::isdigit(static_cast<unsigned char>(token[1])) &&
         token[1] != '.';
}

Args parse(int argc, char** argv, int from) {
  Args a;
  for (int i = from; i < argc; ++i) {
    std::string s = argv[i];
    if (is_flag(s.c_str())) {
      while (!s.empty() && s[0] == '-') s.erase(s.begin());
      if (i + 1 < argc && !is_flag(argv[i + 1]))
        a.options[s] = argv[++i];
      else
        a.options[s] = std::string("1");
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

/// Full usage text; printed to `out` (stderr on a parse error, stdout for
/// the `help` subcommand / --help). Covers every subcommand and flag.
void print_usage(std::FILE* out) {
  std::fprintf(out,
      "ftspan_cli — fault-tolerant spanners (Dinitz–Krauthgamer, PODC 2011)\n"
      "\n"
      "usage: ftspan_cli <subcommand> [options]\n"
      "\n"
      "subcommands:\n"
      "  gen gnp N P          random G(n, p) graph\n"
      "  gen grid ROWS COLS   ROWS x COLS grid graph\n"
      "  gen geometric N R    random geometric graph, connect radius R\n"
      "  gen complete N       complete graph K_N\n"
      "      common gen options: [--seed S] [-o FILE] [--binary]\n"
      "      without -o the graph is written to stdout (edge-list format,\n"
      "      see src/graph/io.hpp); --binary writes ftspan.graph.v1 instead\n"
      "      (requires -o; see docs/FORMATS.md)\n"
      "\n"
      "  import               stream a text instance into the binary format\n"
      "      -i FILE          input: DIMACS .gr (c/p/a/e lines) or this\n"
      "                       repo's edge-list format (required)\n"
      "      -o FILE          output ftspan.graph.v1 file (required)\n"
      "      --format F       auto (default, sniffed) | dimacs | edgelist\n"
      "\n"
      "  info                 validate a binary graph file, print its header\n"
      "      -i FILE          ftspan.graph.v1 file (required)\n"
      "\n"
      "  corpus               write one small binary graph per generated\n"
      "                       workload family (ctest's cli_formats input)\n"
      "      -o DIR           output directory (required; must exist)\n"
      "      --scale S        workload scale factor, default 0.25\n"
      "      --seed S         workload seed, default 1\n"
      "\n"
      "  spanner              plain k-spanner of an input graph\n"
      "      -i FILE          input graph (required)\n"
      "      -k K             stretch, default 3\n"
      "      --algo A         greedy | bs (Baswana–Sen) | tz (Thorup–Zwick)\n"
      "      --seed S         RNG seed for randomized algorithms, default 1\n"
      "      -o FILE          write the spanner as a graph file\n"
      "\n"
      "  ft                   r-VERTEX-fault-tolerant k-spanner (Theorem 2.1\n"
      "                       conversion over the greedy spanner)\n"
      "      -i FILE          input graph (required)\n"
      "      -k K             stretch, default 3\n"
      "      -r R             fault tolerance, default 1 (R >= 1)\n"
      "      -c CONST         iteration constant c > 0 in alpha =\n"
      "                       c(r+2)ln(n)/q, default 1 (the proof constant;\n"
      "                       A1 shows smaller values usually suffice)\n"
      "      --threads T      workers for the iterations and the check; 0 =\n"
      "                       all hardware threads, default 1. Output is\n"
      "                       bit-identical for every T given the same seed.\n"
      "      --seed S         RNG seed, default 1\n"
      "      -o FILE          write the spanner as a graph file\n"
      "\n"
      "  ftedge               r-EDGE-fault-tolerant k-spanner (the edge-fault\n"
      "                       variant of the conversion); same options as ft\n"
      "\n"
      "  ft2                  min-cost r-fault-tolerant 2-spanner of a DIRECTED\n"
      "                       graph (Section 3: LP rounding, O(r log n) approx)\n"
      "      -i FILE          input digraph (required)\n"
      "      -r R             fault tolerance, default 1\n"
      "      --seed S         RNG seed, default 1\n"
      "      -o FILE          write the 2-spanner as a digraph file\n"
      "\n"
      "  check                validate a spanner with the batched\n"
      "                       StretchOracle (one source-batched Dijkstra\n"
      "                       pair per endpoint, fault sets fanned across\n"
      "                       workers, deterministic worst witness)\n"
      "      -i FILE          original graph (required)\n"
      "      -s FILE          candidate spanner (required)\n"
      "      -k K             stretch to check, default 3\n"
      "      -r R             fault tolerance; 0 (default) = plain stretch\n"
      "      --exact          enumerate all fault sets of size <= R\n"
      "      --trials N       random fault sets (sampled mode), default 60\n"
      "      --adversarial N  targeted adversary probes, default 80\n"
      "      --threads T      fan fault sets across T workers; 0 = all\n"
      "                       hardware threads, default 1. The result is\n"
      "                       bit-identical for every T.\n"
      "      --seed S         RNG seed for the sampled mode, default 7\n"
      "\n"
      "  bench                run a scenario through the unified runner\n"
      "                       (workload x algorithm x k/r/threads sweep x\n"
      "                       validation; see docs/SCENARIOS.md)\n"
      "      bench <preset> [key=value ...]   run a named preset, overriding\n"
      "                                       spec keys from the command line\n"
      "      bench <key=value ...>            run an inline scenario spec\n"
      "      bench --list                     list presets, workloads, algos\n"
      "      --format F       table (default) | csv | json\n"
      "      -o FILE          write the report to FILE instead of stdout\n"
      "\n"
      "  serve                precompute an FT spanner and answer distance /\n"
      "                       stretch / fault-what-if queries over HTTP/JSON\n"
      "                       (GET /distance?s=S&t=T[&avoid=L],\n"
      "                       /stretch?s=S&t=T[&avoid=L], /stats, /healthz;\n"
      "                       POST /admin/reload[?path=F] hot-swaps the\n"
      "                       graph; avoid L = comma list: 7 = vertex 7,\n"
      "                       3-5 = edge)\n"
      "      -i FILE          input graph (required)\n"
      "      -k K             stretch, default 3\n"
      "      -r R             fault tolerance, default 1\n"
      "      -c CONST         conversion iteration constant, default 1\n"
      "      --host H         bind address, default 127.0.0.1\n"
      "      --port P         port; 0 picks an ephemeral one (printed),\n"
      "                       default 8080\n"
      "      --threads T      query worker lanes (at most 256), default 1\n"
      "      --cache N        answer-cache entries (0 disables), default 1024\n"
      "      --seed S         RNG seed for the conversion, default 1\n"
      "      --max-pipeline N requests parsed per connection per poll round,\n"
      "                       default 16 (excess defers, never drops)\n"
      "      --max-pending N  queries admitted per batch before 503 +\n"
      "                       Retry-After shedding, default 512\n"
      "      --deadline-ms D  per-request deadline (503 past it); 0 = off\n"
      "      SIGINT/SIGTERM stop gracefully; SIGHUP reloads the graph file\n"
      "      (a failed reload keeps the old graph serving; see /healthz).\n"
      "\n"
      "  version              print the build's git describe and build type\n"
      "  selftest             gen -> ft -> exact-verify round trip (ctest)\n"
      "  help                 print this text\n"
      "\n"
      "exit status: 0 on success / valid, 1 on failure / invalid, 2 on usage\n"
      "errors.\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

void emit(const Graph& g, const std::string& path, bool binary = false) {
  if (path.empty()) {
    if (binary)
      throw std::runtime_error("--binary needs -o FILE (binary to a "
                               "terminal is never what you want)");
    write_graph(std::cout, g);
  } else {
    if (binary)
      save_graph_binary(path, g);
    else
      save_graph(path, g);
    std::printf("wrote %s (n=%zu, m=%zu%s)\n", path.c_str(), g.num_vertices(),
                g.num_edges(), binary ? ", ftspan.graph.v1" : "");
  }
}

int cmd_gen(const Args& a) {
  if (a.positional.empty()) return usage();
  const std::string kind = a.positional[0];
  const std::uint64_t seed = a.count("seed", 1);
  // Positional i as a count / a number in [lo, hi], named `what` in errors.
  const auto count = [&a](std::size_t i, const char* what) {
    return parse_count(a.positional[i], what);
  };
  const auto number = [&a](std::size_t i, const char* what, double lo,
                           double hi, const char* expected) {
    const double v = parse_number(a.positional[i], what, expected);
    if (!(v >= lo && v <= hi))
      throw invalid_value(a.positional[i], what, expected);
    return v;
  };
  Graph g;
  if (kind == "gnp" && a.positional.size() >= 3) {
    const std::size_t n = count(1, "N");
    g = gnp(n, number(2, "P", 0, 1, "a probability in [0, 1]"), seed);
  } else if (kind == "grid" && a.positional.size() >= 3) {
    const std::size_t rows = count(1, "ROWS");
    g = grid(rows, count(2, "COLS"));
  } else if (kind == "geometric" && a.positional.size() >= 3) {
    const std::size_t n = count(1, "N");
    g = random_geometric(n,
                         number(2, "R", 0, std::numeric_limits<double>::max(),
                                "a finite number >= 0"),
                         seed);
  } else if (kind == "complete" && a.positional.size() >= 2) {
    g = complete(count(1, "N"));
  } else {
    return usage();
  }
  emit(g, a.get("o"), a.flag("binary"));
  return 0;
}

int cmd_spanner(const Args& a) {
  const std::string in = a.get("i");
  const double k = a.stretch();
  if (in.empty()) return usage();
  const Graph g = load_graph_any(in);
  const std::string algo = a.get("algo", "greedy");
  const std::uint64_t seed = a.count("seed", 1);

  std::vector<EdgeId> edges;
  if (algo == "greedy") {
    edges = greedy_spanner(g, k);
  } else if (algo == "bs") {
    edges = baswana_sen_spanner(g, static_cast<std::size_t>((k + 1) / 2), seed);
  } else if (algo == "tz") {
    edges = thorup_zwick_spanner(g, static_cast<std::size_t>((k + 1) / 2), seed);
  } else {
    return usage();
  }
  const Graph h = g.edge_subgraph(edges);
  std::printf("%s %g-spanner: %zu -> %zu edges, stretch (exact over edges): %.3f\n",
              algo.c_str(), k, g.num_edges(), h.num_edges(),
              StretchOracle(g, h, k).max_stretch());
  emit(h, a.get("o"), a.flag("binary"));
  return 0;
}

/// Shared driver for `ft` and `ftedge`: parse the common flags, run the
/// conversion, sampled-check the result, print the summary line, emit -o,
/// and map validity to the exit status. `edge_faults` selects the fault
/// model (and the oracle's matching check).
int run_ft_conversion(const Args& a, bool edge_faults) {
  const std::string in = a.get("i");
  if (in.empty()) return usage();
  const double k = a.stretch();
  const std::size_t r = a.count("r", 1);
  if (r == 0) throw invalid_value(a.get("r"), "-r", "an integer >= 1");
  ConversionOptions opt;
  opt.iteration_constant = a.iteration_constant();
  opt.threads = a.count("threads", 1);
  const std::uint64_t seed = a.count("seed", 1);
  const Graph g = load_graph_any(in);

  // The fault model picks the conversion and the oracle's matching check
  // (40 random + 60 adversarial sets, seed 99), both on T threads.
  const auto convert = edge_faults ? ft_edge_greedy_spanner : ft_greedy_spanner;
  const ConversionResult res = convert(g, k, r, seed, opt);
  const Graph h = g.edge_subgraph(res.edges);
  const StretchOracle oracle(g, h, k);
  FtCheckOptions check_opt;
  check_opt.threads = opt.threads;
  const FtCheckResult check =
      edge_faults ? oracle.check_sampled_edges(r, 40, 60, 99, check_opt)
                  : oracle.check_sampled(r, 40, 60, 99, check_opt);
  std::printf("%zu-%sfault-tolerant %g-spanner: %zu -> %zu edges "
              "(%zu iterations, %zu threads); sampled check: %s "
              "(worst stretch %.3f)\n",
              r, edge_faults ? "edge-" : "", k, g.num_edges(), h.num_edges(),
              res.iterations, res.threads_used,
              check.valid ? "valid" : "INVALID", check.worst_stretch);
  emit(h, a.get("o"), a.flag("binary"));
  return check.valid ? 0 : 1;
}

/// `ft` — the vertex-fault conversion of Theorem 2.1 over the greedy
/// spanner, followed by a sampled fault-tolerance check of the output.
int cmd_ft(const Args& a) { return run_ft_conversion(a, /*edge_faults=*/false); }

/// `ftedge` — the edge-fault variant of the conversion, checked with the
/// oracle's sampled + adversarial edge-fault check.
int cmd_ftedge(const Args& a) {
  return run_ft_conversion(a, /*edge_faults=*/true);
}

int cmd_ft2(const Args& a) {
  const std::string in = a.get("i");
  if (in.empty()) return usage();
  std::ifstream is(in);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", in.c_str());
    return 1;
  }
  const Digraph g = read_digraph(is);
  const std::size_t r = a.count("r", 1);
  const auto res = approx_ft_2spanner(g, r, a.count("seed", 1));
  std::printf("%zu-fault-tolerant 2-spanner: cost %.3f (LP lower bound %.3f), "
              "valid: %s\n",
              r, res.cost, res.lp_value, res.valid ? "yes" : "NO");
  const std::string out = a.get("o");
  if (!out.empty()) {
    Digraph h(g.num_vertices());
    for (EdgeId id = 0; id < g.num_edges(); ++id)
      if (res.in_spanner[id]) {
        const DiEdge& e = g.edge(id);
        h.add_edge(e.u, e.v, e.w);
      }
    std::ofstream os(out);
    write_digraph(os, h);
    std::printf("wrote %s\n", out.c_str());
  }
  return res.valid ? 0 : 1;
}

/// `check` — the oracle-backed validator: exact (fault-set enumeration) or
/// sampled + adversarial, with a threads knob and a witness report.
int cmd_check(const Args& a) {
  const std::string in = a.get("i"), sp = a.get("s");
  if (in.empty() || sp.empty()) return usage();
  const double k = a.stretch();
  const std::size_t r = a.count("r", 0);
  const bool exact = a.flag("exact") || r == 0;  // r = 0 enumerates only ∅
  FtCheckOptions opt;
  opt.threads = a.count("threads", 1);
  const std::size_t trials = a.count("trials", 60);
  const std::size_t adversarial = a.count("adversarial", 80);
  const std::uint64_t seed = a.count("seed", 7);

  const Graph g = load_graph_any(in);
  const Graph h = load_graph_any(sp);
  const StretchOracle oracle(g, h, k);
  Timer timer;
  const FtCheckResult res =
      exact ? oracle.check_exact(r, opt)
            : oracle.check_sampled(r, trials, adversarial, seed, opt);
  const double ms = timer.millis();

  std::printf("%s oracle check: %s (worst stretch %.4f over %zu fault sets, "
              "%.1f ms, %.0f sets/s)\n",
              exact ? "exact" : "sampled", res.valid ? "valid" : "INVALID",
              res.worst_stretch, res.fault_sets_checked, ms,
              res.fault_sets_checked / (ms > 0 ? ms / 1e3 : 1.0));
  if (res.witness_u != kInvalidVertex) {
    std::printf("worst pair: (%u, %u), fault set {", res.witness_u,
                res.witness_v);
    bool first = true;
    for (const Vertex v : res.witness_faults.to_vector()) {
      std::printf("%s%u", first ? "" : ", ", v);
      first = false;
    }
    std::printf("}\n");
  }
  return res.valid ? 0 : 1;
}

// Configure-time stamps (see CMakeLists.txt); fall back gracefully when the
// CLI is compiled outside the CMake build.
#ifndef FTSPAN_GIT_DESCRIBE
#define FTSPAN_GIT_DESCRIBE "unknown"
#endif
#ifndef FTSPAN_BUILD_TYPE
#define FTSPAN_BUILD_TYPE "unknown"
#endif

/// `import` — stream a DIMACS .gr / text edge-list file into the
/// ftspan.graph.v1 binary format (src/graph/import.hpp).
int cmd_import(const Args& a) {
  const std::string in = a.get("i"), out = a.get("o");
  if (in.empty() || out.empty()) return usage();
  const std::string fmt = a.get("format", "auto");
  ImportFormat format;
  if (fmt == "auto") {
    format = ImportFormat::kAuto;
  } else if (fmt == "dimacs") {
    format = ImportFormat::kDimacs;
  } else if (fmt == "edgelist") {
    format = ImportFormat::kEdgeList;
  } else {
    std::fprintf(stderr, "unknown --format '%s' (auto | dimacs | edgelist)\n",
                 fmt.c_str());
    return 2;
  }
  const ImportResult res = import_graph_file(in, out, format);
  std::printf("imported %s -> %s: n=%zu m=%zu (%zu lines, %zu arcs seen, "
              "%zu duplicates dropped, %zu self-loops dropped)\n",
              in.c_str(), out.c_str(), res.n, res.edges, res.lines,
              res.arcs_seen, res.duplicates, res.self_loops);
  return 0;
}

/// `info` — validate a binary graph file and print its header facts.
int cmd_info(const Args& a) {
  const std::string in = a.get("i");
  if (in.empty()) return usage();
  if (!is_graph_binary(in)) {
    std::fprintf(stderr, "%s is not an ftspan.graph.v1 file\n", in.c_str());
    return 1;
  }
  const MappedGraph mg(in);
  const GraphFileHeader& h = mg.header();
  std::printf("%s: ftspan.graph.v1\n", in.c_str());
  std::printf("  n                %llu\n", (unsigned long long)h.n);
  std::printf("  m                %llu\n", (unsigned long long)h.m);
  std::printf("  arcs             %llu\n", (unsigned long long)h.num_arcs);
  std::printf("  weights          %s, max %.17g, total (per arc) %.17g\n",
              h.weights_integral ? "integral" : "real", h.max_weight,
              h.total_weight);
  std::printf("  checksum         %016llx (verified)\n",
              (unsigned long long)h.checksum);
  return 0;
}

/// `corpus` — one tiny binary graph per generated workload family, written
/// to a directory: the committed-seed corpus ctest's cli_formats entry
/// round-trips.
int cmd_corpus(const Args& a) {
  const std::string dir = a.get("o");
  if (dir.empty()) return usage();
  runner::WorkloadParams wp;
  wp.scale = a.num("scale", 0.25);
  wp.seed = a.count("seed", 1);
  for (const std::string& name : runner::workload_registry().names()) {
    // Skip the families that exist to consume external input (file) or to
    // parameterize the daemon load test (serve) — neither is a generator
    // family the corpus should snapshot.
    if (name == "file" || name == "serve") continue;
    const runner::WorkloadInstance inst =
        runner::workload_registry().get(name).make(wp);
    const std::string path = dir + "/" + name + ".fgb";
    save_graph_binary(path, inst.g);
    std::printf("wrote %s (%s, n=%zu, m=%zu)\n", path.c_str(),
                inst.params.c_str(), inst.g.num_vertices(),
                inst.g.num_edges());
  }
  return 0;
}

/// The running daemon, for the signal handlers: stop() and trigger_reload()
/// are async-signal-safe (a single self-pipe write), so SIGINT/SIGTERM shut
/// the loop down gracefully — flush, close, return from run() — and SIGHUP
/// hot-reloads the graph, instead of killing the process mid-response.
serve::ServeDaemon* g_daemon = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_daemon != nullptr) g_daemon->stop();
}

extern "C" void serve_reload_handler(int) {
  if (g_daemon != nullptr) g_daemon->trigger_reload();
}

/// `serve` — precompute the FT spanner, then answer queries over HTTP.
/// SIGHUP or POST /admin/reload rebuilds from the graph file (or a new
/// `path=` target) on a background thread and swaps epochs atomically.
int cmd_serve(const Args& a) {
  const std::string in = a.get("i");
  if (in.empty()) return usage();
  const double k = a.stretch();
  const std::size_t r = a.count("r", 1);
  const std::size_t threads = a.count("threads", 1);
  if (threads > kMaxWorkers)
    throw invalid_value(a.get("threads"), "--threads", "an integer in [0, 256]");
  const std::uint64_t seed = a.count("seed", 1);

  serve::ServeOptions so;
  so.host = a.get("host", "127.0.0.1");
  const std::size_t port = a.count("port", 8080);
  if (port > 65535)
    throw invalid_value(a.get("port"), "--port", "an integer in [0, 65535]");
  so.port = static_cast<std::uint16_t>(port);
  so.max_pipeline = a.count("max-pipeline", 16);
  so.max_pending = a.count("max-pending", 512);
  const std::size_t deadline_ms = a.count("deadline-ms", 0);
  if (deadline_ms > static_cast<std::size_t>(std::numeric_limits<int>::max()))
    throw invalid_value(a.get("deadline-ms"), "--deadline-ms",
                        "an integer in [0, 2147483647]");
  so.deadline_ms = static_cast<int>(deadline_ms);

  ConversionOptions copt;
  copt.iteration_constant = a.iteration_constant();
  copt.threads = threads;

  serve::QueryEngine::Options qo;
  qo.workers = threads == 0 ? 1 : threads;
  qo.cache_capacity = a.count("cache", 1024);

  // The reload builder: load + convert + engine-build, identically to the
  // initial boot. An empty path means "the current source again" (the
  // SIGHUP shape); a failed build throws and leaves the old epoch serving.
  const auto build_epoch =
      [k, r, seed, copt, qo](const std::string& path) {
        Graph g = load_graph_any(path);
        const auto res = ft_greedy_spanner(g, k, r, seed, copt);
        return serve::EngineEpoch::build(std::move(g), res.edges, k, qo,
                                         path);
      };
  const std::shared_ptr<serve::EngineEpoch> first = build_epoch(in);
  auto epochs = std::make_shared<serve::EpochManager>(
      first, [build_epoch](const std::string& path) {
        return build_epoch(path);
      });

  serve::ServeDaemon daemon(epochs, so);
  daemon.listen();

  g_daemon = &daemon;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGHUP, serve_reload_handler);

  std::printf("serving on %s:%u — n=%zu m=%zu spanner=%zu k=%g r=%zu "
              "workers=%zu\n",
              so.host.c_str(), daemon.port(), first->graph.num_vertices(),
              first->graph.num_edges(),
              first->engine->spanner().num_edges(), k, r, qo.workers);
  std::printf("endpoints: /distance?s=S&t=T[&avoid=L]  /stretch?...  "
              "/stats  /healthz  POST /admin/reload[?path=F]  "
              "(SIGINT/SIGTERM to stop, SIGHUP to reload)\n");
  std::fflush(stdout);  // scripts scrape the port line before querying

  daemon.run();
  g_daemon = nullptr;
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);

  const serve::ServeDaemon::Stats& st = daemon.stats();
  const serve::EpochManager::Status es = epochs->status();
  std::printf("stopped: %llu requests (%llu rejected, %llu shed, "
              "%llu deadline), %llu connections, epoch %llu "
              "(%llu reloads ok, %llu failed)\n",
              (unsigned long long)st.requests,
              (unsigned long long)st.bad_requests,
              (unsigned long long)(st.shed + st.internal_errors),
              (unsigned long long)st.deadline_hits,
              (unsigned long long)st.connections,
              (unsigned long long)es.epoch, (unsigned long long)es.ok,
              (unsigned long long)es.failed);
  return 0;
}

/// `version` — the build's git describe and CMake build type.
int cmd_version() {
  std::printf("ftspan %s (%s build)\n", FTSPAN_GIT_DESCRIBE,
              FTSPAN_BUILD_TYPE);
  return 0;
}

/// `bench` — the unified scenario runner: a named preset or an inline
/// key=value spec, optional spec overrides, table/csv/json output.
int cmd_bench(const Args& a) {
  if (a.flag("list")) {
    std::printf("presets:\n");
    for (const std::string& name : runner::preset_registry().names())
      std::printf("  %-28s %s\n", name.c_str(),
                  runner::preset_registry().get(name).summary.c_str());
    std::printf("\nworkloads:\n");
    for (const std::string& name : runner::workload_registry().names())
      std::printf("  %-28s %s\n", name.c_str(),
                  runner::workload_registry().get(name).summary.c_str());
    std::printf("\nalgorithms:\n");
    for (const std::string& name : runner::algorithm_registry().names())
      std::printf("  %-28s %s\n", name.c_str(),
                  runner::algorithm_registry().get(name).summary.c_str());
    return 0;
  }
  if (a.positional.empty()) return usage();

  const std::string format = a.get("format", "table");
  if (format != "table" && format != "csv" && format != "json")
    throw invalid_value(format, "--format", "table, csv or json");

  // A first positional without '=' names a preset; everything else (and
  // every later positional) is appended as key=value overrides — the spec
  // parser lets later keys win. An unknown preset, workload or algorithm
  // and a malformed spec are usage errors, caught before any work runs.
  runner::ScenarioSpec spec;
  try {
    std::string spec_text;
    std::size_t first = 0;
    if (a.positional[0].find('=') == std::string::npos) {
      spec_text = runner::preset_registry().get(a.positional[0]).spec;
      first = 1;
    }
    for (std::size_t i = first; i < a.positional.size(); ++i)
      spec_text += " " + a.positional[i];
    spec = runner::ScenarioSpec::parse(spec_text);
    runner::workload_registry().get(spec.workload);
    runner::algorithm_registry().get(spec.algo);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  const runner::ScenarioReport report = runner::run_scenario(spec);

  const std::string out = a.get("o");
  std::ofstream file;
  if (!out.empty()) {
    file.open(out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
      return 1;
    }
  }
  std::ostream& os = out.empty() ? std::cout : file;
  if (format == "table") {
    os << "# spec: " << spec.to_string() << "\n";
    runner::print_table(report, os);
  } else if (format == "csv") {
    runner::print_csv(report, os);
  } else {
    runner::print_json(report, os);
  }
  if (!out.empty()) std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_selftest() {
  // gen → text-format round trip → ft → exact verify; exercised by ctest.
  // The round trip stays in memory, so concurrent runs share no file.
  const Graph g = gnp(24, 0.4, 5);
  std::stringstream text;
  write_graph(text, g);
  const Graph g2 = read_graph(text);
  if (g2.num_edges() != g.num_edges()) {
    std::fprintf(stderr, "selftest: io round trip failed\n");
    return 1;
  }
  const auto res = ft_greedy_spanner(g2, 3.0, 1, 3);
  const Graph h = g2.edge_subgraph(res.edges);
  const auto check = StretchOracle(g2, h, 3.0).check_exact(1);
  if (!check.valid) {
    std::fprintf(stderr, "selftest: FT check failed (stretch %.3f)\n",
                 check.worst_stretch);
    return 1;
  }
  std::printf("selftest ok: n=%zu m=%zu spanner=%zu\n", g.num_vertices(),
              g.num_edges(), res.edges.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // `help` as a subcommand, or --help/-h anywhere (e.g. `ftspan_cli ft
  // --help`), prints the full usage to stdout.
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if ((i == 1 && s == "help") || s == "--help" || s == "-h") {
      print_usage(stdout);
      return 0;
    }
  }
  const Args a = parse(argc, argv, 2);
  try {
    if (cmd == "gen") return cmd_gen(a);
    if (cmd == "spanner") return cmd_spanner(a);
    if (cmd == "ft") return cmd_ft(a);
    if (cmd == "ftedge") return cmd_ftedge(a);
    if (cmd == "ft2") return cmd_ft2(a);
    if (cmd == "check") return cmd_check(a);
    if (cmd == "bench") return cmd_bench(a);
    if (cmd == "import") return cmd_import(a);
    if (cmd == "info") return cmd_info(a);
    if (cmd == "corpus") return cmd_corpus(a);
    if (cmd == "serve") return cmd_serve(a);
    if (cmd == "version") return cmd_version();
    if (cmd == "selftest") return cmd_selftest();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
