#include "runner/runner.hpp"

#include <cstdio>
#include <ostream>
#include <thread>

#include "graph/csr.hpp"
#include "graph/engine_policy.hpp"
#include "runner/workloads.hpp"
#include "util/mem.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan::runner {

double ScenarioCell::stat(const std::string& name, double dflt) const {
  for (const auto& [key, value] : stats)
    if (key == name) return value;
  return dflt;
}

std::uint64_t edge_set_hash(const std::vector<EdgeId>& edges) {
  std::uint64_t h = 1469598103934665603ull;
  for (const EdgeId e : edges)
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(e) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

namespace {

/// Runs the spec's validation mode on (g, h) and stores the outcome in
/// `cell`. Every fault model goes through the StretchOracle: plain stretch
/// (r = 0) and vertex faults through check_exact / check_sampled, edge
/// faults through their _edges counterparts.
void validate_cell(const ScenarioSpec& spec, const Graph& g, const Graph& h,
                   FaultModel model, ScenarioCell& cell) {
  cell.validate = spec.validate;
  if (spec.validate == "none") return;
  const bool exact = spec.validate == "exact";
  FtCheckOptions opt;
  opt.threads = cell.threads;
  // Like construction: metrics come from repetition 0, later repetitions
  // redo identical work purely to take the best wall clock. The oracle (and
  // its CSR snapshots) is built once and pooled across repetitions, so the
  // timed region is the validation hot path only.
  const StretchOracle oracle(g, h, cell.k);
  const auto check = [&] {
    if (model == FaultModel::kEdge)
      return exact ? oracle.check_exact_edges(cell.r, opt)
                   : oracle.check_sampled_edges(cell.r, spec.trials,
                                                spec.adversarial, spec.vseed,
                                                opt);
    return exact ? oracle.check_exact(cell.r, opt)
                 : oracle.check_sampled(cell.r, spec.trials, spec.adversarial,
                                        spec.vseed, opt);
  };
  for (std::size_t rep = 0; rep < spec.reps; ++rep) {
    Timer timer;
    const FtCheckResult res = check();
    const double sec = timer.seconds();
    if (rep == 0 || sec < cell.val_seconds) cell.val_seconds = sec;
    if (rep > 0) continue;
    cell.valid = res.valid;
    cell.worst_stretch = res.worst_stretch;
    cell.fault_sets = res.fault_sets_checked;
    cell.searches = res.searches;
    cell.witness_u = res.witness_u;
    cell.witness_v = res.witness_v;
  }
}

}  // namespace

ScenarioReport run_scenarios(const std::vector<ScenarioSpec>& specs) {
  ScenarioReport report;
  report.specs = specs;
  for (const ScenarioSpec& spec : specs) {
    report.first_cell.push_back(report.cells.size());
    const SpannerAlgorithm& algo = algorithm_registry().get(spec.algo);

    const std::vector<std::size_t> sizes =
        spec.n.empty() ? std::vector<std::size_t>{0} : spec.n;
    for (const std::size_t size : sizes) {
      WorkloadParams wp;
      wp.n = size;
      wp.p = spec.p;
      wp.scale = spec.scale;
      wp.seed = spec.wseed;
      wp.max_weight = spec.max_weight;
      wp.path = spec.path;
      // Through make_workload (not workload.make) so the max_weight
      // reweight pass applies uniformly to every family.
      const WorkloadInstance instance = make_workload(spec.workload, wp);
      const Graph& g = instance.g;

      // The SP queue every engine resolves to on the base graph's weight
      // profile — reported per cell as engine_resolved.
      WeightProfile profile;
      for (EdgeId id = 0; id < g.num_edges(); ++id)
        profile.observe(g.edge(id).w);
      const char* const engine_resolved = to_string(select_sp_queue(
          SpEnginePolicy::kAuto, profile.exact_sums(), profile.max_weight));

      // One bound algorithm per instance: the k/r/threads sweep and every
      // timing repetition below share its pooled scratch.
      const BoundAlgorithm bound = algo.bind(g);

      for (const double k : spec.k)
        for (const std::size_t r : spec.r)
          for (const std::size_t threads : spec.threads) {
            ScenarioCell cell;
            cell.workload = spec.workload;
            cell.params = instance.params;
            cell.n = g.num_vertices();
            cell.m = g.num_edges();
            cell.algorithm = spec.algo;
            cell.k = algo.fixed_k > 0 ? algo.fixed_k : k;
            cell.r = r;
            cell.threads = threads;
            cell.reps = spec.reps;

            AlgoParams ap;
            ap.k = cell.k;
            ap.r = r;
            ap.c = spec.c;
            ap.iterations = spec.iters;
            ap.threads = threads;
            ap.seed = spec.seed;
            cell.engine_resolved = engine_resolved;

            // Metrics come from the first repetition; later repetitions
            // redo identical work purely to take the best wall clock.
            AlgoResult result;
            for (std::size_t rep = 0; rep < spec.reps; ++rep) {
              Timer timer;
              AlgoResult run = bound(ap);
              const double sec = timer.seconds();
              if (rep == 0 || sec < cell.seconds_best)
                cell.seconds_best = sec;
              if (rep == 0) result = std::move(run);
            }
            cell.edges = result.edges.size();
            cell.edges_hash = edge_set_hash(result.edges);
            cell.stats = std::move(result.stats);
            cell.hw_concurrency = std::thread::hardware_concurrency();

            const Graph h = g.edge_subgraph(result.edges);
            validate_cell(spec, g, h, algo.model, cell);

            // workload=serve with a load phase: stand the daemon up over
            // the spanner just built and drive it. Gated on timings like
            // every other wall-clock metric, so timings=off JSON stays
            // bit-identical across hosts and thread counts.
            if (spec.workload == "serve" && spec.duration > 0 &&
                spec.timings) {
              serve::QueryEngine::Options qo;
              qo.workers = threads;
              serve::LoadTestOptions lo;
              lo.qps = spec.qps;
              lo.conns = spec.conns;
              lo.duration = spec.duration;
              lo.seed = spec.seed;
              lo.chaos = spec.chaos;
              lo.reload_every = spec.reload_every;
              if (spec.reload_every > 0) {
                // Reload storms need a rebuildable epoch: the builder
                // reconstructs the engine from a captured copy of the
                // graph and spanner, so every epoch answers bit-identically
                // and the storm only exercises the swap machinery.
                auto rebuild = [g, edges = result.edges, k = cell.k,
                                qo](const std::string&) {
                  return serve::EngineEpoch::build(g, edges, k, qo,
                                                   "inline");
                };
                auto epochs = std::make_shared<serve::EpochManager>(
                    rebuild(""), rebuild);
                cell.load = run_load_test(epochs, lo);
              } else {
                serve::QueryEngine engine(g, result.edges, cell.k, qo);
                cell.load = run_load_test(engine, lo);
              }
            }

            cell.peak_rss = peak_rss_bytes();
            report.cells.push_back(std::move(cell));
          }
    }
  }
  return report;
}

ScenarioReport run_scenario(const ScenarioSpec& spec) {
  return run_scenarios({spec});
}

namespace {

/// The shared table/CSV layout.
Table report_table(const ScenarioReport& report) {
  Table t({"workload", "params", "algo", "k", "r", "thr", "m", "|H|",
           "|H|/m", "iters", "valid", "worst stretch", "sets", "sec",
           "val sec"});
  const bool timings = [&report] {
    for (const ScenarioSpec& s : report.specs)
      if (!s.timings) return false;
    return true;
  }();
  for (const ScenarioCell& c : report.cells) {
    auto& row = t.row();
    row.cell(c.workload)
        .cell(c.params)
        .cell(c.algorithm)
        .cell(format_double(c.k))
        .cell(c.r)
        .cell(c.threads)
        .cell(c.m)
        .cell(c.edges)
        .cell(c.m > 0 ? static_cast<double>(c.edges) / c.m : 0.0, 3);
    const double iters = c.stat("iterations", -1);
    row.cell(iters >= 0 ? std::to_string(static_cast<std::size_t>(iters))
                        : std::string("-"));
    if (c.validate == "none") {
      row.cell("-").cell("-").cell("-");
    } else {
      row.cell(c.valid ? "yes" : "NO")
          .cell(c.worst_stretch >= kInfiniteWeight
                    ? std::string("disconnected")
                    : format_double(c.worst_stretch))
          .cell(c.fault_sets);
    }
    if (timings) {
      row.cell(c.seconds_best, 3);
      if (c.validate == "none")
        row.cell("-");
      else
        row.cell(c.val_seconds, 3);
    } else {
      row.cell("-").cell("-");
    }
  }
  return t;
}

void json_escape(const std::string& s, std::ostream& os) {
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << ch;
    }
  }
}

/// JSON number: integers print without a fraction, infinities as strings
/// (JSON has no inf literal), everything else in shortest round-trip form.
void json_number(double v, std::ostream& os) {
  if (v >= kInfiniteWeight || v <= -kInfiniteWeight) {
    os << '"' << format_double(v) << '"';
    return;
  }
  os << format_double(v);
}

void json_cell(const ScenarioCell& c, bool timings, std::ostream& os,
               const char* indent) {
  os << indent << "{\n";
  const std::string in = std::string(indent) + "  ";
  os << in << "\"workload\": \"" << c.workload << "\",\n";
  os << in << "\"params\": \"";
  json_escape(c.params, os);
  os << "\",\n";
  os << in << "\"n\": " << c.n << ",\n";
  os << in << "\"m\": " << c.m << ",\n";
  os << in << "\"algorithm\": \"" << c.algorithm << "\",\n";
  os << in << "\"k\": ";
  json_number(c.k, os);
  os << ",\n";
  os << in << "\"r\": " << c.r << ",\n";
  os << in << "\"threads\": " << c.threads << ",\n";
  os << in << "\"edges\": " << c.edges << ",\n";
  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016llx",
                static_cast<unsigned long long>(c.edges_hash));
  os << in << "\"edges_hash\": \"" << hash << "\",\n";
  os << in << "\"engine_resolved\": \"" << c.engine_resolved << "\",\n";
  os << in << "\"stats\": {";
  for (std::size_t i = 0; i < c.stats.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << c.stats[i].first << "\": ";
    json_number(c.stats[i].second, os);
  }
  os << "},\n";
  os << in << "\"validate\": \"" << c.validate << "\"";
  if (c.validate != "none") {
    os << ",\n" << in << "\"valid\": " << (c.valid ? "true" : "false");
    os << ",\n" << in << "\"worst_stretch\": ";
    json_number(c.worst_stretch, os);
    os << ",\n" << in << "\"fault_sets\": " << c.fault_sets;
    os << ",\n" << in << "\"searches\": " << c.searches;
    os << ",\n"
       << in << "\"witness_u\": "
       << (c.witness_u == kInvalidVertex
               ? -1
               : static_cast<long long>(c.witness_u));
    os << ",\n"
       << in << "\"witness_v\": "
       << (c.witness_v == kInvalidVertex
               ? -1
               : static_cast<long long>(c.witness_v));
  }
  if (timings) {
    os << ",\n" << in << "\"reps\": " << c.reps;
    os << ",\n" << in << "\"seconds_best\": ";
    json_number(c.seconds_best, os);
    const double iters = c.stat("iterations", -1);
    if (iters > 0 && c.seconds_best > 0) {
      os << ",\n" << in << "\"iters_per_sec\": ";
      json_number(iters / c.seconds_best, os);
    }
    if (c.validate != "none") {
      os << ",\n" << in << "\"val_seconds\": ";
      json_number(c.val_seconds, os);
      if (c.val_seconds > 0) {
        os << ",\n" << in << "\"sets_per_sec\": ";
        json_number(c.fault_sets / c.val_seconds, os);
      }
    }
    // Machine-dependent like the clocks, so it lives (and dies) with them:
    // timings=off keeps the JSON bit-identical across hosts.
    os << ",\n" << in << "\"peak_rss_bytes\": " << c.peak_rss;
    os << ",\n" << in << "\"hardware_concurrency\": " << c.hw_concurrency;
    if (c.load) {
      const serve::LoadTestResult& load = *c.load;
      os << ",\n" << in << "\"load\": {";
      os << "\"requests\": " << load.requests;
      os << ", \"errors\": " << load.errors;
      os << ", \"seconds\": ";
      json_number(load.seconds, os);
      os << ", \"qps\": ";
      json_number(load.achieved_qps, os);
      os << ", \"p50_ms\": ";
      json_number(load.p50_ms, os);
      os << ", \"p99_ms\": ";
      json_number(load.p99_ms, os);
      os << ", \"cache_hits\": " << load.cache_hits;
      os << ", \"cache_misses\": " << load.cache_misses;
      os << ", \"cache_hit_rate\": ";
      json_number(load.cache_hit_rate, os);
      os << ", \"shed\": " << load.shed;
      os << ", \"deadline_hits\": " << load.deadline_hits;
      os << ", \"rejected\": " << load.rejected;
      os << ", \"chaos_events\": " << load.chaos_events;
      os << ", \"reloads_sent\": " << load.reloads_sent;
      os << ", \"reloads_ok\": " << load.reloads_ok;
      os << ", \"reloads_failed\": " << load.reloads_failed;
      os << ", \"final_epoch\": " << load.final_epoch;
      os << "}";
    }
  }
  os << "\n" << indent << "}";
}

}  // namespace

void print_table(const ScenarioReport& report, std::ostream& os) {
  report_table(report).print(os);
}

void print_csv(const ScenarioReport& report, std::ostream& os) {
  report_table(report).print_csv(os);
}

void print_json(const ScenarioReport& report, std::ostream& os) {
  os << "{\n  \"schema\": \"ftspan.scenario.v1\",\n  \"scenarios\": [\n";
  for (std::size_t s = 0; s < report.specs.size(); ++s) {
    const ScenarioSpec& spec = report.specs[s];
    os << "    {\n      \"spec\": \"";
    json_escape(spec.to_string(), os);
    os << "\",\n";
    os << "      \"seed\": " << spec.seed << ",\n";
    os << "      \"wseed\": " << spec.wseed << ",\n";
    os << "      \"cells\": [\n";
    const std::size_t begin = report.first_cell[s];
    const std::size_t end = s + 1 < report.first_cell.size()
                                ? report.first_cell[s + 1]
                                : report.cells.size();
    for (std::size_t i = begin; i < end; ++i) {
      json_cell(report.cells[i], spec.timings, os, "        ");
      os << (i + 1 < end ? ",\n" : "\n");
    }
    os << "      ]\n    }" << (s + 1 < report.specs.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

namespace {

Registry<ScenarioPreset> build_presets() {
  Registry<ScenarioPreset> reg("scenario preset");

  // One tiny smoke scenario per registered algorithm, in registry order —
  // ctest pins each one's outputs and validity. The 2-spanner LP
  // algorithms get a smaller instance (they solve LPs); the plain bases
  // validate r = 0 (their guarantee is plain stretch), the fault-tolerant
  // constructions validate r = 1 exactly.
  for (const std::string& name : algorithm_registry().names()) {
    const SpannerAlgorithm& algo = algorithm_registry().get(name);
    std::string spec;
    if (algo.fixed_k > 0) {
      spec = "workload=gnp n=14 p=0.4 wseed=7 algo=" + name +
             " k=2 r=1 seed=3 reps=1 validate=exact";
    } else if (algo.model == FaultModel::kNone && name != "layered_greedy") {
      spec = "workload=gnp n=24 p=0.3 wseed=5 algo=" + name +
             " k=3 r=0 seed=3 reps=1 validate=exact";
    } else {
      spec = "workload=gnp n=24 p=0.3 wseed=5 algo=" + name +
             " k=3 r=1 seed=3 reps=1 validate=exact";
    }
    reg.add("smoke_" + name,
            {"smoke: tiny " + name + " scenario, exact validation", spec});
  }

  // Deliberately NOT named smoke_<algo>: every smoke_ preset has committed
  // outputs, which a wall-clock load test can never have. ctest checks
  // this preset's load block for internal consistency instead.
  reg.add("serve_smoke",
          {"serve daemon load test: ft_vertex spanner of a tiny gnp, "
           "0.3 s closed loop over 2 connections",
           "workload=serve n=48 p=0.3 conns=2 duration=0.3 wseed=2 "
           "algo=ft_vertex k=3 r=1 seed=3 threads=2 reps=1 validate=none"});

  // Same shape as serve_smoke plus the robustness machinery: 40% of client
  // slots inject seeded faults (resets, slow-loris, malformed, oversized)
  // and every 25th request per client fires an admin reload (the shape of
  // LoadTest.ChaosAndReloadStormKeepTheProtocolClean).
  reg.add("serve_chaos",
          {"serve daemon chaos run: seeded client faults + reload storm "
           "over 3 connections, 0.4 s",
           "workload=serve n=48 p=0.3 conns=3 duration=0.4 chaos=0.4 "
           "reload_every=25 wseed=2 algo=ft_vertex k=3 r=1 seed=3 "
           "threads=2 reps=1 validate=none"});

  reg.add("quick",
          {"small demo sweep: ft_vertex over gnp at n={64,128}, r={1,2}",
           "workload=gnp n=64,128 wseed=1 algo=ft_vertex k=3 r=1,2 "
           "seed=7 reps=1 validate=sampled trials=10 adversarial=10 vseed=5"});

  return reg;
}

}  // namespace

const Registry<ScenarioPreset>& preset_registry() {
  static const Registry<ScenarioPreset> reg = build_presets();
  return reg;
}

}  // namespace ftspan::runner
