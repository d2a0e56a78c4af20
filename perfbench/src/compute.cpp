// The workloads, build_unit and certify_midrange: Theorem 2.1's vertex- and
// edge-fault conversions plus the StretchOracle. Every traced run measures
// every layer: the workload's own instance for graph, spanner, ftspanner,
// pipeline and validate, the serve layer over its spanner, and the lp and
// spanner2 layers (Theorem 3.3's LP rounding) on one pinned small instance.
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common.hpp"
#include "ftspanner/conversion.hpp"
#include "ftspanner/edge_faults.hpp"
#include "graph/csr.hpp"
#include "graph/sp_engine.hpp"
#include "lp/model.hpp"
#include "runner/workloads.hpp"
#include "spanner/greedy.hpp"
#include "spanner2/formulation.hpp"
#include "spanner2/rounding.hpp"
#include "spanner2/verify2.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"

namespace perfbench {

using namespace ftspan;

namespace {

/// One setup_s sample repeats the set-up for at least this long and takes
/// the mean, so a set-up of a few milliseconds is not read off one call.
constexpr double kSetupBatchS = 0.02;
/// Batches taken at each sampling point, each one sample: single batches
/// scatter widely on a shared host, so the median needs many of them.
constexpr int kSetupBatchesPerPoint = 4;

double ms(double s) { return s * 1e3; }

/// One generated gnp instance plus the time make_workload and its CSR
/// snapshot took (the graph layer's share of set-up).
struct GraphSetup {
  Graph g;
  double gen_ms = 0;
  double csr_ms = 0;
};

GraphSetup generate_graph(const runner::WorkloadParams& wp, Tracer& tracer) {
  Tracer::Scope span(tracer, "setup.graph");
  GraphSetup gs;
  const auto t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "graph.gen");
    gs.g = runner::make_workload("gnp", wp).g;
  }
  const auto t1 = Clock::now();
  {
    Tracer::Scope s(tracer, "graph.csr");
    const Csr snapshot(gs.g);
    if (snapshot.num_vertices() != gs.g.num_vertices())
      throw std::logic_error("CSR snapshot lost vertices");
  }
  gs.gen_ms = ms(seconds_between(t0, t1));
  gs.csr_ms = ms(seconds_since(t1));
  return gs;
}

/// setup_s: the workload's set-up (generation + CSR snapshot) timed in
/// batches at points spread over the whole measured phase, so it sees the
/// same host as the timings it precedes; each batch's mean per set-up is
/// one sample, and setup_s is their median.
class SetupSampler {
 public:
  explicit SetupSampler(const runner::WorkloadParams& wp) : wp_(wp) {}

  void sample() {
    for (int batch = 0; batch < kSetupBatchesPerPoint; ++batch) {
      int count = 0;
      const auto t0 = Clock::now();
      do {
        (void)generate_graph(wp_, off_);
        ++count;
      } while (seconds_since(t0) < kSetupBatchS);
      samples_.push_back(seconds_since(t0) / count);
    }
  }
  void report(Result& out) const {
    out.metric("setup_s", median(samples_), "s");
    out.note("setup_samples", std::to_string(samples_.size()));
  }

 private:
  runner::WorkloadParams wp_;
  Tracer off_{false};
  std::vector<double> samples_;
};

/// Sets the instance up once. The traced run reports the two calls as
/// graph.gen_ms and graph.csr_ms.
Graph set_up_graph(const runner::WorkloadParams& wp, const Config& cfg,
                   Tracer& tracer, Result& out) {
  GraphSetup gs = generate_graph(wp, tracer);
  if (cfg.trace) {
    out.metric("graph.gen_ms", gs.gen_ms, "ms");
    out.metric("graph.csr_ms", gs.csr_ms, "ms");
  }
  return std::move(gs.g);
}

/// A Theorem 2.1 workload: gnp instance, vertex-fault build, edge-fault
/// build, sampled certification of the vertex-fault spanner.
struct FtSpec {
  std::size_t n;
  double p;
  double max_weight;      ///< 0 = the family's unit weights
  std::size_t fault_sets; ///< random trials for check_sampled
};

constexpr double kK = 3;
constexpr std::size_t kR = 2;

/// Per-lane record of one conversion's greedy iterations.
struct Lane {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iters;
  std::vector<std::size_t> kept;
};

/// The traced build: ft_greedy_spanner's own path (GreedyContext + a
/// per-worker GreedyWorkspace factory handed to fault_tolerant_spanner),
/// with each iteration's greedy run timed on its lane.
ConversionResult traced_build(const Graph& g, std::uint64_t seed,
                              const ConversionOptions& copt, Tracer& tracer,
                              Result& out) {
  Tracer::Scope build(tracer, "ftspanner.build");
  const auto t_sort = Clock::now();
  std::unique_ptr<GreedyContext> ctx;
  {
    Tracer::Scope s(tracer, "spanner.sort");
    ctx = std::make_unique<GreedyContext>(g);
  }
  out.metric("spanner.sort_ms", ms(seconds_since(t_sort)), "ms");

  std::mutex mu;
  std::vector<std::unique_ptr<Lane>> lanes;
  const GreedyContext& c = *ctx;
  const BaseSpannerFactory factory = [&]() -> BoundBaseSpanner {
    auto lane = std::make_unique<Lane>();
    Lane* lp = lane.get();
    {
      const std::lock_guard<std::mutex> lock(mu);
      lanes.push_back(std::move(lane));
    }
    auto ws = std::make_shared<GreedyWorkspace>();
    ws->set_engine(copt.engine, copt.bucket_max);
    return [&c, ws, lp](const VertexSet* mask,
                        std::uint64_t) -> std::span<const EdgeId> {
      const auto t0 = Clock::now();
      const std::span<const EdgeId> kept = ws->run(c, kK, mask);
      lp->iters.emplace_back(t0, Clock::now());
      lp->kept.push_back(kept.size());
      return kept;
    };
  };

  const auto t0 = Clock::now();
  ConversionResult res = fault_tolerant_spanner(g, kR, factory, seed, copt);
  const auto t1 = Clock::now();

  std::vector<double> iter_ms, lane_busy;
  double kept_total = 0;
  Clock::time_point last_end = t0;
  for (const auto& lane : lanes) {
    double busy = 0;
    for (std::size_t i = 0; i < lane->iters.size(); ++i) {
      const auto& [a, b] = lane->iters[i];
      const double d = seconds_between(a, b);
      busy += d;
      iter_ms.push_back(ms(d));
      kept_total += static_cast<double>(lane->kept[i]);
      last_end = std::max(last_end, b);
      tracer.add("spanner.iteration", a, b, build.index());
    }
    lane_busy.push_back(busy);
  }
  double busy_sum = 0, busy_max = 0;
  for (const double b : lane_busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  const double lanes_used = static_cast<double>(std::max<std::size_t>(res.threads_used, 1));
  const double wall = seconds_between(t0, t1);
  out.metric("spanner.iter_ms.p50", median(iter_ms), "ms");
  out.metric("spanner.iter_ms.max", max_of(iter_ms), "ms");
  out.metric("spanner.kept_per_iter",
             iter_ms.empty() ? 0 : kept_total / static_cast<double>(iter_ms.size()),
             "edges");
  out.metric("ftspanner.iters", static_cast<double>(res.iterations), "count");
  out.metric("ftspanner.union_ms", ms(seconds_between(last_end, t1)), "ms");
  out.metric("pipeline.busy_share", busy_sum / (lanes_used * wall), "share");
  out.metric("pipeline.lane_skew",
             busy_sum > 0 ? busy_max / (busy_sum / lanes_used) : 1.0, "ratio");
  return res;
}

/// validate-layer probe: oracle construction, the parallel check, and the
/// same trial stream replayed one evaluate() at a time.
void traced_certify(const Graph& g, const Graph& h, std::size_t fault_sets,
                    std::uint64_t vseed, const FtCheckOptions& fopt,
                    const FtCheckResult& reference, Tracer& tracer,
                    Result& out) {
  Tracer::Scope cert(tracer, "validate.certify");
  const auto t0 = Clock::now();
  std::unique_ptr<StretchOracle> oracle;
  {
    Tracer::Scope s(tracer, "validate.oracle");
    oracle = std::make_unique<StretchOracle>(g, h, kK);
  }
  const auto t1 = Clock::now();
  FtCheckResult cr;
  {
    Tracer::Scope s(tracer, "validate.check_sampled");
    cr = oracle->check_sampled(kR, fault_sets, 0, vseed, fopt);
  }
  const auto t2 = Clock::now();
  out.check(cr.valid == reference.valid && cr.worst_stretch == reference.worst_stretch,
            "traced check_sampled matches the untraced certification");

  auto scratch = oracle->make_scratch(fopt.engine, fopt.bucket_max);
  const std::size_t n = g.num_vertices();
  const std::size_t fault_size = std::min(kR, n >= 2 ? n - 2 : std::size_t{0});
  std::vector<Vertex> pool;
  VertexSet faults(n);
  std::vector<double> set_ms;
  double set_sum = 0, worst = 1.0;
  for (std::size_t i = 0; i < fault_sets; ++i) {
    Rng rng(hash_combine(vseed, i));
    sample_fault_set(rng, fault_size, pool, faults);
    const auto a = Clock::now();
    const auto w = oracle->evaluate(faults, scratch);
    const auto b = Clock::now();
    tracer.add("validate.set", a, b, cert.index());
    set_sum += seconds_between(a, b);
    set_ms.push_back(ms(seconds_between(a, b)));
    worst = std::max(worst, w.stretch);
  }
  out.check(worst == cr.worst_stretch,
            "replayed trial stream reproduces check_sampled's worst stretch");
  out.metric("validate.oracle_ms", ms(seconds_between(t0, t1)), "ms");
  out.metric("validate.set_ms.p50", median(set_ms), "ms");
  out.metric("validate.set_ms.max", max_of(set_ms), "ms");
  out.metric("validate.parallel_eff",
             set_sum / (static_cast<double>(fopt.threads) * seconds_between(t1, t2)),
             "share");
  out.metric("validate.sets", static_cast<double>(fault_sets), "count");
}

void run_ft_workload(const FtSpec& spec, const Config& cfg, Tracer& tracer,
                     Result& out) {
  runner::WorkloadParams wp;
  wp.n = spec.n;
  wp.p = spec.p;
  wp.seed = cfg.seed;
  wp.max_weight = spec.max_weight;
  const Graph g = set_up_graph(wp, cfg, tracer, out);
  const std::uint64_t seed = cfg.seed, vseed = cfg.seed;

  ConversionOptions copt;
  copt.threads = cfg.threads;
  EdgeFtOptions eopt;
  eopt.threads = cfg.threads;
  FtCheckOptions fopt;
  fopt.threads = cfg.threads;

  out.note("edges", std::to_string(g.num_edges()));

  if (cfg.trace) {
    const ConversionResult res = traced_build(g, seed, copt, tracer, out);
    out.output("edges_hash", quoted(hash_hex(res.edges)));
    out.output("kept", std::to_string(res.edges.size()));

    // 1-thread reference for the conversion's scaling efficiency; its edge
    // set must equal the traced (wrapped-factory) build's.
    ConversionOptions one = copt;
    one.threads = 1;
    const auto a = Clock::now();
    const ConversionResult r1 = ft_greedy_spanner(g, kK, kR, seed, one);
    const auto b = Clock::now();
    const ConversionResult rn = ft_greedy_spanner(g, kK, kR, seed, copt);
    const auto c = Clock::now();
    tracer.add("ftspanner.reference_1thread", a, b, -1);
    tracer.add("ftspanner.reference_nthread", b, c, -1);
    out.check(r1.edges == res.edges && rn.edges == res.edges,
              "wrapped-factory build matches ft_greedy_spanner at 1 and " +
                  std::to_string(cfg.threads) + " threads");
    out.metric("ftspanner.scaling_eff",
               seconds_between(a, b) /
                   (static_cast<double>(cfg.threads) * seconds_between(b, c)),
               "share");

    const Graph h = g.edge_subgraph(res.edges);
    const StretchOracle oracle(g, h, kK);
    const FtCheckResult reference =
        oracle.check_sampled(kR, spec.fault_sets, 0, vseed, fopt);
    out.check(reference.valid, "sampled certification is valid");
    out.output("valid", reference.valid ? "true" : "false");
    out.output("worst_stretch", num(reference.worst_stretch));
    traced_certify(g, h, spec.fault_sets, vseed, fopt, reference, tracer, out);
    probe_graph_layer(g, h, kK, seed, tracer, out);
    trace_serve_layer(cfg, g, res.edges, tracer, out);
    trace_lp_layer(cfg, tracer, out);
    return;
  }

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  SetupSampler setup(wp);
  setup.sample();
  std::vector<double> build_s, edge_s, cert_s;
  std::string hash0, edge_hash0;
  double worst0 = 0;
  for (int rep = 0; rep == 0 || Clock::now() < deadline; ++rep) {
    auto t0 = Clock::now();
    const ConversionResult res = ft_greedy_spanner(g, kK, kR, seed, copt);
    build_s.push_back(seconds_since(t0));
    setup.sample();
    const std::string hash = hash_hex(res.edges);
    if (rep == 0) {
      hash0 = hash;
      out.output("edges_hash", quoted(hash));
      out.output("kept", std::to_string(res.edges.size()));
    }
    out.check(hash == hash0, "ft_greedy_spanner is deterministic across reps");

    t0 = Clock::now();
    const EdgeFtResult eres = ft_edge_greedy_spanner(g, kK, kR, seed, eopt);
    edge_s.push_back(seconds_since(t0));
    setup.sample();
    const std::string eh = hash_hex(eres.edges);
    if (rep == 0) {
      edge_hash0 = eh;
      out.output("edge_edges_hash", quoted(eh));
      out.output("edge_kept", std::to_string(eres.edges.size()));
      // Edge-fault validity, outside every timer.
      const Graph he = g.edge_subgraph(eres.edges);
      const EdgeFtCheckResult ec =
          check_edge_ft_spanner_sampled(g, he, kK, kR, 4, 0, vseed);
      out.check(ec.valid, "edge-fault spanner passes the sampled check");
      out.output("edge_valid", ec.valid ? "true" : "false");
    }
    out.check(eh == edge_hash0,
              "ft_edge_greedy_spanner is deterministic across reps");

    const Graph h = g.edge_subgraph(res.edges);
    t0 = Clock::now();
    const StretchOracle oracle(g, h, kK);
    const FtCheckResult cr =
        oracle.check_sampled(kR, spec.fault_sets, 0, vseed, fopt);
    cert_s.push_back(seconds_since(t0));
    setup.sample();
    out.check(cr.valid, "sampled certification is valid");
    out.check(cr.fault_sets_checked == spec.fault_sets,
              "certification checked every fault set");
    if (rep == 0) {
      worst0 = cr.worst_stretch;
      out.output("valid", cr.valid ? "true" : "false");
      out.output("worst_stretch", num(cr.worst_stretch));
    }
    out.check(cr.worst_stretch == worst0,
              "certification is deterministic across reps");
  }
  setup.report(out);
  out.metric("build_s", median(build_s), "s");
  out.metric("build_edge_s", median(edge_s), "s");
  out.metric("certify_s", median(cert_s), "s");
  out.note("reps", std::to_string(build_s.size()));
}

/// Bidirects g with each arc carrying half the edge cost — the reduction
/// the undirected 2-spanner wrapper applies before approx_ft_2spanner.
Digraph half_cost_bidirect(const Graph& g) {
  Digraph d(g.num_vertices());
  for (const Edge& e : g.edges()) {
    d.add_edge(e.u, e.v, e.w / 2.0);
    d.add_edge(e.v, e.u, e.w / 2.0);
  }
  return d;
}

std::vector<EdgeId> selected(const std::vector<char>& in_spanner) {
  std::vector<EdgeId> ids;
  for (EdgeId id = 0; id < in_spanner.size(); ++id)
    if (in_spanner[id]) ids.push_back(id);
  return ids;
}

/// What approx_ft_2spanner's rounding returns.
struct Rounded {
  std::vector<char> in_spanner;
  double cost = 0;
  bool valid = false;
};

/// The rounding half of approx_ft_2spanner (everything after solve_lp4),
/// replayed through its public calls on its own LP solution and
/// α: Algorithm 1 draws until the Lemma 3.1 check passes, else one more
/// draw is repaired; the result is costed and checked once more.
Rounded replay_rounding(const Digraph& d, std::size_t r, std::uint64_t seed,
                        const TwoSpannerResult& res) {
  const RoundingOptions defaults;
  Rng rng(seed);
  Rounded out;
  bool found = false;
  for (std::size_t a = 1; a <= defaults.max_attempts && !found; ++a) {
    out.in_spanner = threshold_round(d, res.relaxation.x, res.alpha, rng());
    found = is_ft_2spanner(d, out.in_spanner, r);
  }
  if (!found) {
    out.in_spanner = threshold_round(d, res.relaxation.x, res.alpha, rng());
    greedy_repair(d, out.in_spanner, r);
  }
  out.cost = spanner_cost(d, out.in_spanner);
  out.valid = is_ft_2spanner(d, out.in_spanner, r);
  return out;
}

}  // namespace

void run_build_unit(const Config& cfg, Tracer& tracer, Result& out) {
  run_ft_workload({400, 0.5, 0, 12}, cfg, tracer, out);
}

void run_certify_midrange(const Config& cfg, Tracer& tracer, Result& out) {
  run_ft_workload({400, 0.1, 1e5, 256}, cfg, tracer, out);
}

void trace_lp_layer(const Config& cfg, Tracer& tracer, Result& out) {
  constexpr std::size_t kLpR = 1;
  runner::WorkloadParams wp;
  wp.n = 24;
  wp.p = 0.3;
  wp.seed = kLpInstanceSeed;
  Tracer::Scope top(tracer, "spanner2.approx_ft_2spanner");
  const Digraph d = half_cost_bidirect(runner::make_workload("gnp", wp).g);
  out.note("lp_wseed", std::to_string(kLpInstanceSeed));

  auto t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "lp.model");
    const TwoSpannerLp lp = build_two_spanner_lp(d, kLpR);
    out.note("lp_vars", std::to_string(lp.model.num_variables()));
  }
  out.metric("lp.model_ms", ms(seconds_since(t0)), "ms");
  t0 = Clock::now();
  RelaxationResult rel;
  {
    Tracer::Scope s(tracer, "lp.solve");
    rel = solve_lp4(d, kLpR);
  }
  out.metric("lp.solve_s", seconds_since(t0), "s");
  out.metric("lp.pivots", static_cast<double>(rel.simplex_iterations), "count");
  out.metric("lp.cut_rounds", static_cast<double>(rel.cut_rounds), "count");
  out.metric("lp.cuts", static_cast<double>(rel.cuts_added), "count");
  TwoSpannerResult res;
  {
    Tracer::Scope s(tracer, "spanner2.build");
    res = approx_ft_2spanner(d, kLpR, cfg.seed);
  }
  out.check(res.lp_value == rel.value, "solve_lp4 agrees with approx_ft_2spanner's LP");
  const bool valid = res.valid && is_ft_2spanner(d, res.in_spanner, kLpR);
  out.check(valid, "approx_ft_2spanner returns a valid r-FT 2-spanner");
  out.output("lp_valid", valid ? "true" : "false");
  out.output("lp_value", num(res.lp_value));
  out.output("lp_edges_hash", quoted(hash_hex(selected(res.in_spanner))));

  // The rounding takes microseconds: replay it many times and report the
  // median replay.
  std::vector<double> round_ms;
  bool same = true;
  {
    Tracer::Scope s(tracer, "spanner2.round");
    for (int i = 0; i < 1000; ++i) {
      const auto a = Clock::now();
      const Rounded rd = replay_rounding(d, kLpR, cfg.seed, res);
      round_ms.push_back(ms(seconds_since(a)));
      same &= rd.in_spanner == res.in_spanner && rd.cost == res.cost &&
              rd.valid == res.valid;
    }
  }
  out.check(same, "replayed rounding reproduces approx_ft_2spanner's spanner");
  out.metric("spanner2.round_ms", median(round_ms), "ms");
  out.note("round_attempts", std::to_string(res.attempts));
}

void probe_graph_layer(const Graph& g, const Graph& h, double k,
                       std::uint64_t seed, Tracer& tracer, Result& out) {
  Tracer::Scope probe(tracer, "graph.sp_probe");
  const Csr cg(g);
  const WeightProfile& wp = cg.weights();
  const std::size_t n = g.num_vertices();

  constexpr std::size_t kSources = 32;
  Rng rng(hash_combine(seed, 0x5e771e5ULL));
  std::vector<Vertex> sources;
  for (std::size_t i = 0; i < kSources; ++i)
    sources.push_back(static_cast<Vertex>(rng.uniform_index(n)));

  // Integer weights admit both bucketed queues. The Dial queue is probed
  // even above kMaxBucketWeight, where engine=auto picks delta instead: that
  // pair is the baseline for merging the two.
  std::vector<std::pair<const char*, SpQueue>> queues = {{"heap", SpQueue::kHeap}};
  if (wp.integral) {
    queues.push_back({"bucket", SpQueue::kBucket});
    queues.push_back({"delta", SpQueue::kDelta});
  }

  std::size_t settles0 = 0;
  for (const auto& [name, q] : queues) {
    DijkstraEngine e;
    e.set_queue(q, wp.max_weight);
    e.run(cg, sources[0]);  // warm the pooled buffers
    std::vector<double> ns_per;
    std::size_t settles = 0;
    for (int pass = 0; pass < 3; ++pass) {
      settles = 0;
      const auto t0 = Clock::now();
      for (const Vertex s : sources) {
        e.run(cg, s);
        settles += e.settle_order().size();
      }
      ns_per.push_back(seconds_since(t0) * 1e9 / static_cast<double>(settles));
    }
    if (settles0 == 0) settles0 = settles;
    out.check(settles == settles0, std::string("settle count of queue ") +
                                       name + " equals the heap's");
    out.metric(std::string("graph.sp.ns_per_settle.") + name, median(ns_per), "ns");
  }
  out.metric("graph.sp.settles", static_cast<double>(settles0), "count");

  if (g.num_edges() == 0) return;
  const Csr ch(h);
  const WeightProfile& hp = ch.weights();
  const SpQueue q = select_sp_queue(SpEnginePolicy::kAuto, hp.integral, hp.max_weight);
  DijkstraEngine fwd, bwd;
  fwd.set_queue(q, hp.max_weight);
  bwd.set_queue(q, hp.max_weight);
  const auto visit = [&ch](Vertex v, auto&& relax) {
    for (const CsrArc& a : ch.out(v)) relax(a.to, a.w, a.edge);
  };
  constexpr std::size_t kPairs = 512;
  std::vector<double> us;
  std::size_t within = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const Edge& e = g.edge(static_cast<EdgeId>(rng.uniform_index(g.num_edges())));
    const auto t0 = Clock::now();
    const Weight d = DijkstraEngine::bidirectional_bounded_pair(
        fwd, bwd, n, e.u, e.v, nullptr, k * e.w, visit);
    us.push_back(seconds_since(t0) * 1e6);
    within += d <= k * e.w;
  }
  out.check(within == kPairs, "every G-edge is within k·w in the spanner");
  out.metric("graph.sp.pair_us", median(us), "us");
}

}  // namespace perfbench
