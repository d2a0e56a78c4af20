#include "runner/algorithms.hpp"

#include <memory>

#include "ftspanner/baselines.hpp"
#include "ftspanner/conversion.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/greedy.hpp"
#include "spanner/thorup_zwick.hpp"
#include "spanner2/undirected.hpp"

namespace ftspan::runner {

namespace {

/// Stretch k → the (2k'-1)-spanner parameter k' the clustering bases take
/// (the same mapping the CLI's `spanner --algo bs|tz` has always used).
std::size_t cluster_k(double k) {
  return static_cast<std::size_t>((k + 1.0) / 2.0);
}

AlgoResult from_two_spanner(const Graph& g,
                            const UndirectedTwoSpannerResult& res) {
  AlgoResult out;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (res.in_spanner[id]) out.edges.push_back(id);
  out.stats = {{"cost", res.cost},
               {"lp_value", res.lp_value},
               {"lemma_valid", res.valid ? 1.0 : 0.0}};
  return out;
}

/// A conversion entry point: ft_greedy_spanner or ft_edge_greedy_spanner.
using Conversion = decltype(&ft_greedy_spanner);

/// Binds either fault model's conversion: each call runs the library entry
/// point with the cell's parameters and reports its iteration statistics.
BoundAlgorithm bind_conversion(const Graph& g, Conversion convert) {
  const Graph* gp = &g;
  return [gp, convert](const AlgoParams& p) {
    ConversionOptions opt;
    opt.iteration_constant = p.c;
    if (p.iterations > 0) opt.iterations = p.iterations;
    opt.threads = p.threads;
    ConversionResult res = convert(*gp, p.k, p.r, p.seed, opt);
    AlgoResult out;
    out.edges = std::move(res.edges);
    out.stats = {{"iterations", static_cast<double>(res.iterations)},
                 {"max_survivors", static_cast<double>(res.max_survivors)},
                 {"keep_probability", res.keep_probability},
                 {"threads_used", static_cast<double>(res.threads_used)}};
    return out;
  };
}

Registry<SpannerAlgorithm> build_registry() {
  Registry<SpannerAlgorithm> reg("algorithm");

  reg.add("greedy",
          {"greedy k-spanner (Althöfer et al.); deterministic", FaultModel::kNone, 0,
           [](const Graph& g) -> BoundAlgorithm {
             auto ctx = std::make_shared<GreedyContext>(g);
             auto ws = std::make_shared<GreedyWorkspace>();
             return [ctx, ws](const AlgoParams& p) {
               const auto kept = ws->run(*ctx, p.k, nullptr);
               AlgoResult out;
               out.edges.assign(kept.begin(), kept.end());
               return out;
             };
           }});

  reg.add("baswana_sen",
          {"Baswana–Sen randomized (2k'-1)-spanner, k' = (k+1)/2",
           FaultModel::kNone, 0, [](const Graph& g) -> BoundAlgorithm {
             const Graph* gp = &g;
             return [gp](const AlgoParams& p) {
               AlgoResult out;
               out.edges = baswana_sen_spanner(*gp, cluster_k(p.k), p.seed);
               return out;
             };
           }});

  reg.add("thorup_zwick",
          {"Thorup–Zwick (2k'-1)-spanner, k' = (k+1)/2", FaultModel::kNone, 0,
           [](const Graph& g) -> BoundAlgorithm {
             const Graph* gp = &g;
             return [gp](const AlgoParams& p) {
               AlgoResult out;
               out.edges = thorup_zwick_spanner(*gp, cluster_k(p.k), p.seed);
               return out;
             };
           }});

  reg.add("layered_greedy",
          {"r+1 edge-disjoint greedy layers (baseline; NOT vertex-fault "
           "tolerant in general)",
           FaultModel::kNone, 0, [](const Graph& g) -> BoundAlgorithm {
             const Graph* gp = &g;
             return [gp](const AlgoParams& p) {
               AlgoResult out;
               out.edges = layered_greedy_spanner(*gp, p.k, p.r);
               return out;
             };
           }});

  reg.add("ft_vertex",
          {"Theorem 2.1 conversion over greedy: r-VERTEX-fault-tolerant "
           "k-spanner",
           FaultModel::kVertex, 0, [](const Graph& g) {
             return bind_conversion(g, ft_greedy_spanner);
           }});

  reg.add("ft_edge",
          {"edge-fault conversion over greedy: r-EDGE-fault-tolerant "
           "k-spanner",
           FaultModel::kEdge, 0, [](const Graph& g) {
             return bind_conversion(g, ft_edge_greedy_spanner);
           }});

  reg.add("ft2_rounding",
          {"Theorem 3.3 LP rounding: r-FT 2-spanner, O(log n) approx "
           "(unit lengths)",
           FaultModel::kVertex, 2, [](const Graph& g) -> BoundAlgorithm {
             const Graph* gp = &g;
             return [gp](const AlgoParams& p) {
               return from_two_spanner(
                   *gp, approx_ft_2spanner_undirected(*gp, p.r, p.seed));
             };
           }});

  reg.add("ft2_dk10",
          {"DK10 baseline: r-FT 2-spanner, O(r log n) approx (unit lengths)",
           FaultModel::kVertex, 2, [](const Graph& g) -> BoundAlgorithm {
             const Graph* gp = &g;
             return [gp](const AlgoParams& p) {
               return from_two_spanner(
                   *gp, dk10_ft_2spanner_undirected(*gp, p.r, p.seed));
             };
           }});

  reg.add("ft2_lll",
          {"Theorem 3.4 Moser–Tardos LLL: r-FT 2-spanner, O(log Δ) approx "
           "(unit lengths)",
           FaultModel::kVertex, 2, [](const Graph& g) -> BoundAlgorithm {
             const Graph* gp = &g;
             return [gp](const AlgoParams& p) {
               return from_two_spanner(
                   *gp, lll_ft_2spanner_undirected(*gp, p.r, p.seed));
             };
           }});

  return reg;
}

}  // namespace

const Registry<SpannerAlgorithm>& algorithm_registry() {
  static const Registry<SpannerAlgorithm> reg = build_registry();
  return reg;
}

AlgoResult run_algorithm(const std::string& name, const Graph& g,
                         const AlgoParams& params) {
  return algorithm_registry().get(name).bind(g)(params);
}

}  // namespace ftspan::runner
