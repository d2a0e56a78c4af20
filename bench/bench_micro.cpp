// M1 — micro-benchmarks (google-benchmark) for the library's hot paths.
#include <benchmark/benchmark.h>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "graph/sp_engine.hpp"
#include "local/padded_decomposition.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/greedy.hpp"
#include "spanner/thorup_zwick.hpp"
#include "spanner2/formulation.hpp"
#include "spanner2/rounding.hpp"

namespace {

using namespace ftspan;

void BM_Dijkstra(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp(n, 8.0 / static_cast<double>(n), 1, 4.0);
  DijkstraEngine eng;
  Vertex src = 0;
  for (auto _ : state) {
    eng.run(g, src);
    benchmark::DoNotOptimize(eng.dist(static_cast<Vertex>(n - 1)));
    src = (src + 1) % n;
  }
}
BENCHMARK(BM_Dijkstra)->Arg(256)->Arg(1024)->Arg(4096);

void BM_GreedySpanner(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp(n, 16.0 / static_cast<double>(n), 2);
  for (auto _ : state) benchmark::DoNotOptimize(greedy_spanner(g, 3.0));
}
BENCHMARK(BM_GreedySpanner)->Arg(128)->Arg(256)->Arg(512);

void BM_BaswanaSen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp(n, 16.0 / static_cast<double>(n), 3);
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(baswana_sen_spanner(g, 2, seed++));
}
BENCHMARK(BM_BaswanaSen)->Arg(256)->Arg(1024);

void BM_ThorupZwick(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp(n, 16.0 / static_cast<double>(n), 4);
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(thorup_zwick_spanner(g, 2, seed++));
}
BENCHMARK(BM_ThorupZwick)->Arg(256)->Arg(1024);

void BM_ConversionIteration(benchmark::State& state) {
  // One oversample + greedy iteration at r = 4 (survivor count ~ n/4).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp(n, 16.0 / static_cast<double>(n), 5);
  ConversionOptions opt;
  opt.iterations = 1;
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(ft_greedy_spanner(g, 3.0, 4, seed++, opt));
}
BENCHMARK(BM_ConversionIteration)->Arg(256)->Arg(1024);

void BM_Lp4Solve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Digraph g = di_gnp(n, 0.4, 6);
  for (auto _ : state) benchmark::DoNotOptimize(solve_lp4(g, 1));
}
BENCHMARK(BM_Lp4Solve)->Arg(8)->Arg(12)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ThresholdRound(benchmark::State& state) {
  const Digraph g = di_gnp(64, 0.2, 7);
  std::vector<double> x(g.num_edges(), 0.3);
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(threshold_round(g, x, 3.0, seed++));
}
BENCHMARK(BM_ThresholdRound);

void BM_PaddedDecomposition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp_connected(n, 8.0 / static_cast<double>(n), 8);
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(local::sample_padded_decomposition(g, seed++));
}
BENCHMARK(BM_PaddedDecomposition)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
