// A2 (ablation) — the fault-oversampling probability.
//
// Theorem 2.1 keeps each vertex alive with probability 1/r. Scaling that
// probability changes the trade-off: keeping more vertices makes each
// iteration's spanner larger but covers fewer fault sets per iteration;
// keeping fewer shrinks survivors below useful size. We sweep the scale at
// fixed iteration budget and measure validity and size.
#include <cstdio>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "validate/stretch_oracle.hpp"

using namespace ftspan;

int main() {
  std::printf("# A2: keep-probability scale sweep (paper: keep = 1/r)\n");
  std::printf("# instance: G(16, 0.5), k = 3, r = 3; fixed alpha; 10 seeds\n");

  const Graph g = gnp(16, 0.5, 7);
  const std::size_t r = 3;

  banner("validity and size vs keep-probability scale");
  Table t({"scale", "keep prob", "valid fraction", "mean |H|",
           "mean max survivors"});
  for (const double scale : {0.5, 0.75, 1.0, 1.5, 2.0, 2.5}) {
    ConversionOptions opt;
    opt.keep_probability_scale = scale;
    opt.iterations = conversion_iterations(r, g.num_vertices(), 0.5);
    std::size_t valid = 0;
    Stats size, survivors;
    double keep = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto res = ft_greedy_spanner(g, 3.0, r, seed * 53, opt);
      keep = res.keep_probability;
      size.add(static_cast<double>(res.edges.size()));
      survivors.add(static_cast<double>(res.max_survivors));
      const Graph h = g.edge_subgraph(res.edges);
      if (StretchOracle(g, h, 3.0).check_exact(r).valid) ++valid;
    }
    t.row()
        .cell(scale, 2)
        .cell(keep, 3)
        .cell(static_cast<double>(valid) / 10.0, 2)
        .cell(size.mean(), 1)
        .cell(survivors.mean(), 1);
  }
  t.print();
  std::printf(
      "\nReading: the paper's scale = 1 sits on the validity plateau with "
      "near-minimal size; very small keep probabilities starve iterations "
      "of survivors, very large ones waste iterations on few fault sets.\n");
  return 0;
}
