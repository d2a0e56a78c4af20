#include "ftspanner/edge_faults.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "ftspanner/parallel.hpp"
#include "spanner/greedy.hpp"
#include "util/rng.hpp"

namespace ftspan {

std::size_t edge_conversion_iterations(std::size_t r, std::size_t n, double c) {
  const double rr = static_cast<double>(std::max<std::size_t>(r, 1));
  const double keep = rr >= 2 ? 1.0 / rr : 0.5;
  const double q = keep * std::pow(1.0 - keep, rr);
  const double ln_n = std::log(static_cast<double>(std::max<std::size_t>(n, 2)));
  return static_cast<std::size_t>(std::ceil(c * (rr + 2.0) * ln_n / q));
}

EdgeFtResult ft_edge_greedy_spanner(const Graph& g, double k, std::size_t r,
                                    std::uint64_t seed,
                                    const EdgeFtOptions& options) {
  if (r < 1)
    throw std::invalid_argument("ft_edge_greedy_spanner: r must be >= 1");
  if (k < 1.0)
    throw std::invalid_argument("ft_edge_greedy_spanner: k must be >= 1");
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();

  const double keep = r >= 2 ? 1.0 / static_cast<double>(r) : 0.5;
  EdgeFtResult out;
  out.keep_probability = keep;
  out.iterations = options.iterations.value_or(
      edge_conversion_iterations(r, n, options.iteration_constant));

  out.threads_used = resolve_threads(options.threads, out.iterations);

  // Per-iteration RNG streams (hash_combine(seed, it)) keep the fan-out
  // schedule-independent; see parallel.hpp for the determinism contract.
  // Per-worker pooled state: greedy workspace + survivor buffer, so the loop
  // allocates nothing after its first iteration. Each iteration re-sorts its
  // survivors exactly as the historical code sorted the materialized
  // survivor subgraph — same comparator over the same id-ordered sequence —
  // so outputs stay bit-identical to pre-engine even for tied edge weights,
  // where filtering a single hoisted (unstably sorted) global order would
  // visit equal-weight edges in a different relative order.
  // Weight facts hoisted once per graph: shared by every worker's engine
  // selection and exact-sums fast path (satellite of the bucket-queue work).
  WeightProfile profile;
  for (EdgeId id = 0; id < m; ++id) profile.observe(g.edge(id).w);

  const IterationBodyFactory bodies = [&g, k, keep, seed, n, m,
                                       profile](std::size_t) -> IterationBody {
    auto ws = std::make_shared<GreedyWorkspace>();
    ws->reserve(n, m);
    ws->configure_scratch(profile);
    auto survivors = std::vector<EdgeId>();
    survivors.reserve(m);
    // Move-capture: a copy would silently drop the reserved capacity.
    return [&g, ws, survivors = std::move(survivors), k, keep, seed, n,
            m](std::size_t it, std::vector<char>& marks) mutable {
      Rng rng(hash_combine(seed, it));
      survivors.clear();
      for (EdgeId id = 0; id < m; ++id)
        if (rng.bernoulli(keep)) survivors.push_back(id);
      std::sort(survivors.begin(), survivors.end(),
                [&g](EdgeId a, EdgeId b) { return g.edge(a).w < g.edge(b).w; });
      ws->reset(n);
      for (const EdgeId id : survivors) {
        const Edge& e = g.edge(id);
        const Weight bound = k * e.w * (1 + kStretchSlack);
        if (ws->bounded_pair(e.u, e.v, nullptr, bound) > k * e.w) {
          ws->add_edge(e.u, e.v, e.w);
          marks[id] = 1;
        }
      }
    };
  };

  out.edges = marks_to_edges(
      union_iterations(out.iterations, out.threads_used, m, bodies));
  return out;
}

EdgeFtCheckResult check_edge_ft_spanner_sampled(const Graph& g, const Graph& h,
                                                double k, std::size_t r,
                                                std::size_t random_trials,
                                                std::size_t adversarial_edges,
                                                std::uint64_t seed) {
  return StretchOracle(g, h, k).check_sampled_edges(r, random_trials,
                                                    adversarial_edges, seed);
}

}  // namespace ftspan
