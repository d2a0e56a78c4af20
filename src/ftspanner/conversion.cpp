#include "ftspanner/conversion.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "ftspanner/parallel.hpp"
#include "pipeline/burst_pipeline.hpp"
#include "spanner/greedy.hpp"
#include "util/rng.hpp"

namespace ftspan {

namespace {

/// alpha = ceil(c (r+2) ln n / q) with q = keep² (1-keep)^r for vertex
/// faults (both endpoints of an edge must survive) and keep (1-keep)^r for
/// edge faults (only the edge itself must).
std::size_t iterations_for(std::size_t r, std::size_t n, double c,
                           bool edge_faults) {
  if (!(c > 0) || !std::isfinite(c))
    throw std::invalid_argument(
        "conversion: iteration constant c must be finite and > 0");
  const double rr = static_cast<double>(std::max<std::size_t>(r, 1));
  const double keep = rr >= 2 ? 1.0 / rr : 0.5;
  const double q =
      (edge_faults ? keep : keep * keep) * std::pow(1.0 - keep, rr);
  const double ln_n = std::log(static_cast<double>(std::max<std::size_t>(n, 2)));
  const double alpha = std::ceil(c * (rr + 2.0) * ln_n / q);
  if (!(alpha < 0x1p64))
    throw std::invalid_argument(
        "conversion: iteration count does not fit in size_t");
  return static_cast<std::size_t>(alpha);
}

/// One iteration after its draw: `removed` marks the dropped ground-set
/// elements and `survivors` lists the kept ones in index order (the step
/// may reorder it); `rng` is the iteration's stream, past the draw. The step
/// builds the base spanner on the survivors and sets marks[id] for each of
/// its edges. Made once per worker, so it may own pooled scratch.
using SampleStep = std::function<void(const VertexSet& removed,
                                      std::vector<std::uint32_t>& survivors,
                                      Rng& rng, std::vector<char>& marks)>;

/// The oversampling loop of Theorem 2.1, for either ground set: n vertices
/// or m edges. Each iteration is seeded by hash_combine(seed, it), so the
/// engine may run them in any order, on any worker, and still reproduce the
/// sequential output bit-for-bit (see parallel.hpp). Survivor counts land
/// in distinct slots of a pre-sized array — no synchronization needed. Each
/// worker owns its step plus reusable draw buffers, so after its first
/// iteration the loop performs no heap allocations.
ConversionResult oversample(const Graph& g, bool edge_faults, std::size_t r,
                            std::uint64_t seed,
                            const ConversionOptions& options,
                            const std::function<SampleStep()>& make_step) {
  if (r < 1) throw std::invalid_argument("conversion: r must be >= 1");
  const std::size_t n = g.num_vertices();
  const std::size_t ground = edge_faults ? g.num_edges() : n;

  // Per-element survival probability: 1/r for r >= 2, 1/2 for r = 1 (the
  // proof of Theorem 2.1 sets p = 1 - 1/r and special-cases r = 1).
  double keep = (r >= 2) ? 1.0 / static_cast<double>(r) : 0.5;
  keep = std::clamp(keep * options.keep_probability_scale, 1e-9, 1.0);

  ConversionResult result;
  result.iterations = options.iterations
                           ? *options.iterations
                           : iterations_for(r, n, options.iteration_constant,
                                            edge_faults);
  result.keep_probability = keep;
  result.threads_used = resolve_threads(options.threads, result.iterations);

  std::vector<std::size_t> survivors(result.iterations, 0);
  const IterationBodyFactory bodies = [&](std::size_t) -> IterationBody {
    std::vector<std::uint32_t> alive;
    alive.reserve(ground);
    // Move-capture: a copy would silently drop the reserved capacity.
    return [step = make_step(), removed = VertexSet(ground),
            alive = std::move(alive), &survivors, keep, seed,
            ground](std::size_t it, std::vector<char>& marks) mutable {
      Rng rng(hash_combine(seed, it));
      removed.clear();
      alive.clear();
      for (std::uint32_t x = 0; x < ground; ++x) {
        if (rng.bernoulli(keep))
          alive.push_back(x);
        else
          removed.insert(x);
      }
      survivors[it] = alive.size();
      step(removed, alive, rng, marks);
    };
  };

  // Passing the already-resolved count keeps threads_used exactly what the
  // engine runs with (resolve_threads is idempotent on its own output).
  result.edges = marks_to_edges(union_iterations(
      result.iterations, result.threads_used, g.num_edges(), bodies));
  if (!survivors.empty())
    result.max_survivors = *std::max_element(survivors.begin(), survivors.end());
  return result;
}

}  // namespace

std::size_t conversion_iterations(std::size_t r, std::size_t n, double c) {
  // The proof of Theorem 2.1 needs, for each (fault set, edge) pair, an
  // iteration where both endpoints survive and the fault set is oversampled:
  // success probability q = keep² (1-keep)^r per iteration (>= 1/(4r²) for
  // r >= 2, = 1/8 for r = 1). A union bound over the <= n^{r+2} pairs then
  // asks for alpha = c (r+2) ln n / q — this *is* Θ(r³ log n), with the
  // constants spelled out so that c = 1 is already valid at small n.
  return iterations_for(r, n, c, /*edge_faults=*/false);
}

std::size_t edge_conversion_iterations(std::size_t r, std::size_t n, double c) {
  return iterations_for(r, n, c, /*edge_faults=*/true);
}

ConversionResult fault_tolerant_spanner(const Graph& g, std::size_t r,
                                        const BaseSpannerFactory& factory,
                                        std::uint64_t seed,
                                        const ConversionOptions& options) {
  const auto make_step = [&factory]() -> SampleStep {
    return [base = factory()](const VertexSet& removed,
                              std::vector<std::uint32_t>& alive, Rng& rng,
                              std::vector<char>& marks) {
      if (alive.size() < 2) return;  // nothing to span
      for (EdgeId id : base(&removed, rng())) marks[id] = 1;
    };
  };
  return oversample(g, /*edge_faults=*/false, r, seed, options, make_step);
}

ConversionResult fault_tolerant_spanner(const Graph& g, std::size_t r,
                                        const BaseSpanner& base,
                                        std::uint64_t seed,
                                        const ConversionOptions& options) {
  // Adapt the stateless interface: each worker gets a private output buffer
  // the copied edge list lands in.
  const BaseSpannerFactory factory = [&g, &base]() -> BoundBaseSpanner {
    return [&g, &base, buffer = std::vector<EdgeId>()](
               const VertexSet* mask,
               std::uint64_t it_seed) mutable -> std::span<const EdgeId> {
      buffer = base(g, mask, it_seed);
      return buffer;
    };
  };
  return fault_tolerant_spanner(g, r, factory, seed, options);
}

ConversionResult ft_greedy_spanner(const Graph& g, double k, std::size_t r,
                                   std::uint64_t seed,
                                   const ConversionOptions& options) {
  if (!valid_stretch(k))
    throw std::invalid_argument("ft_greedy_spanner: k must be finite and >= 1");
  if (!valid_bucket_max(options.bucket_max))
    throw std::invalid_argument(
        "ft_greedy_spanner: bucket_max must be finite and >= 1");
  // The hoisted per-graph state: one edge-weight sort shared by every
  // iteration and every worker (it is read-only after construction).
  const GreedyContext ctx(g);
  const BaseSpannerFactory factory = [&ctx, k, &options]() -> BoundBaseSpanner {
    auto ws = std::make_shared<GreedyWorkspace>();
    ws->set_engine(options.engine, options.bucket_max);
    return [&ctx, k, ws](const VertexSet* mask,
                         std::uint64_t) -> std::span<const EdgeId> {
      return ws->run(ctx, k, mask);
    };
  };
  return fault_tolerant_spanner(g, r, factory, seed, options);
}

ConversionResult ft_edge_greedy_spanner(const Graph& g, double k,
                                        std::size_t r, std::uint64_t seed,
                                        const ConversionOptions& options) {
  if (!valid_stretch(k))
    throw std::invalid_argument(
        "ft_edge_greedy_spanner: k must be finite and >= 1");
  if (!valid_bucket_max(options.bucket_max))
    throw std::invalid_argument(
        "ft_edge_greedy_spanner: bucket_max must be finite and >= 1");
  const GreedyContext ctx(g);
  const auto make_step = [&g, &ctx, k, &options]() -> SampleStep {
    auto ws = std::make_shared<GreedyWorkspace>();
    ws->set_engine(options.engine, options.bucket_max);
    return [&g, &ctx, k, ws](const VertexSet&,
                             std::vector<std::uint32_t>& alive, Rng&,
                             std::vector<char>& marks) {
      // Re-sort the survivors by weight from id order, exactly as the
      // historical code sorted the materialized survivor subgraph, so every
      // edge golden stays bit-identical on tied weights too (filtering the
      // context's one hoisted order would visit equal-weight edges in a
      // different relative order).
      std::sort(alive.begin(), alive.end(), [&g](EdgeId a, EdgeId b) {
        return g.edge(a).w < g.edge(b).w;
      });
      for (const EdgeId id : ws->run(ctx, k, alive)) marks[id] = 1;
    };
  };
  return oversample(g, /*edge_faults=*/true, r, seed, options, make_step);
}

double corollary22_size_bound(std::size_t n, double k, std::size_t r) {
  const double nn = static_cast<double>(std::max<std::size_t>(n, 2));
  const double rr = static_cast<double>(std::max<std::size_t>(r, 1));
  const double exp_r = 2.0 - 2.0 / (k + 1.0);
  const double exp_n = 1.0 + 2.0 / (k + 1.0);
  return std::pow(rr, exp_r) * std::pow(nn, exp_n) * std::log(nn);
}

double clpr09_size_bound(std::size_t n, double stretch, std::size_t r) {
  const double nn = static_cast<double>(std::max<std::size_t>(n, 2));
  const double rr = static_cast<double>(std::max<std::size_t>(r, 1));
  const double k = (stretch + 1.0) / 2.0;  // stretch 2k-1 -> parameter k
  return rr * rr * std::pow(k, rr + 1.0) * std::pow(nn, 1.0 + 1.0 / k) *
         std::pow(std::log(nn), 1.0 - 1.0 / k);
}

}  // namespace ftspan
