#include "ftspanner/conversion.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "ftspanner/parallel.hpp"
#include "spanner/greedy.hpp"
#include "util/rng.hpp"

namespace ftspan {

std::size_t conversion_iterations(std::size_t r, std::size_t n, double c) {
  // The proof of Theorem 2.1 needs, for each (fault set, edge) pair, an
  // iteration where both endpoints survive and the fault set is oversampled:
  // success probability q = keep² (1-keep)^r per iteration (>= 1/(4r²) for
  // r >= 2, = 1/8 for r = 1). A union bound over the <= n^{r+2} pairs then
  // asks for alpha = c (r+2) ln n / q — this *is* Θ(r³ log n), with the
  // constants spelled out so that c = 1 is already valid at small n.
  const double rr = static_cast<double>(std::max<std::size_t>(r, 1));
  const double keep = rr >= 2 ? 1.0 / rr : 0.5;
  const double q = keep * keep * std::pow(1.0 - keep, rr);
  const double ln_n = std::log(static_cast<double>(std::max<std::size_t>(n, 2)));
  return static_cast<std::size_t>(std::ceil(c * (rr + 2.0) * ln_n / q));
}

ConversionResult fault_tolerant_spanner(const Graph& g, std::size_t r,
                                        const BaseSpannerFactory& factory,
                                        std::uint64_t seed,
                                        const ConversionOptions& options) {
  if (r < 1)
    throw std::invalid_argument("fault_tolerant_spanner: r must be >= 1");
  const std::size_t n = g.num_vertices();

  // Per-vertex survival probability: 1/r for r >= 2, 1/2 for r = 1 (the
  // proof of Theorem 2.1 sets p = 1 - 1/r and special-cases r = 1).
  double keep = (r >= 2) ? 1.0 / static_cast<double>(r) : 0.5;
  keep = std::clamp(keep * options.keep_probability_scale, 1e-9, 1.0);

  const std::size_t alpha =
      options.iterations.value_or(conversion_iterations(r, n, options.iteration_constant));

  ConversionResult result;
  result.iterations = alpha;
  result.keep_probability = keep;
  result.threads_used = resolve_threads(options.threads, alpha);

  // Each iteration is seeded by hash_combine(seed, it), so the engine may run
  // them in any order, on any worker, and still reproduce the sequential
  // output bit-for-bit (see parallel.hpp). Survivor counts land in distinct
  // slots of a pre-sized array — no synchronization needed. Each worker owns
  // a bound base spanner plus a reusable fault mask, so after its first
  // iteration the loop performs no heap allocations.
  std::vector<std::size_t> survivors(alpha, 0);
  const IterationBodyFactory bodies = [&factory, &survivors, keep, seed,
                                       n](std::size_t) -> IterationBody {
    return [base = factory(), removed = VertexSet(n), &survivors, keep, seed,
            n](std::size_t it, std::vector<char>& marks) mutable {
      Rng rng(hash_combine(seed, it));
      removed.clear();
      std::size_t alive = 0;
      for (Vertex v = 0; v < n; ++v) {
        if (rng.bernoulli(keep))
          ++alive;
        else
          removed.insert(v);
      }
      survivors[it] = alive;
      if (alive < 2) return;  // nothing to span
      for (EdgeId id : base(&removed, rng())) marks[id] = 1;
    };
  };

  // Passing the already-resolved count keeps threads_used exactly what the
  // engine runs with (resolve_threads is idempotent on its own output).
  result.edges = marks_to_edges(
      union_iterations(alpha, result.threads_used, g.num_edges(), bodies));
  if (alpha > 0)
    result.max_survivors = *std::max_element(survivors.begin(), survivors.end());
  return result;
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
  // The hoisted per-graph state: one edge-weight sort shared by every
  // iteration and every worker (it is read-only after construction).
  const GreedyContext ctx(g);
  const SpEnginePolicy engine = options.engine;
  const Weight bucket_max = options.bucket_max;
  const BaseSpannerFactory factory = [&ctx, k, engine,
                                      bucket_max]() -> BoundBaseSpanner {
    auto ws = std::make_shared<GreedyWorkspace>();
    ws->set_engine(engine, bucket_max);
    return [&ctx, k, ws](const VertexSet* mask,
                         std::uint64_t) -> std::span<const EdgeId> {
      return ws->run(ctx, k, mask);
    };
  };
  return fault_tolerant_spanner(g, r, factory, seed, options);
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
