#include "ftspanner/edge_faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "ftspanner/parallel.hpp"
#include "graph/sp_engine.hpp"
#include "spanner/greedy.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"  // count_fault_sets (C(m, <=r) reuse)

namespace ftspan {

namespace {

/// Maps each h-edge to the corresponding g-edge id (by endpoints).
std::vector<EdgeId> h_to_g_edges(const Graph& g, const Graph& h) {
  std::vector<EdgeId> map(h.num_edges(), kInvalidEdge);
  for (EdgeId id = 0; id < h.num_edges(); ++id) {
    const Edge& e = h.edge(id);
    const auto gid = g.edge_id(e.u, e.v);
    if (gid) map[id] = *gid;
  }
  return map;
}

/// Checks one edge-fault set; updates the result. The engines are pooled
/// across fault sets by the caller.
void check_one(const Csr& g, const Csr& h, const std::vector<EdgeId>& h2g,
               double k, const std::vector<char>& dead_g,
               DijkstraEngine& dg_eng, DijkstraEngine& dh_eng,
               std::vector<char>& dead_h, EdgeFtCheckResult& out,
               const std::vector<EdgeId>& fault_list) {
  ++out.fault_sets_checked;
  std::fill(dead_h.begin(), dead_h.end(), 0);
  for (EdgeId hid = 0; hid < dead_h.size(); ++hid)
    if (h2g[hid] != kInvalidEdge && dead_g[h2g[hid]]) dead_h[hid] = 1;

  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    bool relevant = false;
    for (const CsrArc& a : g.out(u))
      if (a.to > u && !dead_g[a.edge]) {
        relevant = true;
        break;
      }
    if (!relevant) continue;
    dg_eng.run_avoiding_edges(g, u, dead_g);
    dh_eng.run_avoiding_edges(h, u, dead_h);
    for (const CsrArc& a : g.out(u)) {
      if (a.to < u || dead_g[a.edge]) continue;
      const Weight dgd = dg_eng.dist(a.to);
      if (dgd >= kInfiniteWeight || dgd <= 0) continue;
      const Weight dhd = dh_eng.dist(a.to);
      const double stretch = dhd < kInfiniteWeight
                                 ? dhd / dgd
                                 : std::numeric_limits<double>::infinity();
      if (stretch > out.worst_stretch) {
        out.worst_stretch = stretch;
        out.witness_faults = fault_list;
      }
      if (stretch > k * (1 + kStretchCheckTolerance)) out.valid = false;
    }
  }
}

}  // namespace

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

std::vector<Weight> distances_avoiding_edges(const Graph& g, Vertex source,
                                             const std::vector<char>& dead) {
  DijkstraEngine eng;
  eng.run_avoiding_edges(g, source, dead);
  std::vector<Weight> dist(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) dist[v] = eng.dist(v);
  return dist;
}

EdgeFtCheckResult check_edge_ft_spanner_exact(const Graph& g, const Graph& h,
                                              double k, std::size_t r,
                                              std::size_t max_fault_sets) {
  const std::size_t m = g.num_edges();
  const std::size_t count = count_fault_sets(m, r);
  if (count > max_fault_sets)
    throw_fault_set_overflow("check_edge_ft_spanner_exact", m, r, count,
                             max_fault_sets);

  const Csr cg(g), ch(h);
  const auto h2g = h_to_g_edges(g, h);
  DijkstraEngine dg_eng, dh_eng;
  std::vector<char> dead_h(h.num_edges(), 0);
  EdgeFtCheckResult out;

  // Pooled fault mask: set/clear via the O(r) combination, not an m-byte
  // allocation per fault set.
  std::vector<char> dead(m, 0);
  for (std::size_t size = 0; size <= std::min(r, m); ++size) {
    std::vector<EdgeId> comb(size);
    for (std::size_t i = 0; i < size; ++i) comb[i] = static_cast<EdgeId>(i);
    while (true) {
      for (EdgeId e : comb) dead[e] = 1;
      check_one(cg, ch, h2g, k, dead, dg_eng, dh_eng, dead_h, out, comb);
      for (EdgeId e : comb) dead[e] = 0;

      if (size == 0) break;
      std::size_t i = size;
      while (i > 0) {
        --i;
        if (comb[i] != static_cast<EdgeId>(m - size + i)) break;
        if (i == 0) {
          i = size;
          break;
        }
      }
      if (i == size) break;
      ++comb[i];
      for (std::size_t j = i + 1; j < size; ++j)
        comb[j] = static_cast<EdgeId>(comb[j - 1] + 1);
    }
  }
  return out;
}

EdgeFtCheckResult check_edge_ft_spanner_sampled(const Graph& g, const Graph& h,
                                                double k, std::size_t r,
                                                std::size_t random_trials,
                                                std::size_t adversarial_edges,
                                                std::uint64_t seed) {
  const std::size_t m = g.num_edges();
  const Csr cg(g), ch(h);
  const auto h2g = h_to_g_edges(g, h);
  Rng rng(seed);
  EdgeFtCheckResult out;
  if (m == 0) return out;

  DijkstraEngine dg_eng, dh_eng;
  std::vector<char> scratch_dead_h(h.num_edges(), 0);

  std::vector<EdgeId> pool(m);
  for (EdgeId e = 0; e < m; ++e) pool[e] = e;
  const std::size_t fault_size = std::min(r, m);

  std::vector<char> dead(m, 0);  // pooled; cleared via the O(r) fault list
  for (std::size_t t = 0; t < random_trials; ++t) {
    rng.shuffle(pool);
    std::vector<EdgeId> faults(pool.begin(), pool.begin() + fault_size);
    for (EdgeId e : faults) dead[e] = 1;
    check_one(cg, ch, h2g, k, dead, dg_eng, dh_eng, scratch_dead_h, out,
              faults);
    for (EdgeId e : faults) dead[e] = 0;
  }

  // Adversary: fail edges along H's current shortest path for a probed edge.
  for (std::size_t t = 0; t < adversarial_edges; ++t) {
    const EdgeId probe = static_cast<EdgeId>(rng.uniform_index(m));
    const Edge& e = g.edge(probe);
    std::fill(dead.begin(), dead.end(), 0);
    std::fill(scratch_dead_h.begin(), scratch_dead_h.end(), 0);
    std::vector<char>& dead_g = dead;
    std::vector<char>& dead_h = scratch_dead_h;
    std::vector<EdgeId> faults;
    for (std::size_t step = 0; step < r; ++step) {
      dh_eng.run_avoiding_edges(ch, e.u, dead_h);
      if (dh_eng.dist(e.v) >= kInfiniteWeight) break;
      // Collect the h-path's edges (by walking via edges backwards).
      std::vector<EdgeId> path;
      for (Vertex x = e.v; dh_eng.via(x) != kInvalidEdge;
           x = h.edge(dh_eng.via(x)).other(x))
        path.push_back(dh_eng.via(x));
      if (path.empty()) break;
      const EdgeId victim_h = path[rng.uniform_index(path.size())];
      const EdgeId victim_g = h2g[victim_h];
      if (victim_g == kInvalidEdge || victim_g == probe) continue;
      dead_h[victim_h] = 1;
      dead_g[victim_g] = 1;
      faults.push_back(victim_g);
    }
    check_one(cg, ch, h2g, k, dead_g, dg_eng, dh_eng, scratch_dead_h, out,
              faults);
  }
  return out;
}

}  // namespace ftspan
