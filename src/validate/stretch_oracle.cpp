#include "validate/stretch_oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "pipeline/burst_pipeline.hpp"

namespace ftspan {

void FtCheckResult::consider(double stretch, const VertexSet& faults, Vertex u,
                             Vertex v, double k) {
  if (stretch > worst_stretch) {
    worst_stretch = stretch;
    witness_faults = faults;
    witness_u = u;
    witness_v = v;
  }
  if (stretch > k * (1 + kStretchCheckTolerance)) valid = false;
}

std::size_t count_fault_sets(std::size_t n, std::size_t r) {
  constexpr std::size_t kCap = std::numeric_limits<std::size_t>::max() / 4;
  std::size_t total = 0;
  for (std::size_t size = 0; size <= r && size <= n; ++size) {
    // C(n, size), saturating.
    std::size_t c = 1;
    for (std::size_t i = 0; i < size; ++i) {
      if (c > kCap / (n - i)) return kCap;
      c = c * (n - i) / (i + 1);
    }
    if (total > kCap - c) return kCap;
    total += c;
  }
  return total;
}

void throw_fault_set_overflow(const char* where, bool edge_faults,
                              std::size_t universe, std::size_t r,
                              std::size_t count, std::size_t max_fault_sets) {
  char msg[256];
  std::snprintf(msg, sizeof msg,
                "%s: too many %s-fault sets to enumerate: %s=%zu %s, r=%zu "
                "gives %zu fault sets > max_fault_sets=%zu; use the sampled "
                "check",
                where, edge_faults ? "edge" : "vertex", edge_faults ? "m" : "n",
                universe, edge_faults ? "edges" : "vertices", r, count,
                max_fault_sets);
  throw std::runtime_error(msg);
}

void sample_fault_set(Rng& rng, std::size_t fault_size,
                      std::vector<Vertex>& pool, VertexSet& out) {
  const std::size_t n = out.universe_size();
  out.clear();
  pool.resize(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<Vertex>(i);
  for (std::size_t i = 0; i < fault_size && i < n; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_index(n - i));
    std::swap(pool[i], pool[j]);
    out.insert(pool[i]);
  }
}

namespace {

/// Lexicographic walk over all size-`size` subsets of {0..n-1}.
template <class Fn>
void for_each_combination(std::size_t n, std::size_t size, Fn&& fn) {
  std::vector<Vertex> comb(size);
  for (std::size_t i = 0; i < size; ++i) comb[i] = static_cast<Vertex>(i);
  while (true) {
    fn(comb);
    if (size == 0) break;
    std::size_t i = size;
    while (i > 0) {
      --i;
      if (comb[i] != static_cast<Vertex>(n - size + i)) break;
      if (i == 0) {
        i = size;  // done
        break;
      }
    }
    if (i == size) break;
    ++comb[i];
    for (std::size_t j = i + 1; j < size; ++j)
      comb[j] = static_cast<Vertex>(comb[j - 1] + 1);
  }
}

/// Every subset of {0..universe-1} of size <= r, by size then
/// lexicographically, materialized once (flat id array + offsets); the
/// per-set Dijkstra work dwarfs this walk. Throws via
/// throw_fault_set_overflow beyond max_fault_sets.
struct FaultSetList {
  std::vector<Vertex> flat;
  std::vector<std::size_t> offsets{0};

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const Vertex> operator[](std::size_t i) const {
    return {flat.data() + offsets[i], flat.data() + offsets[i + 1]};
  }
};

FaultSetList enumerate_fault_sets(const char* where, bool edge_faults,
                                  std::size_t universe, std::size_t r,
                                  std::size_t max_fault_sets) {
  const std::size_t total = count_fault_sets(universe, r);
  if (total > max_fault_sets)
    throw_fault_set_overflow(where, edge_faults, universe, r, total,
                             max_fault_sets);
  FaultSetList out;
  out.offsets.reserve(total + 1);
  for (std::size_t size = 0; size <= std::min(r, universe); ++size)
    for_each_combination(universe, size, [&](const std::vector<Vertex>& comb) {
      out.flat.insert(out.flat.end(), comb.begin(), comb.end());
      out.offsets.push_back(out.flat.size());
    });
  return out;
}

/// The oracle's loop: one bounded G-run and one targeted H-run per source
/// with a surviving incident edge. A surviving edge (u, v) has
/// d_{G\F}(u, v) <= w(u, v) <= bound, so the bounded G-run is still exact
/// for every target; the H-run stops once all targets are settled. The
/// witness pair is the first strict maximum in (source ascending, adjacency
/// order). With kEdges, F is a set of edge ids (`fg` over G's, `fh` over
/// H's); otherwise `fg` is the set of failed vertices and `fh` is unused.
template <class G, bool kEdges>
typename BasicStretchOracle<G>::Witness sweep(
    const Csr& cg, const Csr& ch, const VertexSet& fg, const VertexSet& fh,
    typename BasicStretchOracle<G>::Scratch& s) {
  constexpr bool kUndirected = std::is_same_v<G, Graph>;
  const std::size_t n = cg.num_vertices();
  typename BasicStretchOracle<G>::Witness w;
  for (Vertex u = 0; u < n; ++u) {
    if (!kEdges && fg.contains(u)) continue;
    s.targets.clear();
    Weight bound = 0;
    for (const CsrArc& a : cg.out(u)) {
      if constexpr (kUndirected)
        if (a.to < u) continue;  // each edge once
      if (fg.contains(kEdges ? a.edge : a.to)) continue;
      s.targets.push_back(a.to);
      bound = std::max(bound, a.w);
    }
    if (s.targets.empty()) continue;
    if constexpr (kEdges) {
      s.dg.run_avoiding_edges(cg, u, fg, s.targets, bound);
      s.dh.run_avoiding_edges(ch, u, fh, s.targets);
    } else {
      s.dg.run(cg, u, &fg, s.targets, bound);
      s.dh.run(ch, u, &fg, s.targets);
    }
    for (const Vertex v : s.targets) {
      const Weight dg = s.dg.dist(v);
      if (!(dg < kInfiniteWeight) || dg <= 0) continue;
      const Weight dh = s.dh.dist(v);
      const double stretch =
          dh < kInfiniteWeight ? dh / dg : kInfiniteWeight;
      if (stretch > w.stretch) w = {stretch, u, v};
    }
  }
  return w;
}

/// G's edge id -> H's id for the same endpoints (kInvalidEdge where H lacks
/// the edge). Built per edge check, never by the oracle's constructor.
std::vector<EdgeId> g_to_h_edges(const Graph& g, const Graph& h) {
  std::vector<EdgeId> map(g.num_edges(), kInvalidEdge);
  for (EdgeId id = 0; id < h.num_edges(); ++id) {
    const Edge& e = h.edge(id);
    if (const auto gid = g.edge_id(e.u, e.v)) map[*gid] = id;
  }
  return map;
}

/// Empties the edge-fault masks, sizing them over G's and H's edge ids on
/// first use.
void clear_edge_faults(StretchOracle::Scratch& s, std::size_t m,
                       std::size_t mh) {
  if (s.edge_faults.universe_size() != m) s.edge_faults = VertexSet(m);
  if (s.h_edge_faults.universe_size() != mh) s.h_edge_faults = VertexSet(mh);
  s.edge_faults.clear();
  s.h_edge_faults.clear();
}

/// Fails G-edge `id`: adds it to F, and its copy in H (if any) to H's mask.
void fail_edge(StretchOracle::Scratch& s, EdgeId id,
               const std::vector<EdgeId>& g_to_h) {
  s.edge_faults.insert(id);
  if (g_to_h[id] != kInvalidEdge) s.h_edge_faults.insert(g_to_h[id]);
}

}  // namespace

template <class G>
BasicStretchOracle<G>::BasicStretchOracle(const G& g, const G& h, double k)
    : g_(&g), h_(&h), cg_(g), ch_(h), k_(k) {
  if (!valid_stretch(k))
    throw std::invalid_argument("StretchOracle: k must be finite and >= 1");
  if (g.num_vertices() != h.num_vertices())
    throw std::invalid_argument("StretchOracle: vertex count mismatch");
}

template <class G>
typename BasicStretchOracle<G>::Scratch BasicStretchOracle<G>::make_scratch(
    SpEnginePolicy policy, Weight bucket_max) const {
  if (!valid_bucket_max(bucket_max))
    throw std::invalid_argument(
        "StretchOracle: bucket_max must be finite and >= 1");
  Scratch s;
  s.faults = VertexSet(g_->num_vertices());
  // Resolve the queue per graph side: G and H can differ (H is a subgraph,
  // but the snapshots carry their own hoisted profiles). Pre-size both
  // engines to their graph's push bound so runs are allocation-free from the
  // first fault set.
  const WeightProfile& wg = cg_.weights();
  const WeightProfile& wh = ch_.weights();
  s.dg.set_queue(
      select_sp_queue(policy, wg.exact_sums(), wg.max_weight, bucket_max),
      wg.max_weight, bucket_max);
  s.dh.set_queue(
      select_sp_queue(policy, wh.exact_sums(), wh.max_weight, bucket_max),
      wh.max_weight, bucket_max);
  s.dg.reserve(g_->num_vertices(), cg_.num_arcs() + 1);
  s.dh.reserve(h_->num_vertices(), ch_.num_arcs() + 1);
  return s;
}

template <class G>
typename BasicStretchOracle<G>::Witness BasicStretchOracle<G>::evaluate(
    const VertexSet& faults, Scratch& s) const {
  return sweep<G, false>(cg_, ch_, faults, faults, s);
}

template <class G>
double BasicStretchOracle<G>::max_stretch(const VertexSet* faults) const {
  Scratch s = make_scratch();
  return evaluate(faults != nullptr ? *faults : s.faults, s).stretch;
}

template <class G>
template <class Load, class Eval>
FtCheckResult BasicStretchOracle<G>::run_indexed(
    std::size_t count, std::size_t universe, const Load& load,
    const Eval& eval, const FtCheckOptions& options) const {
  // Rejected here, not by the first worker's make_scratch, so a bad option
  // fails before any search and even when there is nothing to check.
  if (!valid_bucket_max(options.bucket_max))
    throw std::invalid_argument(
        "StretchOracle: FtCheckOptions::bucket_max must be finite and >= 1");
  FtCheckResult out;
  out.witness_faults = VertexSet(universe);
  out.fault_sets_checked = count;
  if (count == 0) return out;

  std::vector<Witness> witnesses(count);
  // Burst pipeline: fault-set indices travel to per-worker scratch in
  // bursts (pipeline/burst_pipeline.hpp) — one ring hand-off per burst
  // instead of one shared-counter bounce per fault set. Witnesses land in
  // index-keyed slots, so scheduling stays invisible.
  run_bursts(count, resolve_threads(options.threads, count),
             [this, &witnesses, &eval, &options](std::size_t) -> BurstTask {
               auto scratch = std::make_shared<Scratch>(
                   make_scratch(options.engine, options.bucket_max));
               return [&witnesses, &eval, scratch](std::size_t i) {
                 witnesses[i] = eval(i, *scratch);
               };
             });

  // Deterministic fold in fault-set index order — identical to what a
  // sequential consider() chain over the same stream produces, regardless
  // of which worker evaluated which set.
  std::size_t best = count;
  for (std::size_t i = 0; i < count; ++i)
    if (witnesses[i].stretch > out.worst_stretch) {
      out.worst_stretch = witnesses[i].stretch;
      best = i;
    }
  if (out.worst_stretch > k_ * (1 + kStretchCheckTolerance)) out.valid = false;
  if (best != count) {
    out.witness_u = witnesses[best].u;
    out.witness_v = witnesses[best].v;
    Scratch scratch = make_scratch();
    out.witness_faults = load(best, scratch);
  }
  return out;
}

template <class G>
FtCheckResult BasicStretchOracle<G>::evaluate_sets(
    const std::vector<VertexSet>& fault_sets,
    const FtCheckOptions& options) const {
  return run_indexed(
      fault_sets.size(), g_->num_vertices(),
      [&](std::size_t i, Scratch&) -> const VertexSet& {
        return fault_sets[i];
      },
      [&](std::size_t i, Scratch& s) { return evaluate(fault_sets[i], s); },
      options);
}

template <class G>
FtCheckResult BasicStretchOracle<G>::check_exact(
    std::size_t r, const FtCheckOptions& options) const {
  const std::size_t n = g_->num_vertices();
  const FaultSetList sets = enumerate_fault_sets(
      "StretchOracle::check_exact", /*edge_faults=*/false, n, r,
      options.max_fault_sets);
  const auto load = [&](std::size_t i, Scratch& s) -> const VertexSet& {
    s.faults.clear();
    for (const Vertex v : sets[i]) s.faults.insert(v);
    return s.faults;
  };
  return run_indexed(
      sets.size(), n, load,
      [&](std::size_t i, Scratch& s) { return evaluate(load(i, s), s); },
      options);
}

template <class G>
FtCheckResult BasicStretchOracle<G>::check_sampled(
    std::size_t r, std::size_t random_trials, std::size_t adversarial_edges,
    std::uint64_t seed, const FtCheckOptions& options) const {
  const std::size_t n = g_->num_vertices();
  const std::size_t m = g_->num_edges();
  const std::size_t adversarial = m > 0 ? adversarial_edges : 0;
  const std::size_t fault_size =
      std::min(r, n >= 2 ? n - 2 : std::size_t{0});
  const std::size_t count = random_trials + adversarial;

  // Rebuilds trial i's fault set into s.faults. Each trial owns an RNG
  // stream keyed by its index, so any worker reproduces any trial — and the
  // winning witness set can be regenerated after the fold. Returns the
  // probed edge for adversarial trials.
  const auto build_faults =
      [&](std::size_t i, Scratch& s) -> std::optional<EdgeId> {
    Rng rng(hash_combine(seed, i));
    if (i < random_trials) {
      sample_fault_set(rng, fault_size, s.pool, s.faults);
      return std::nullopt;
    }
    // Targeted adversary: repeatedly fail an interior vertex of H's current
    // shortest path between a random edge's endpoints — the most damaging
    // vertices for that pair.
    const EdgeId id = static_cast<EdgeId>(rng.uniform_index(m));
    const auto& e = g_->edge(id);
    s.faults.clear();
    const Vertex target[1] = {e.v};
    for (std::size_t step = 0; step < r; ++step) {
      s.dh.run(ch_, e.u, &s.faults, std::span<const Vertex>(target, 1));
      if (!s.dh.reachable(e.v)) break;  // already disconnected in H \ F
      s.interior.clear();
      for (Vertex x = s.dh.parent(e.v); x != kInvalidVertex && x != e.u;
           x = s.dh.parent(x))
        s.interior.push_back(x);
      if (s.interior.empty()) break;  // direct edge in H; cannot be attacked
      s.faults.insert(s.interior[rng.uniform_index(s.interior.size())]);
    }
    return id;
  };

  const auto eval = [&](std::size_t i, Scratch& s) -> Witness {
    const auto probed = build_faults(i, s);
    if (!probed) return evaluate(s.faults, s);
    // Adversarial trials evaluate only the probed pair (the faults were
    // chosen against it); the random trials cover the broad sweep.
    const auto& e = g_->edge(*probed);
    if (s.faults.contains(e.u) || s.faults.contains(e.v)) return {};
    const Vertex target[1] = {e.v};
    s.dg.run(cg_, e.u, &s.faults, std::span<const Vertex>(target, 1), e.w);
    const Weight dg = s.dg.dist(e.v);
    if (!(dg < kInfiniteWeight) || dg <= 0) return {};
    s.dh.run(ch_, e.u, &s.faults, std::span<const Vertex>(target, 1));
    const Weight dh = s.dh.dist(e.v);
    const double stretch = dh < kInfiniteWeight ? dh / dg : kInfiniteWeight;
    return {stretch, e.u, e.v};
  };

  return run_indexed(
      count, n,
      [&](std::size_t i, Scratch& s) -> const VertexSet& {
        build_faults(i, s);
        return s.faults;
      },
      eval, options);
}

template <class G>
FtCheckResult BasicStretchOracle<G>::check_exact_edges(
    std::size_t r, const FtCheckOptions& options) const
  requires std::is_same_v<G, Graph>
{
  const std::size_t m = g_->num_edges();
  const FaultSetList sets = enumerate_fault_sets(
      "StretchOracle::check_exact_edges", /*edge_faults=*/true, m, r,
      options.max_fault_sets);
  const std::vector<EdgeId> g_to_h = g_to_h_edges(*g_, *h_);
  const auto load = [&](std::size_t i, Scratch& s) -> const VertexSet& {
    clear_edge_faults(s, m, h_->num_edges());
    for (const EdgeId id : sets[i]) fail_edge(s, id, g_to_h);
    return s.edge_faults;
  };
  return run_indexed(
      sets.size(), m, load,
      [&](std::size_t i, Scratch& s) {
        load(i, s);
        return sweep<G, true>(cg_, ch_, s.edge_faults, s.h_edge_faults, s);
      },
      options);
}

template <class G>
FtCheckResult BasicStretchOracle<G>::check_sampled_edges(
    std::size_t r, std::size_t random_trials, std::size_t adversarial_edges,
    std::uint64_t seed, const FtCheckOptions& options) const
  requires std::is_same_v<G, Graph>
{
  const std::size_t m = g_->num_edges();
  const std::size_t count = m > 0 ? random_trials + adversarial_edges : 0;
  const std::size_t fault_size = std::min(r, m);
  const std::vector<EdgeId> g_to_h = g_to_h_edges(*g_, *h_);

  // Rebuilds trial i's edge-fault set into the scratch masks from the
  // trial's own RNG stream, exactly as check_sampled does for vertices.
  const auto load = [&](std::size_t i, Scratch& s) -> const VertexSet& {
    clear_edge_faults(s, m, h_->num_edges());
    Rng rng(hash_combine(seed, i));
    if (i < random_trials) {
      sample_fault_set(rng, fault_size, s.pool, s.edge_faults);
      for (std::size_t j = 0; j < fault_size; ++j)
        fail_edge(s, s.pool[j], g_to_h);
      return s.edge_faults;
    }
    // Targeted adversary: repeatedly fail a random edge of H's current
    // shortest path between a random G-edge's endpoints. A step whose victim
    // is the probed edge itself (or has no copy in G) is spent without a
    // fault.
    const EdgeId probe = static_cast<EdgeId>(rng.uniform_index(m));
    const Edge& e = g_->edge(probe);
    const Vertex target[1] = {e.v};
    for (std::size_t step = 0; step < r; ++step) {
      s.dh.run_avoiding_edges(ch_, e.u, s.h_edge_faults,
                              std::span<const Vertex>(target, 1));
      if (!s.dh.reachable(e.v)) break;  // already disconnected in H \ F
      s.interior.clear();  // the path's H-edge ids
      for (Vertex x = e.v; s.dh.via(x) != kInvalidEdge;
           x = h_->edge(s.dh.via(x)).other(x))
        s.interior.push_back(s.dh.via(x));
      if (s.interior.empty()) break;
      const Edge& victim =
          h_->edge(s.interior[rng.uniform_index(s.interior.size())]);
      const auto id = g_->edge_id(victim.u, victim.v);
      if (!id || *id == probe) continue;
      fail_edge(s, *id, g_to_h);
    }
    return s.edge_faults;
  };

  // Every trial — adversarial ones too — evaluates every surviving edge.
  return run_indexed(
      count, m, load,
      [&](std::size_t i, Scratch& s) {
        load(i, s);
        return sweep<G, true>(cg_, ch_, s.edge_faults, s.h_edge_faults, s);
      },
      options);
}

template class BasicStretchOracle<Graph>;
template class BasicStretchOracle<Digraph>;

}  // namespace ftspan
