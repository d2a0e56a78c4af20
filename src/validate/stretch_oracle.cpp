#include "validate/stretch_oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "ftspanner/parallel.hpp"
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

void throw_fault_set_overflow(const char* where, std::size_t n, std::size_t r,
                              std::size_t count, std::size_t max_fault_sets) {
  char msg[224];
  std::snprintf(msg, sizeof msg,
                "%s: too many fault sets to enumerate: n=%zu, r=%zu gives "
                "%zu fault sets > max_fault_sets=%zu; use the sampled check",
                where, n, r, count, max_fault_sets);
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

}  // namespace

template <class G>
BasicStretchOracle<G>::BasicStretchOracle(const G& g, const G& h, double k)
    : g_(&g), h_(&h), cg_(g), ch_(h), k_(k) {
  if (g.num_vertices() != h.num_vertices())
    throw std::invalid_argument("StretchOracle: vertex count mismatch");
}

template <class G>
typename BasicStretchOracle<G>::Scratch BasicStretchOracle<G>::make_scratch(
    SpEnginePolicy policy, Weight bucket_max) const {
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
  constexpr bool kUndirected = std::is_same_v<G, Graph>;
  const std::size_t n = g_->num_vertices();
  Witness w;
  for (Vertex u = 0; u < n; ++u) {
    if (faults.contains(u)) continue;
    s.targets.clear();
    Weight bound = 0;
    for (const CsrArc& a : cg_.out(u)) {
      if constexpr (kUndirected)
        if (a.to < u) continue;  // each edge once
      if (faults.contains(a.to)) continue;
      s.targets.push_back(a.to);
      bound = std::max(bound, a.w);
    }
    if (s.targets.empty()) continue;
    // A surviving edge (u, v) has d_{G\F}(u, v) <= w(u, v) <= bound, so the
    // bounded G-run is still exact for every target; the H-run stops once
    // all targets are settled.
    s.dg.run(cg_, u, &faults, s.targets, bound);
    s.dh.run(ch_, u, &faults, s.targets);
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

template <class G>
double BasicStretchOracle<G>::max_stretch(const VertexSet* faults) const {
  Scratch s = make_scratch();
  return evaluate(faults != nullptr ? *faults : s.faults, s).stretch;
}

template <class G>
template <class Eval, class Rebuild>
FtCheckResult BasicStretchOracle<G>::run_indexed(
    std::size_t count, const Eval& eval, const Rebuild& rebuild,
    const FtCheckOptions& options) const {
  FtCheckResult out;
  out.witness_faults = VertexSet(g_->num_vertices());
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
    rebuild(best, scratch, out.witness_faults);
  }
  return out;
}

template <class G>
FtCheckResult BasicStretchOracle<G>::evaluate_sets(
    const std::vector<VertexSet>& fault_sets,
    const FtCheckOptions& options) const {
  return run_indexed(
      fault_sets.size(),
      [&](std::size_t i, Scratch& s) { return evaluate(fault_sets[i], s); },
      [&](std::size_t i, Scratch&, VertexSet& out) { out = fault_sets[i]; },
      options);
}

template <class G>
FtCheckResult BasicStretchOracle<G>::check_exact(
    std::size_t r, const FtCheckOptions& options) const {
  const std::size_t n = g_->num_vertices();
  const std::size_t total = count_fault_sets(n, r);
  if (total > options.max_fault_sets)
    throw_fault_set_overflow("StretchOracle::check_exact", n, r, total,
                             options.max_fault_sets);

  // Materialize the combinations once (flat vertex array + offsets); the
  // per-set Dijkstra work dwarfs this walk.
  std::vector<Vertex> flat;
  std::vector<std::size_t> offsets{0};
  offsets.reserve(total + 1);
  for (std::size_t size = 0; size <= std::min(r, n); ++size)
    for_each_combination(n, size, [&](const std::vector<Vertex>& comb) {
      flat.insert(flat.end(), comb.begin(), comb.end());
      offsets.push_back(flat.size());
    });

  const auto load = [&](std::size_t i, VertexSet& faults) {
    faults.clear();
    for (std::size_t j = offsets[i]; j < offsets[i + 1]; ++j)
      faults.insert(flat[j]);
  };
  return run_indexed(
      total,
      [&](std::size_t i, Scratch& s) {
        load(i, s.faults);
        return evaluate(s.faults, s);
      },
      [&](std::size_t i, Scratch&, VertexSet& out) { load(i, out); },
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
      count, eval,
      [&](std::size_t i, Scratch& s, VertexSet& out) {
        build_faults(i, s);
        out = s.faults;
      },
      options);
}

template class BasicStretchOracle<Graph>;
template class BasicStretchOracle<Digraph>;

}  // namespace ftspan
