#include "validate/stretch_oracle.hpp"

#include <algorithm>
#include <cmath>
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

void for_each_fault_set(const char* where, bool edge_faults,
                        std::size_t universe, std::size_t r,
                        std::size_t max_fault_sets,
                        const std::function<void(std::span<const Vertex>)>& fn) {
  const std::size_t total = count_fault_sets(universe, r);
  if (total > max_fault_sets)
    throw_fault_set_overflow(where, edge_faults, universe, r, total,
                             max_fault_sets);
  std::vector<Vertex> f;
  for (std::size_t size = 0; size <= std::min(r, universe); ++size) {
    f.resize(size);
    for (std::size_t i = 0; i < size; ++i) f[i] = static_cast<Vertex>(i);
    for (;;) {
      fn(f);
      // Advance the rightmost id that is below its largest value, universe
      // - size + i, and restart every id after it just above it.
      std::size_t i = size;
      while (i > 0 && f[i - 1] == universe - size + (i - 1)) --i;
      if (i == 0) break;
      ++f[i - 1];
      for (std::size_t j = i; j < size; ++j) f[j] = f[j - 1] + 1;
    }
  }
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
  FaultSetList out;
  out.offsets.reserve(
      std::min(count_fault_sets(universe, r), max_fault_sets) + 1);
  for_each_fault_set(where, edge_faults, universe, r, max_fault_sets,
                     [&](std::span<const Vertex> f) {
                       out.flat.insert(out.flat.end(), f.begin(), f.end());
                       out.offsets.push_back(out.flat.size());
                     });
  return out;
}

/// True for the out-arcs that are source u's targets: all of them, or on
/// undirected graphs each edge once (from its lower endpoint).
template <class G>
bool is_slot(Vertex u, const CsrArc& a) {
  return !std::is_same_v<G, Graph> || a.to >= u;
}

/// The stretch of a pair where none is defined: d_G infinite, or
/// d_G = d_H = 0. Never a witness: witnesses start at 1.
constexpr double kNoStretch = -1.0;

/// d_H / d_G, or kNoStretch. A pair with d_G = 0 < d_H has an infinite
/// stretch: no k covers it, so H must keep a zero-length path.
double stretch_value(Weight dg, Weight dh) {
  if (!(dg < kInfiniteWeight)) return kNoStretch;
  if (dg <= 0) return dh <= 0 ? kNoStretch : kInfiniteWeight;
  return dh < kInfiniteWeight ? dh / dg : kInfiniteWeight;
}

}  // namespace

/// The fault-free baseline (mechanisms 4 and 5). A slot is one (source u,
/// target v) pair, numbered in sweep order; per slot it keeps the labels of
/// u's fault-free search, and per element (vertex, or G's edge id under edge
/// faults) the index entries slot * 2 + side of the slots whose recorded G
/// path (side 0) or H path (side 1) contains it.
struct OracleBaseline {
  /// Source u's slots are [slot_begin[u], slot_begin[u + 1]), in adjacency
  /// order (is_slot).
  std::vector<std::size_t> slot_begin;
  std::vector<Weight> dg, dh;  ///< per slot: d_G(u, v) and d_H(u, v)
  /// Element e's entries are entries[entry_begin[e], entry_begin[e + 1]),
  /// ascending.
  std::vector<std::size_t> entry_begin;
  std::vector<std::size_t> entries;
  /// Undirected graphs only: source u's row is the settle order of its
  /// fault-free G-run and those labels, row_vertices / row_labels
  /// [row_begin[u], row_begin[u + 1]). Only a source one of whose slots has
  /// a recorded G path with an element keeps one; no other source is ever
  /// asked a G query.
  std::vector<std::size_t> row_begin;
  std::vector<Vertex> row_vertices;
  std::vector<Weight> row_labels;
  std::size_t searches = 0;  ///< runs the baseline sweep made

  std::span<const std::size_t> touched_by(Vertex e) const {
    return {entries.data() + entry_begin[e],
            entries.data() + entry_begin[e + 1]};
  }
};

namespace {

/// One forward run from u on a graph minus F, to `targets` within `bound`:
/// F is `dead` — failed vertices (nullptr: none), or with kEdges the
/// graph's dead edge ids.
template <bool kEdges>
void run_from(DijkstraEngine& e, const Csr& c, Vertex u,
              const VertexSet* dead, std::span<const Vertex> targets,
              Weight bound = kInfiniteWeight) {
  if constexpr (kEdges)
    e.run_avoiding_edges(c, u, *dead, targets, bound);
  else
    e.run(c, u, dead, targets, bound);
}

/// Source u's search: collects its surviving targets into s.targets and,
/// if there are any, runs one bounded G-run and one targeted H-run. A
/// surviving edge (u, v) has d_{G\F}(u, v) <= w(u, v) <= bound, so the
/// bounded G-run is still exact for every target; the H-run stops once all
/// targets are settled. With kEdges, F is a set of edge ids (`fg` over G's,
/// `fh` over H's); otherwise `fg` is the set of failed vertices (nullptr:
/// none) and `fh` is unused. Returns whether it searched.
template <class G, bool kEdges>
bool search_source(const Csr& cg, const Csr& ch, Vertex u,
                   const VertexSet* fg, const VertexSet* fh,
                   typename BasicStretchOracle<G>::Scratch& s) {
  s.targets.clear();
  Weight bound = 0;
  for (const CsrArc& a : cg.out(u)) {
    if (!is_slot<G>(u, a)) continue;
    if (fg != nullptr && fg->contains(kEdges ? a.edge : a.to)) continue;
    s.targets.push_back(a.to);
    bound = std::max(bound, a.w);
  }
  if (s.targets.empty()) return false;
  run_from<kEdges>(s.dg, cg, u, fg, s.targets, bound);
  run_from<kEdges>(s.dh, ch, u, kEdges ? fh : fg, s.targets);
  return true;
}

/// The oracle's full loop: search_source for every source, skipping failed
/// vertices. The witness pair is the first strict maximum in (source
/// ascending, adjacency order).
template <class G, bool kEdges>
typename BasicStretchOracle<G>::Witness sweep_all(
    const Csr& cg, const Csr& ch, const VertexSet& fg, const VertexSet& fh,
    typename BasicStretchOracle<G>::Scratch& s) {
  typename BasicStretchOracle<G>::Witness w;
  for (Vertex u = 0; u < cg.num_vertices(); ++u) {
    if (!kEdges && fg.contains(u)) continue;
    if (!search_source<G, kEdges>(cg, ch, u, &fg, &fh, s)) continue;
    w.searches += 2;
    for (const Vertex v : s.targets) {
      const double stretch = stretch_value(s.dg.dist(v), s.dh.dist(v));
      if (stretch > w.stretch) {
        w.stretch = stretch;
        w.u = u;
        w.v = v;
      }
    }
  }
  return w;
}

/// A baseline-backed sweep's running fold: the first strict maximum so far
/// and its slot (kNone while no slot beats the starting 1.0).
struct RunningWitness {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  double stretch = 1.0;
  std::size_t slot = kNone;
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;

  /// Whether `slot_stretch` at slot `at` cannot be the witness: it is below
  /// the running maximum, or equal to it where the 1.0 start or an earlier
  /// slot already holds it. Below for one value, below for every smaller
  /// one.
  bool below(double slot_stretch, std::size_t at) const {
    return slot_stretch < stretch ||
           (slot_stretch == stretch && !(stretch > 1 && at < slot));
  }
  void consider(double slot_stretch, std::size_t at, Vertex su, Vertex sv) {
    if (below(slot_stretch, at)) return;
    stretch = slot_stretch;
    slot = at;
    u = su;
    v = sv;
  }
};

/// The largest length t, looked for within a few ulps of cut * d, for which
/// fl(t / d) is below(): for d > 0 <= d_{G\F}, a path of length <= t in H\F
/// then bounds the slot's stretch below the cut (division is monotone).
/// -1 when no such t is found there.
template <class Below>
Weight cutoff(double cut, Weight d, const Below& below) {
  constexpr int kSteps = 8;
  constexpr Weight kMax = std::numeric_limits<Weight>::max();
  Weight t = std::min(cut * d, kMax * std::min(d, Weight{1}));
  for (int i = 0; !below(t / d); ++i) {
    if (i == kSteps || !(t > 0)) return -1;
    t = std::nextafter(t, Weight{0});
  }
  for (int i = 0; i < kSteps; ++i) {
    const Weight up = std::nextafter(t, kInfiniteWeight);
    if (!(up <= kMax) || !below(up / d)) break;
    t = up;
  }
  return t;
}

/// A baseline-backed sweep (mechanism 5). Pass 1 folds, from their baseline
/// labels, the live slots whose recorded paths F misses. Each live slot F
/// touches is then decided against the running witness: it is skipped once
/// a real path proves its stretch below it, and only the undecided slots of
/// a source get that source's exact runs, on the sides F touched. Their
/// labels are those of a full sweep, bit for bit, so the witness is too.
template <class G, bool kEdges>
typename BasicStretchOracle<G>::Witness sweep_indexed(
    const Csr& cg, const Csr& ch, const VertexSet& fg, const VertexSet& fh,
    const OracleBaseline& base, typename BasicStretchOracle<G>::Scratch& s) {
  using Touched = typename BasicStretchOracle<G>::Scratch::Touched;
  typename BasicStretchOracle<G>::Witness w;
  const std::size_t n = cg.num_vertices();
  const bool exact = cg.weights().exact_sums() && ch.weights().exact_sums();

  s.entries.clear();
  fg.for_each([&](Vertex f) {
    const std::span<const std::size_t> e = base.touched_by(f);
    s.entries.insert(s.entries.end(), e.begin(), e.end());
  });
  std::sort(s.entries.begin(), s.entries.end());
  s.entries.erase(std::unique(s.entries.begin(), s.entries.end()),
                  s.entries.end());

  // Pass 1: the untouched live slots, in order; the touched ones wait.
  RunningWitness best;
  s.touched.clear();
  std::size_t next = 0;  // first entry not below the current slot's
  for (Vertex u = 0; u < n; ++u) {
    if (!kEdges && fg.contains(u)) continue;
    std::size_t slot = base.slot_begin[u];
    for (const CsrArc& a : cg.out(u)) {
      if (!is_slot<G>(u, a)) continue;
      const std::size_t j = slot++;
      if (fg.contains(kEdges ? a.edge : a.to)) continue;
      while (next < s.entries.size() && s.entries[next] / 2 < j) ++next;
      std::uint8_t sides = 0;
      for (; next < s.entries.size() && s.entries[next] / 2 == j; ++next)
        sides |= static_cast<std::uint8_t>(1u << (s.entries[next] % 2));
      if (sides == 0)
        best.consider(stretch_value(base.dg[j], base.dh[j]), j, u, a.to);
      else
        s.touched.push_back({j, u, a.to, a.w, sides, false});
    }
  }

  // The queries. Undirected graphs ask H the bidirectional pair search, on
  // the two engines' heaps, and G an A* search on dg's heap; both results
  // are trusted only kTieWindow inside a threshold unless path sums are
  // exact. Digraphs ask a bounded forward run, whose label is exact.
  const auto arcs = [](const Csr& c, const VertexSet& dead) {
    return [&c, &dead](Vertex x, auto&& relax) {
      for (const CsrArc& a : c.out(x))
        if (!kEdges || !dead.contains(a.edge)) relax(a.to, a.w, a.edge);
    };
  };
  const VertexSet* vertex_faults = kEdges ? nullptr : &fg;
  // s.potential holds the row of source row_source (Graph only).
  Vertex row_source = kInvalidVertex;
  Weight row_last = 0;  // the row's last label
  const auto spread_row = [&](Vertex u, bool clear) {
    for (std::size_t i = base.row_begin[u]; i < base.row_begin[u + 1]; ++i)
      s.potential[base.row_vertices[i]] =
          clear ? kInfiniteWeight : base.row_labels[i];
  };
  // A lower bound on d_{G\F}(u, v); the live edge (u, v) bounds the search.
  // On undirected graphs: an A* search from v toward u, with the potential
  // pi(x) = min(d_G(u, x), row_last) from u's baseline row. pi never
  // exceeds d_{G\F}(x, u), since F only removes paths, and the min with a
  // constant keeps it consistent; the engine's clamp absorbs the rounding
  // of inexact sums (DijkstraEngine::goal_directed_pair).
  const auto g_lower_bound = [&](const Touched& t) -> Weight {
    ++w.searches;
    if constexpr (std::is_same_v<G, Graph>) {
      if (row_source != t.u) {
        if (s.potential.size() != n) s.potential.assign(n, kInfiniteWeight);
        if (row_source != kInvalidVertex) spread_row(row_source, true);
        row_source = t.u;
        spread_row(t.u, false);
        const std::size_t end = base.row_begin[t.u + 1];
        row_last = end > base.row_begin[t.u] ? base.row_labels[end - 1] : 0;
      }
      const auto pi = [&](Vertex x) {
        return std::min(s.potential[x], row_last);
      };
      const Weight d = s.dg.goal_directed_pair(n, t.v, t.u, vertex_faults,
                                               t.w, pi, arcs(cg, fg));
      return exact ? d : d * (1 - kTieWindow);
    } else {
      const Vertex target[1] = {t.v};
      s.dg.run(cg, t.u, &fg, std::span<const Vertex>(target, 1), t.w);
      return s.dg.dist(t.v);
    }
  };
  // Whether H\F has a u-v path of forward-summed length <= len.
  const auto h_within = [&](const Touched& t, Weight len) -> bool {
    ++w.searches;
    if constexpr (std::is_same_v<G, Graph>) {
      const Weight accept = exact ? len : len * (1 - kTieWindow);
      return DijkstraEngine::bidirectional_bounded_pair(
                 s.dg, s.dh, n, t.u, t.v, vertex_faults, len, arcs(ch, fh),
                 accept) <= accept;
    } else {
      const Vertex target[1] = {t.v};
      s.dh.run(ch, t.u, &fg, std::span<const Vertex>(target, 1), len);
      return s.dh.dist(t.v) <= len;
    }
  };
  // Whether touched slot t provably cannot be the witness. F only removes
  // paths, so d_{G\F} >= d_G; a skip needs a real path, so it only ever
  // proves "below", and every uncertain case stays undecided.
  const auto skip = [&](const Touched& t) {
    const auto below = [&](double stretch) {
      return best.below(stretch, t.slot);
    };
    if (below(kInfiniteWeight)) return true;  // so is every stretch
    const Weight dg = base.dg[t.slot], dh = base.dh[t.slot];
    if (!(dg > 0)) return false;  // a zero-length G path: no cut applies
    if ((t.sides & 2) == 0)       // d_H stays, and d_G can only grow
      return below(stretch_value(dg, dh));
    const Weight cut = cutoff(best.stretch, dg, below);
    if (cut >= 0 && h_within(t, cut)) return true;
    if ((t.sides & 1) == 0) return false;
    // Both paths touched: d_{G\F} may have grown; decide again against a
    // lower bound on it.
    const Weight lower = g_lower_bound(t);
    if (!(lower > dg)) return false;
    const Weight wider = cutoff(best.stretch, lower, below);
    return wider > cut && h_within(t, wider);
  };

  // Pass 2, one source at a time: decide, run, fold in slot order.
  for (std::size_t i = 0; i < s.touched.size();) {
    const Vertex u = s.touched[i].u;
    std::size_t end = i;
    Weight bound = 0;
    s.targets.clear();
    s.h_targets.clear();
    for (; end < s.touched.size() && s.touched[end].u == u; ++end) {
      Touched& t = s.touched[end];
      t.undecided = !skip(t);
      if (!t.undecided) continue;
      if (t.sides & 1) {
        s.targets.push_back(t.v);
        bound = std::max(bound, t.w);
      }
      if (t.sides & 2) s.h_targets.push_back(t.v);
    }
    if (!s.targets.empty()) {
      ++w.searches;
      run_from<kEdges>(s.dg, cg, u, &fg, s.targets, bound);
    }
    if (!s.h_targets.empty()) {
      ++w.searches;
      run_from<kEdges>(s.dh, ch, u, kEdges ? &fh : &fg, s.h_targets);
    }
    for (; i < end; ++i) {
      const Touched& t = s.touched[i];
      if (!t.undecided) continue;
      const Weight dg = t.sides & 1 ? s.dg.dist(t.v) : base.dg[t.slot];
      const Weight dh = t.sides & 2 ? s.dh.dist(t.v) : base.dh[t.slot];
      best.consider(stretch_value(dg, dh), t.slot, u, t.v);
    }
  }
  if (row_source != kInvalidVertex) spread_row(row_source, true);
  w.stretch = best.stretch;
  w.u = best.u;
  w.v = best.v;
  return w;
}

/// One fault set's sweep: baseline-backed when there is a baseline.
template <class G, bool kEdges>
typename BasicStretchOracle<G>::Witness sweep(
    const Csr& cg, const Csr& ch, const VertexSet& fg, const VertexSet& fh,
    const OracleBaseline* base, typename BasicStretchOracle<G>::Scratch& s) {
  return base != nullptr ? sweep_indexed<G, kEdges>(cg, ch, fg, fh, *base, s)
                         : sweep_all<G, kEdges>(cg, ch, fg, fh, s);
}

/// Appends to `out` the elements on the engine's recorded path from its
/// source u to v: the interior vertices, or with kEdges the path's edge ids
/// mapped through `to_g` (nullptr: already G's), dropping kInvalidEdge and
/// the slot's own edge `own` (a fault on it removes the slot). Returns how
/// many it appended.
template <bool kEdges>
std::uint32_t record_path(const DijkstraEngine& e, Vertex u, Vertex v,
                          EdgeId own, const std::vector<EdgeId>* to_g,
                          std::vector<Vertex>& out) {
  const std::size_t before = out.size();
  if constexpr (kEdges) {
    for (Vertex x = v; e.via(x) != kInvalidEdge; x = e.parent(x)) {
      const EdgeId id = to_g != nullptr ? (*to_g)[e.via(x)] : e.via(x);
      if (id != kInvalidEdge && id != own) out.push_back(id);
    }
  } else {
    for (Vertex x = e.parent(v); x != u && x != kInvalidVertex;
         x = e.parent(x))
      out.push_back(x);
  }
  return static_cast<std::uint32_t>(out.size() - before);
}

/// `from`'s edge id -> `to`'s id for the same endpoints (kInvalidEdge where
/// `to` lacks the edge). Built per edge check, never by the oracle's
/// constructor.
std::vector<EdgeId> edge_ids_in(const Graph& from, const Graph& to) {
  std::vector<EdgeId> map(from.num_edges(), kInvalidEdge);
  for (EdgeId id = 0; id < from.num_edges(); ++id) {
    const Edge& e = from.edge(id);
    if (const auto other = to.edge_id(e.u, e.v)) map[id] = *other;
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
  // One queue for both engines' forward runs, from the joint weight
  // profile (H may carry heavier edges than G), so a check runs G and H on
  // the same structure. A bidirectional or A* query runs on the engines'
  // heaps whatever this picks. Pre-size each engine to its own graph's push
  // bound, so its runs are allocation-free from the first fault set.
  const WeightProfile& wg = cg_.weights();
  const WeightProfile& wh = ch_.weights();
  const Weight max_weight = std::max(wg.max_weight, wh.max_weight);
  const SpQueue q =
      select_sp_queue(policy, wg.exact_sums() && wh.exact_sums());
  s.dg.set_queue(q, max_weight, bucket_max);
  s.dh.set_queue(q, max_weight, bucket_max);
  s.dg.reserve(g_->num_vertices(), cg_.num_arcs() + 1);
  s.dh.reserve(h_->num_vertices(), ch_.num_arcs() + 1);
  return s;
}

template <class G>
typename BasicStretchOracle<G>::Witness BasicStretchOracle<G>::evaluate(
    const VertexSet& faults, Scratch& s) const {
  return sweep<G, false>(cg_, ch_, faults, faults, nullptr, s);
}

template <class G>
double BasicStretchOracle<G>::max_stretch(const VertexSet* faults) const {
  Scratch s = make_scratch();
  return evaluate(faults != nullptr ? *faults : s.faults, s).stretch;
}

template <class G>
template <bool kEdges>
OracleBaseline BasicStretchOracle<G>::build_baseline(
    BurstPool<Scratch>& lanes) const {
  // With no faults every source with a slot is searched: a G-run and an
  // H-run.
  const std::size_t n = cg_.num_vertices();
  OracleBaseline b;
  b.slot_begin.assign(n + 1, 0);
  for (Vertex u = 0; u < n; ++u) {
    std::size_t slots = 0;
    for (const CsrArc& a : cg_.out(u)) slots += is_slot<G>(u, a) ? 1 : 0;
    b.slot_begin[u + 1] = b.slot_begin[u] + slots;
    b.searches += slots > 0 ? 2 : 0;
  }
  b.dg.resize(b.slot_begin[n]);
  b.dh.resize(b.slot_begin[n]);
  // H's edge id -> G's: an H edge G lacks never fails.
  std::vector<EdgeId> h_to_g;
  if constexpr (kEdges) h_to_g = edge_ids_in(*h_, *g_);

  // One source per task: a lane writes the source's slots and the lengths
  // of their two recorded paths, and appends the paths' elements, and the
  // source's row if it keeps one, to the lane's own buffers (one growing
  // buffer per lane, not one per source).
  std::vector<std::uint32_t> path_length(2 * b.slot_begin[n]);
  struct Recorded {
    const Scratch* lane = nullptr;
    std::size_t begin = 0;
    std::size_t row_begin = 0, row_size = 0;
  };
  std::vector<Recorded> recorded(n);
  lanes.run(n, [&](std::size_t i, Scratch& s) {
    const Vertex u = static_cast<Vertex>(i);
    if (!search_source<G, false>(cg_, ch_, u, nullptr, nullptr, s)) return;
    Recorded& rec = recorded[u];
    rec = {&s, s.path_elements.size()};
    std::size_t slot = b.slot_begin[u];
    bool g_elements = false;  // some recorded G path has an element
    for (const CsrArc& a : cg_.out(u)) {
      if (!is_slot<G>(u, a)) continue;
      b.dg[slot] = s.dg.dist(a.to);
      b.dh[slot] = s.dh.dist(a.to);
      path_length[2 * slot] = record_path<kEdges>(s.dg, u, a.to, a.edge,
                                                  nullptr, s.path_elements);
      g_elements = g_elements || path_length[2 * slot] > 0;
      path_length[2 * slot + 1] = record_path<kEdges>(
          s.dh, u, a.to, a.edge, &h_to_g, s.path_elements);
      ++slot;
    }
    if (!std::is_same_v<G, Graph> || !g_elements) return;
    rec.row_begin = s.row_vertices.size();
    rec.row_size = s.dg.settle_order().size();
    for (const Vertex x : s.dg.settle_order()) {
      s.row_vertices.push_back(x);
      s.row_labels.push_back(s.dg.dist(x));
    }
  });

  // The rows, concatenated in source order.
  b.row_begin.assign(n + 1, 0);
  for (Vertex u = 0; u < n; ++u)
    b.row_begin[u + 1] = b.row_begin[u] + recorded[u].row_size;
  b.row_vertices.resize(b.row_begin[n]);
  b.row_labels.resize(b.row_begin[n]);
  for (Vertex u = 0; u < n; ++u) {
    const Recorded& rec = recorded[u];
    if (rec.row_size == 0) continue;
    std::copy_n(rec.lane->row_vertices.begin() + rec.row_begin, rec.row_size,
                b.row_vertices.begin() + b.row_begin[u]);
    std::copy_n(rec.lane->row_labels.begin() + rec.row_begin, rec.row_size,
                b.row_labels.begin() + b.row_begin[u]);
  }

  // Invert into element -> entries, entry slot * 2 + side: a counting sort
  // over the entries in order, so each element's come out ascending.
  const auto for_each_entry = [&](const auto& fn) {
    for (Vertex u = 0; u < n; ++u) {
      if (recorded[u].lane == nullptr) continue;
      const Vertex* e = recorded[u].lane->path_elements.data() +
                        recorded[u].begin;
      for (std::size_t entry = 2 * b.slot_begin[u];
           entry < 2 * b.slot_begin[u + 1]; ++entry)
        for (std::uint32_t i = 0; i < path_length[entry]; ++i) fn(*e++, entry);
    }
  };
  const std::size_t universe = kEdges ? g_->num_edges() : n;
  b.entry_begin.assign(universe + 1, 0);
  for_each_entry([&](Vertex e, std::size_t) { ++b.entry_begin[e + 1]; });
  for (std::size_t e = 0; e < universe; ++e)
    b.entry_begin[e + 1] += b.entry_begin[e];
  b.entries.resize(b.entry_begin[universe]);
  std::vector<std::size_t> fill(b.entry_begin.begin(),
                                b.entry_begin.end() - 1);
  for_each_entry(
      [&](Vertex e, std::size_t entry) { b.entries[fill[e]++] = entry; });
  return b;
}

template <class G>
template <bool kEdges, class Load, class Eval>
FtCheckResult BasicStretchOracle<G>::run_indexed(
    std::size_t count, std::size_t sweeps, std::size_t universe,
    const Load& load, const Eval& eval, const FtCheckOptions& options) const {
  // Rejected here, not by the first worker's make_scratch, so a bad option
  // fails before any search and even when there is nothing to check.
  if (!valid_bucket_max(options.bucket_max))
    throw std::invalid_argument(
        "StretchOracle: FtCheckOptions::bucket_max must be finite and >= 1");
  FtCheckResult out;
  out.witness_faults = VertexSet(universe);
  out.fault_sets_checked = count;
  if (count == 0) return out;

  // The baseline costs one fault-free sweep, so it pays from the second
  // sweeping fault set on.
  const bool with_baseline = sweeps >= 2;
  // Source and fault-set indices are claimed one at a time by the lanes of
  // a BurstPool (pipeline/burst_pipeline.hpp), so a heavy fault set holds up
  // only the lane that drew it. Each lane makes its scratch once, on its own
  // thread, and keeps it from the baseline sweep to the fault sets. Results
  // land in index-keyed slots, so scheduling stays invisible.
  BurstPool<Scratch> lanes(
      resolve_threads(options.threads,
                      with_baseline ? std::max(count, g_->num_vertices())
                                    : count),
      [this, &options](std::size_t) {
        return make_scratch(options.engine, options.bucket_max);
      });
  std::optional<OracleBaseline> baseline;
  if (with_baseline) {
    baseline = build_baseline<kEdges>(lanes);
    out.searches = baseline->searches;
  }
  const OracleBaseline* base = baseline ? &*baseline : nullptr;

  std::vector<Witness> witnesses(count);
  lanes.run(count, [&](std::size_t i, Scratch& s) {
    witnesses[i] = eval(i, s, base);
  });

  // Deterministic fold in fault-set index order — identical to what a
  // sequential consider() chain over the same stream produces, regardless
  // of which worker evaluated which set.
  std::size_t best = count;
  for (std::size_t i = 0; i < count; ++i) {
    out.searches += witnesses[i].searches;
    if (witnesses[i].stretch > out.worst_stretch) {
      out.worst_stretch = witnesses[i].stretch;
      best = i;
    }
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
  return run_indexed<false>(
      fault_sets.size(), fault_sets.size(), g_->num_vertices(),
      [&](std::size_t i, Scratch&) -> const VertexSet& {
        return fault_sets[i];
      },
      [&](std::size_t i, Scratch& s, const OracleBaseline* base) {
        return sweep<G, false>(cg_, ch_, fault_sets[i], fault_sets[i], base,
                               s);
      },
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
  return run_indexed<false>(
      sets.size(), sets.size(), n, load,
      [&](std::size_t i, Scratch& s, const OracleBaseline* base) {
        const VertexSet& faults = load(i, s);
        return sweep<G, false>(cg_, ch_, faults, faults, base, s);
      },
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

  const auto eval = [&](std::size_t i, Scratch& s,
                        const OracleBaseline* base) -> Witness {
    const auto probed = build_faults(i, s);
    if (!probed) return sweep<G, false>(cg_, ch_, s.faults, s.faults, base, s);
    // Adversarial trials evaluate only the probed pair (the faults were
    // chosen against it); the random trials cover the broad sweep.
    const auto& e = g_->edge(*probed);
    Witness w;
    if (s.faults.contains(e.u) || s.faults.contains(e.v)) return w;
    w.searches = 2;
    const Vertex target[1] = {e.v};
    s.dg.run(cg_, e.u, &s.faults, std::span<const Vertex>(target, 1), e.w);
    s.dh.run(ch_, e.u, &s.faults, std::span<const Vertex>(target, 1));
    const double stretch = stretch_value(s.dg.dist(e.v), s.dh.dist(e.v));
    if (stretch == kNoStretch) return w;
    w.stretch = stretch;
    w.u = e.u;
    w.v = e.v;
    return w;
  };

  // Only the random trials (indices below random_trials) sweep.
  return run_indexed<false>(
      count, random_trials, n,
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
  const std::vector<EdgeId> g_to_h = edge_ids_in(*g_, *h_);
  const auto load = [&](std::size_t i, Scratch& s) -> const VertexSet& {
    clear_edge_faults(s, m, h_->num_edges());
    for (const EdgeId id : sets[i]) fail_edge(s, id, g_to_h);
    return s.edge_faults;
  };
  return run_indexed<true>(
      sets.size(), sets.size(), m, load,
      [&](std::size_t i, Scratch& s, const OracleBaseline* base) {
        load(i, s);
        return sweep<G, true>(cg_, ch_, s.edge_faults, s.h_edge_faults, base,
                              s);
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
  const std::vector<EdgeId> g_to_h = edge_ids_in(*g_, *h_);

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
  return run_indexed<true>(
      count, count, m, load,
      [&](std::size_t i, Scratch& s, const OracleBaseline* base) {
        load(i, s);
        return sweep<G, true>(cg_, ch_, s.edge_faults, s.h_edge_faults, base,
                              s);
      },
      options);
}

template class BasicStretchOracle<Graph>;
template class BasicStretchOracle<Digraph>;

}  // namespace ftspan
