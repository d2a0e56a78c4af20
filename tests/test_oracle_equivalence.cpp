// The StretchOracle's fault-free baseline, its per-slot index and its
// cutoff decisions (mechanisms 4 and 5 in validate/stretch_oracle.hpp) must
// be invisible: every check returns, field by field, the FtCheckResult of
// evaluating each fault set from scratch and folding in index order.
// Vertex-fault references evaluate every set with evaluate(), the oracle's
// full sweep, or run tests/support/reference_sp on G\F and H\F; edge-fault
// references run reference_sp on the materialized G\F and H\F. The fault
// sets are the checks' own streams, restated here from their documentation:
// exact enumerations hit every tree path, and the adversaries fail vertices
// and edges on H's shortest paths by design. The later instances aim at the
// cutoff's corner cases: ties at the running maximum on either side of its
// slot, zero-length G paths, an infinite maximum, near-ties on decimal
// weights, invalid spanners and an H heavier than G.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ftspanner/conversion.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/sp_engine.hpp"
#include "spanner/greedy.hpp"
#include "support/reference_sp.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

constexpr double kK = 3.0;

/// A pair's stretch is defined unless d_G is infinite or d_G = d_H = 0;
/// d_G = 0 < d_H is an infinite stretch.
bool defined_stretch(Weight dg, Weight dh) {
  return dg < kInfiniteWeight && (dg > 0 || dh > 0);
}
double stretch(Weight dg, Weight dh) {
  return dg > 0 && dh < kInfiniteWeight ? dh / dg : kInfiniteWeight;
}

/// One fault set's worst pair.
struct Scored {
  double stretch = 1.0;
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
};

/// The oracle's fold, restated: the first strict maximum in index order.
FtCheckResult fold(const std::vector<VertexSet>& sets,
                   const std::vector<Scored>& scored, std::size_t universe,
                   double k) {
  FtCheckResult out;
  out.witness_faults = VertexSet(universe);
  out.fault_sets_checked = sets.size();
  for (std::size_t i = 0; i < sets.size(); ++i)
    if (scored[i].stretch > out.worst_stretch) {
      out.worst_stretch = scored[i].stretch;
      out.witness_faults = sets[i];
      out.witness_u = scored[i].u;
      out.witness_v = scored[i].v;
    }
  out.valid = !(out.worst_stretch > k * (1 + kStretchCheckTolerance));
  return out;
}

void expect_same(const FtCheckResult& got, const FtCheckResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(got.worst_stretch, want.worst_stretch) << where;
  EXPECT_EQ(got.witness_faults, want.witness_faults) << where;
  EXPECT_EQ(got.witness_u, want.witness_u) << where;
  EXPECT_EQ(got.witness_v, want.witness_v) << where;
  EXPECT_EQ(got.fault_sets_checked, want.fault_sets_checked) << where;
}

/// Runs `check` at threads 1 and 4: both must equal `want`, and both must
/// report the same work count.
template <class Check>
void expect_check(const Check& check, const FtCheckResult& want,
                  const std::string& where) {
  FtCheckOptions one, four;
  one.threads = 1;
  four.threads = 4;
  const FtCheckResult a = check(one);
  const FtCheckResult b = check(four);
  expect_same(a, want, where + " @ threads=1");
  expect_same(b, want, where + " @ threads=4");
  EXPECT_EQ(a.searches, b.searches) << where;
}

/// Every subset of {0..universe-1} of size <= r, by size then
/// lexicographically: check_exact's enumeration order.
std::vector<VertexSet> all_sets(std::size_t universe, std::size_t r) {
  std::vector<VertexSet> out;
  std::vector<Vertex> comb;
  const std::function<void(std::size_t, Vertex)> extend =
      [&](std::size_t size, Vertex from) {
        if (comb.size() == size) {
          VertexSet s(universe);
          for (const Vertex v : comb) s.insert(v);
          out.push_back(s);
          return;
        }
        for (Vertex v = from; v < universe; ++v) {
          comb.push_back(v);
          extend(size, v + 1);
          comb.pop_back();
        }
      };
  for (std::size_t size = 0; size <= std::min(r, universe); ++size)
    extend(size, 0);
  return out;
}

/// Random trial i of a sampled check: min(r, cap) ids of `universe`.
VertexSet random_trial(std::size_t universe, std::size_t size,
                       std::uint64_t seed, std::size_t i) {
  Rng rng(hash_combine(seed, i));
  std::vector<Vertex> pool;
  VertexSet out(universe);
  sample_fault_set(rng, size, pool, out);
  return out;
}

// --- vertex faults ---------------------------------------------------------

template <class G>
std::vector<Scored> full_sweeps(const BasicStretchOracle<G>& oracle,
                                const std::vector<VertexSet>& sets) {
  auto scratch = oracle.make_scratch();
  std::vector<Scored> out;
  for (const VertexSet& f : sets) {
    const auto w = oracle.evaluate(f, scratch);
    out.push_back({w.stretch, w.u, w.v});
  }
  return out;
}

/// check_sampled's adversarial trial i: up to r times, fail a random
/// interior vertex of H's current shortest path between the endpoints of a
/// random G-edge; then score that pair alone (reference distances).
Scored vertex_adversary(const StretchOracle& oracle, const Csr& ch,
                        std::size_t r, std::uint64_t seed, std::size_t i,
                        VertexSet& faults) {
  const Graph& g = oracle.base();
  Rng rng(hash_combine(seed, i));
  const Edge& e = g.edge(static_cast<EdgeId>(rng.uniform_index(g.num_edges())));
  auto s = oracle.make_scratch();
  faults = VertexSet(g.num_vertices());
  const Vertex target[1] = {e.v};
  for (std::size_t step = 0; step < r; ++step) {
    s.dh.run(ch, e.u, &faults, std::span<const Vertex>(target, 1));
    if (!s.dh.reachable(e.v)) break;
    std::vector<Vertex> interior;
    for (Vertex x = s.dh.parent(e.v); x != kInvalidVertex && x != e.u;
         x = s.dh.parent(x))
      interior.push_back(x);
    if (interior.empty()) break;
    faults.insert(interior[rng.uniform_index(interior.size())]);
  }
  if (faults.contains(e.u) || faults.contains(e.v)) return {};
  const Weight dg = test::reference_dijkstra(g, e.u, &faults).dist[e.v];
  const Weight dh =
      test::reference_dijkstra(oracle.spanner(), e.u, &faults).dist[e.v];
  if (!defined_stretch(dg, dh)) return {};
  return {stretch(dg, dh), e.u, e.v};
}

/// Sets of one and two interior vertices of H's shortest paths between the
/// endpoints of G's edges — the faults the index has to catch.
std::vector<VertexSet> tree_path_sets(const Graph& g, const Graph& h) {
  std::vector<VertexSet> out;
  for (EdgeId id = 0; id < g.num_edges(); id += 3) {
    const Edge& e = g.edge(id);
    const test::ReferenceTree t = test::reference_dijkstra(h, e.u);
    std::vector<Vertex> interior;
    for (Vertex x = t.parent[e.v]; x != kInvalidVertex && x != e.u;
         x = t.parent[x])
      interior.push_back(x);
    if (interior.empty()) continue;
    out.push_back(VertexSet(g.num_vertices(), {interior.front()}));
    out.push_back(
        VertexSet(g.num_vertices(), {interior.front(), interior.back()}));
  }
  return out;
}

void expect_vertex_checks(const Graph& g, const Graph& h,
                          const std::string& name) {
  const StretchOracle oracle(g, h, kK);
  const std::size_t n = g.num_vertices();

  const std::vector<VertexSet> exact = all_sets(n, 2);
  expect_check([&](const FtCheckOptions& o) { return oracle.check_exact(2, o); },
               fold(exact, full_sweeps(oracle, exact), n, kK),
               name + " check_exact");

  // Random trials, then adversarial ones that evaluate one pair each.
  constexpr std::size_t kTrials = 30, kAdversarial = 20;
  constexpr std::uint64_t kSeed = 77;
  std::vector<VertexSet> sampled;
  for (std::size_t i = 0; i < kTrials; ++i)
    sampled.push_back(random_trial(n, 2, kSeed, i));
  std::vector<Scored> scored = full_sweeps(oracle, sampled);
  const Csr ch(h);
  for (std::size_t i = kTrials; i < kTrials + kAdversarial; ++i) {
    VertexSet faults;
    scored.push_back(vertex_adversary(oracle, ch, 2, kSeed, i, faults));
    sampled.push_back(faults);
  }
  expect_check(
      [&](const FtCheckOptions& o) {
        return oracle.check_sampled(2, kTrials, kAdversarial, kSeed, o);
      },
      fold(sampled, scored, n, kK), name + " check_sampled");

  const std::vector<VertexSet> listed = tree_path_sets(g, h);
  ASSERT_GE(listed.size(), 2u) << name;
  expect_check(
      [&](const FtCheckOptions& o) { return oracle.evaluate_sets(listed, o); },
      fold(listed, full_sweeps(oracle, listed), n, kK),
      name + " evaluate_sets");
}

/// The worst surviving-edge stretch under vertex faults `f`, by reference
/// Dijkstra on G\F and H\F, scanning sources ascending and each source's
/// out-arcs in adjacency order (on a Graph each edge once, from its lower
/// endpoint).
template <class G>
Scored vertex_reference(const G& g, const G& h, const VertexSet& f) {
  Scored best;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (f.contains(u)) continue;
    const test::ReferenceTree tg = test::reference_dijkstra(g, u, &f);
    const test::ReferenceTree th = test::reference_dijkstra(h, u, &f);
    for (const Arc& a : out_arcs(g, u)) {
      if ((std::is_same_v<G, Graph> && a.to < u) || f.contains(a.to)) continue;
      const Weight dg = tg.dist[a.to], dh = th.dist[a.to];
      if (defined_stretch(dg, dh) && stretch(dg, dh) > best.stretch)
        best = {stretch(dg, dh), u, a.to};
    }
  }
  return best;
}

/// check_exact(r), and a 24-trial check_sampled(r), against
/// vertex_reference on every set.
template <class G>
void expect_vertex_reference(const BasicStretchOracle<G>& oracle,
                             std::size_t r, const std::string& name) {
  const G& g = oracle.base();
  const G& h = oracle.spanner();
  const std::size_t n = g.num_vertices();
  const double k = oracle.stretch_bound();
  const auto reference = [&](const std::vector<VertexSet>& sets) {
    std::vector<Scored> out;
    for (const VertexSet& f : sets) out.push_back(vertex_reference(g, h, f));
    return fold(sets, out, n, k);
  };
  expect_check([&](const FtCheckOptions& o) { return oracle.check_exact(r, o); },
               reference(all_sets(n, r)), name + " check_exact");
  constexpr std::size_t kTrials = 24;
  std::vector<VertexSet> sampled;
  for (std::size_t i = 0; i < kTrials; ++i)
    sampled.push_back(random_trial(n, std::min(r, n - 2), 3, i));
  expect_check(
      [&](const FtCheckOptions& o) {
        return oracle.check_sampled(r, kTrials, 0, 3, o);
      },
      reference(sampled), name + " check_sampled");
}

// --- edge faults -----------------------------------------------------------

/// The worst surviving-edge stretch under edge faults `fe` (G's edge ids),
/// by reference Dijkstra on the materialized G\F and H\F, scanning sources
/// ascending and each source's edges in adjacency order.
Scored edge_reference(const Graph& g, const Graph& h, const VertexSet& fe) {
  const std::size_t n = g.num_vertices();
  Graph gf(n), hf(n);
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (!fe.contains(id)) gf.add_edge(g.edge(id).u, g.edge(id).v, g.edge(id).w);
  for (const Edge& e : h.edges()) {
    const auto gid = g.edge_id(e.u, e.v);
    if (!gid || !fe.contains(*gid)) hf.add_edge(e.u, e.v, e.w);
  }
  Scored best;
  for (Vertex u = 0; u < n; ++u) {
    const test::ReferenceTree tg = test::reference_dijkstra(gf, u);
    const test::ReferenceTree th = test::reference_dijkstra(hf, u);
    for (const Arc& a : g.neighbors(u)) {
      if (a.to < u || fe.contains(a.edge)) continue;
      const Weight dg = tg.dist[a.to], dh = th.dist[a.to];
      if (defined_stretch(dg, dh) && stretch(dg, dh) > best.stretch)
        best = {stretch(dg, dh), u, a.to};
    }
  }
  return best;
}

/// check_sampled_edges' adversarial trial i: up to r times, fail the G copy
/// of a random edge of H's current shortest path between the endpoints of
/// a random G-edge (a step that draws the probed edge, or an H edge G
/// lacks, fails nothing).
VertexSet edge_adversary(const StretchOracle& oracle, const Csr& ch,
                         std::size_t r, std::uint64_t seed, std::size_t i) {
  const Graph& g = oracle.base();
  const Graph& h = oracle.spanner();
  Rng rng(hash_combine(seed, i));
  const EdgeId probe = static_cast<EdgeId>(rng.uniform_index(g.num_edges()));
  const Edge& e = g.edge(probe);
  auto s = oracle.make_scratch();
  VertexSet fe(g.num_edges()), fh(h.num_edges());
  const Vertex target[1] = {e.v};
  for (std::size_t step = 0; step < r; ++step) {
    s.dh.run_avoiding_edges(ch, e.u, fh, std::span<const Vertex>(target, 1));
    if (!s.dh.reachable(e.v)) break;
    std::vector<EdgeId> path;
    for (Vertex x = e.v; s.dh.via(x) != kInvalidEdge;
         x = h.edge(s.dh.via(x)).other(x))
      path.push_back(s.dh.via(x));
    if (path.empty()) break;
    const Edge& victim = h.edge(path[rng.uniform_index(path.size())]);
    const auto id = g.edge_id(victim.u, victim.v);
    if (!id || *id == probe) continue;
    fe.insert(*id);
    fh.insert(*h.edge_id(victim.u, victim.v));
  }
  return fe;
}

void expect_edge_checks(const Graph& g, const Graph& h, std::size_t exact_r,
                        const std::string& name) {
  const StretchOracle oracle(g, h, kK);
  const std::size_t m = g.num_edges();
  const auto reference = [&](const std::vector<VertexSet>& sets) {
    std::vector<Scored> out;
    for (const VertexSet& fe : sets) out.push_back(edge_reference(g, h, fe));
    return fold(sets, out, m, kK);
  };

  const std::vector<VertexSet> exact = all_sets(m, exact_r);
  expect_check(
      [&](const FtCheckOptions& o) {
        return oracle.check_exact_edges(exact_r, o);
      },
      reference(exact), name + " check_exact_edges");

  // Every trial, adversarial ones too, scores every surviving edge.
  constexpr std::size_t kTrials = 20, kAdversarial = 20;
  constexpr std::uint64_t kSeed = 5;
  std::vector<VertexSet> sampled;
  for (std::size_t i = 0; i < kTrials; ++i)
    sampled.push_back(random_trial(m, std::min<std::size_t>(2, m), kSeed, i));
  const Csr ch(h);
  for (std::size_t i = kTrials; i < kTrials + kAdversarial; ++i)
    sampled.push_back(edge_adversary(oracle, ch, 2, kSeed, i));
  expect_check(
      [&](const FtCheckOptions& o) {
        return oracle.check_sampled_edges(2, kTrials, kAdversarial, kSeed, o);
      },
      reference(sampled), name + " check_sampled_edges");
}

// --- instances -------------------------------------------------------------

/// g with integer lengths in [1, 20], a deterministic function of the ends.
Graph integer_lengths(const Graph& g) {
  Graph out(g.num_vertices());
  for (const Edge& e : g.edges())
    out.add_edge(e.u, e.v, 1 + (e.u * 31 + e.v * 17) % 20);
  return out;
}

/// g's lengths scaled by a factor in [1, 4) that is a deterministic
/// function of the ends: still decimal, but no longer Euclidean, so many
/// recorded G paths leave the direct edge and the cutoff asks its A* G
/// queries on inexact sums. (On Euclidean lengths a recorded G path is
/// almost always the edge itself, so G queries hardly ever arise.)
Graph skewed_lengths(const Graph& g) {
  Graph out(g.num_vertices());
  for (const Edge& e : g.edges())
    out.add_edge(e.u, e.v, e.w * (1 + (e.u * 7 + e.v * 13) % 16 / 5.0));
  return out;
}

struct Instance {
  std::string name;
  Graph g, h;
};

/// Unit, integer, fractional (geometric) and skewed fractional lengths;
/// each with the plain greedy 3-spanner (not fault tolerant, so faults push
/// stretch past k and the witnesses move) and with a Theorem 2.1
/// conversion's output.
std::vector<Instance> instances() {
  std::vector<Instance> out;
  const Graph unit = gnp(28, 0.6, 11);
  const Graph integer = integer_lengths(gnp(22, 0.35, 12));
  const Graph geometric = random_geometric(26, 0.4, 5);
  const Graph skewed = skewed_lengths(geometric);
  for (const auto& [name, g] : {std::pair{"unit", &unit},
                                std::pair{"integer", &integer},
                                std::pair{"geometric", &geometric},
                                std::pair{"skewed", &skewed}}) {
    out.push_back({std::string(name) + "/greedy", *g,
                   greedy_spanner_graph(*g, kK)});
    out.push_back({std::string(name) + "/ft_vertex", *g,
                   g->edge_subgraph(ft_greedy_spanner(*g, kK, 1, 9).edges)});
  }
  return out;
}

TEST(OracleEquivalence, VertexChecksMatchFullSweeps) {
  for (const Instance& in : instances()) {
    ASSERT_LT(in.h.num_edges(), in.g.num_edges()) << in.name;
    expect_vertex_checks(in.g, in.h, in.name);
  }
}

TEST(OracleEquivalence, EdgeChecksMatchReferenceOnMaterializedGraphs) {
  for (const Instance& in : instances())
    expect_edge_checks(in.g, in.h, 1, in.name);
  // Two edge faults, exhaustively, on a smaller instance.
  const Graph g = integer_lengths(gnp(12, 0.4, 3));
  expect_edge_checks(g, greedy_spanner_graph(g, kK), 2, "small/greedy r=2");
}

TEST(OracleEquivalence, DisconnectingFaultsMatch) {
  // A star spanner of K_n: failing the center disconnects H, so the stretch
  // is infinite and the index must mark every source.
  const Graph g = complete(10);
  const Graph h = star(10);
  expect_vertex_checks(g, h, "complete/star");
  expect_edge_checks(g, h, 2, "complete/star");
}

TEST(OracleEquivalence, DirectedChecksMatchFullSweeps) {
  // A two-way ring in both graphs keeps every pair connected under one
  // fault, so single faults move finite stretches; two can cut H. Zero-cost
  // arcs make some d_G vanish: a slot with d_G = 0 < d_H has an infinite
  // stretch (and d_G = d_H = 0 none), no cutoff applies to it, and the
  // faults on its paths must still send it to exact runs.
  const Digraph base = di_gnp(18, 0.3, 3, 5.0);
  const std::size_t n = base.num_vertices();
  Digraph g(n), h(n);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex next = static_cast<Vertex>((v + 1) % n);
    for (Digraph* d : {&g, &h}) {
      d->add_edge(v, next, 3.0);
      d->add_edge(next, v, 3.0);
    }
  }
  for (EdgeId id = 0; id < base.num_edges(); ++id) {
    const DiEdge& e = base.edge(id);
    const Weight w = id % 5 == 0 ? 0.0 : e.w;
    g.add_edge(e.u, e.v, w);
    if (id % 3 != 0) h.add_edge(e.u, e.v, w);
  }
  const DiStretchOracle oracle(g, h, 2.0);
  for (const std::size_t r : {1u, 2u}) {
    const std::vector<VertexSet> exact = all_sets(n, r);
    const FtCheckResult want =
        fold(exact, full_sweeps(oracle, exact), n, 2.0);
    const std::string where = "digraph r=" + std::to_string(r);
    expect_check(
        [&](const FtCheckOptions& o) { return oracle.check_exact(r, o); },
        want, where + " check_exact");
    expect_check(
        [&](const FtCheckOptions& o) {
          return oracle.evaluate_sets(exact, o);
        },
        want, where + " evaluate_sets");
  }
  std::vector<VertexSet> sampled;
  for (std::size_t i = 0; i < 16; ++i)
    sampled.push_back(random_trial(n, 2, 9, i));
  expect_check(
      [&](const FtCheckOptions& o) {
        return oracle.check_sampled(2, 16, 0, 9, o);
      },
      fold(sampled, full_sweeps(oracle, sampled), n, 2.0),
      "digraph check_sampled");
}

TEST(OracleEquivalence, BaselineSearchesOnlyWhatFaultsTouch) {
  const Graph g = integer_lengths(gnp(22, 0.35, 12));
  const Graph h = g.edge_subgraph(ft_greedy_spanner(g, kK, 1, 9).edges);
  const StretchOracle oracle(g, h, kK);
  const std::vector<VertexSet> sets = all_sets(g.num_vertices(), 2);
  auto scratch = oracle.make_scratch();
  std::size_t full = 0;
  for (const VertexSet& f : sets) full += oracle.evaluate(f, scratch).searches;
  // Every query counts: the baseline's G- and H-runs, then per set its
  // decision queries, G pair queries and exact runs. Together they cost far
  // less than a full sweep (a G-run and an H-run per source) per set.
  EXPECT_LT(oracle.check_exact(2).searches, full / 2);
  // A single fault set builds no baseline: it is one full sweep.
  const std::vector<VertexSet> one(sets.begin() + 5, sets.begin() + 6);
  EXPECT_EQ(oracle.evaluate_sets(one).searches,
            oracle.evaluate(one[0], scratch).searches);
}

// --- the cutoff's corner cases ---------------------------------------------

/// Unit weights, whose stretches are small rationals that many slots share,
/// against the reference on a graph and a digraph
/// (TiesAtTheMaximumKeepTheFirstSlot places such ties on purpose).
TEST(OracleEquivalence, UnitWeightTiesMatchReference) {
  const Graph g = gnp(26, 0.5, 21);
  const Graph h = greedy_spanner_graph(g, kK);
  const StretchOracle oracle(g, h, kK);
  expect_vertex_reference(oracle, 2, "unit/greedy");
  expect_edge_checks(g, h, 1, "unit/greedy");
  // The same on a digraph with unit costs.
  const Digraph dg = di_gnp(20, 0.3, 4);
  Digraph dh(dg.num_vertices());
  for (EdgeId id = 0; id < dg.num_edges(); ++id)
    if (id % 3 != 0) dh.add_edge(dg.edge(id).u, dg.edge(id).v, 1.0);
  expect_vertex_reference(DiStretchOracle(dg, dh, 2.0), 2, "digraph/unit");
}

/// evaluate_sets over `sets`, at threads 1 and 4, folds to what
/// vertex_reference scores, and to `want`'s scores when they are given.
void expect_listed(const StretchOracle& oracle,
                   const std::vector<VertexSet>& sets, const std::string& name,
                   const std::vector<Scored>& want = {}) {
  const std::size_t n = oracle.base().num_vertices();
  std::vector<Scored> reference;
  for (const VertexSet& f : sets)
    reference.push_back(vertex_reference(oracle.base(), oracle.spanner(), f));
  const FtCheckResult folded = fold(sets, reference, n, kK);
  if (!want.empty())
    expect_same(fold(sets, want, n, kK), folded, name + " reference");
  expect_check(
      [&](const FtCheckOptions& o) { return oracle.evaluate_sets(sets, o); },
      folded, name);
}

/// A fault set's maximum is reached both by a slot it leaves alone and by
/// slots whose H paths it cuts, on unit weights: the first slot wins. Slot
/// (0, 1) has stretch 2 over H path 0-2-1 and 3 over 0-3-4-1 once 2 fails;
/// slot (5, 6) has stretch 3 over 5-7-8-6 and no fault touches it; slot
/// (9, 10) is (0, 1)'s copy on 9-11-10 and 9-12-13-10, after (5, 6).
TEST(OracleEquivalence, TiesAtTheMaximumKeepTheFirstSlot) {
  Graph g(14), h(14);
  const auto both = [&](Vertex a, Vertex b) {
    g.add_edge(a, b);
    h.add_edge(a, b);
  };
  for (const auto& [a, b] : {std::pair<Vertex, Vertex>{0, 1}, {5, 6}, {9, 10}})
    g.add_edge(a, b);
  for (const auto& [a, b] : {std::pair<Vertex, Vertex>{0, 2}, {2, 1}, {0, 3},
                             {3, 4}, {4, 1}, {5, 7}, {7, 8}, {8, 6}, {9, 11},
                             {11, 10}, {9, 12}, {12, 13}, {13, 10}})
    both(a, b);
  const StretchOracle oracle(g, h, kK);
  const VertexSet first(14, {2}), both_cut(14, {2, 11}), last(14, {11});
  // Before the untouched maximum, a tie wins; after it, it does not.
  expect_listed(oracle, {first, first}, "tie first", {{3, 0, 1}, {3, 0, 1}});
  expect_listed(oracle, {both_cut, last}, "ties on both sides",
                {{3, 0, 1}, {3, 5, 6}});
  expect_listed(oracle, {last, last}, "tie after", {{3, 5, 6}, {3, 5, 6}});
}

/// A slot whose G path the faults touch, but not its H path, can stay the
/// maximum: its stretch only falls, here from 15/8 to 15/10. Slot (0, 1)
/// has G path 0-2-1 (8, shorter than the edge's 10) and H path 0-3-1 (15);
/// failing 2 also removes slot (2, 1), whose H path is the long way round.
TEST(OracleEquivalence, SlotWhoseGPathIsTouchedStaysTheMaximum) {
  Graph g(4), h(4);
  g.add_edge(0, 1, 10);
  g.add_edge(2, 1, 4);
  for (Graph* t : {&g, &h}) {
    t->add_edge(0, 2, 4);
    t->add_edge(0, 3, 7);
    t->add_edge(3, 1, 8);
  }
  const StretchOracle oracle(g, h, kK);
  const VertexSet f(4, {2});
  expect_listed(oracle, {f, f}, "G path touched", {{1.5, 0, 1}, {1.5, 0, 1}});
}

/// Zero-length G edges: a slot with d_G = 0 takes no cutoff, and one that H
/// stretches to d_H > 0 is an infinite stretch.
TEST(OracleEquivalence, ZeroLengthPathsMatchReference) {
  const Graph base = integer_lengths(gnp(20, 0.35, 13));
  std::vector<Edge> edges = base.edges();
  for (std::size_t i = 0; i < edges.size(); i += 4) edges[i].w = 0;
  const Graph g = Graph::from_edges(base.num_vertices(), edges);
  const Graph kept = greedy_spanner_graph(g, kK);
  // H drops the zero-length edges a fault set could need.
  std::vector<Edge> dropped;
  for (const Edge& e : kept.edges())
    if (e.w > 0 || (e.u + e.v) % 2 == 0) dropped.push_back(e);
  const Graph h = Graph::from_edges(g.num_vertices(), dropped);
  for (const Graph* sp : {&kept, &h}) {
    const std::string name = sp == &kept ? "zero/greedy" : "zero/dropped";
    expect_vertex_reference(StretchOracle(g, *sp, kK), 2, name);
    expect_edge_checks(g, *sp, 1, name);
  }
  EXPECT_EQ(StretchOracle(g, kept, kK).check_exact(0).worst_stretch,
            StretchOracle(g, kept, kK).max_stretch());

  // The smallest case: H drops the zero-length edge of a triangle.
  Graph tri(3), tri_h(3);
  tri.add_edge(0, 1, 0);
  for (Graph* t : {&tri, &tri_h}) {
    t->add_edge(1, 2, 1);
    t->add_edge(0, 2, 1);
  }
  const FtCheckResult plain = StretchOracle(tri, tri_h, kK).check_exact(0);
  EXPECT_FALSE(plain.valid);
  EXPECT_EQ(plain.worst_stretch, kInfiniteWeight);
  EXPECT_EQ(plain.witness_u, 0u);
  EXPECT_EQ(plain.witness_v, 1u);
  expect_vertex_reference(StretchOracle(tri, tri_h, kK), 1, "triangle");
  // Keeping it, d_G = d_H = 0 has no stretch.
  EXPECT_TRUE(StretchOracle(tri, tri, kK).check_exact(1).valid);
}

/// An infinite running maximum: H lacks every edge between two halves, so
/// each crossing slot is cut fault-free. Only vertices 8..11 have crossing
/// edges, so slots of lower sources that F cuts in H tie at infinity before
/// the first crossing slot.
TEST(OracleEquivalence, InfiniteMaximumMatchesReference) {
  const Graph base = gnp(24, 0.4, 7);
  const auto half = [](Vertex v) { return v < 12; };
  std::vector<Edge> g_edges, inside;
  for (const Edge& e : base.edges()) {
    if (half(e.u) == half(e.v)) {
      g_edges.push_back(e);
      inside.push_back(e);
    } else if (std::min(e.u, e.v) >= 8) {
      g_edges.push_back(e);
    }
  }
  const Graph g = Graph::from_edges(24, g_edges);
  const Graph h = greedy_spanner_graph(Graph::from_edges(24, inside), kK);
  const StretchOracle oracle(g, h, kK);
  EXPECT_EQ(oracle.max_stretch(), kInfiniteWeight);
  expect_vertex_reference(oracle, 2, "halves");
  expect_edge_checks(g, h, 1, "halves");
}

/// Decimal weights whose stretches sit within 1e-8 of the cutoff. Gadget R
/// has stretch `cut` (G edge r0-r1 of length 1, H path of two cut/2 halves);
/// gadget T has stretch 1.2 until its H middle vertex y fails, and then
/// L / 1 over a three-hop detour of lengths L - 0.4, 0.3 and 0.1, whose
/// bidirectional halves and forward sum can round apart. Failing y leaves
/// R untouched, so R holds the running maximum while T is decided.
struct NearTies {
  std::vector<Edge> g_edges, h_edges;
  std::vector<Vertex> y;  ///< each T gadget's H middle vertex, in order
  Vertex next = 0;

  void both(Vertex a, Vertex b, Weight w) {
    g_edges.push_back({a, b, w});
    h_edges.push_back({a, b, w});
  }
  void r_gadget(Weight cut) {
    g_edges.push_back({next, next + 1, 1.0});
    both(next, next + 2, cut / 2);
    both(next + 2, next + 1, cut / 2);
    next += 3;
  }
  void t_gadget(Weight detour) {
    const Vertex c = next, d = next + 1, z1 = next + 3, z2 = next + 4;
    y.push_back(next + 2);
    g_edges.push_back({c, d, 1.0});
    both(c, y.back(), 0.6);
    both(y.back(), d, 0.6);
    both(c, z1, detour - 0.4);
    both(z1, z2, 0.3);
    both(z2, d, 0.1);
    next += 5;
  }
};

TEST(OracleEquivalence, DecimalNearTiesMatchReference) {
  // T gadgets before and after R, so ties are met on both sides of the
  // maximum's slot.
  NearTies t;
  const double eps[] = {-1e-7, -1e-8, -2e-9, -1e-12, 0, 1e-12, 2e-9, 1e-8};
  for (std::size_t i = 0; i < std::size(eps); i += 2)
    t.t_gadget(1.4 * (1 + eps[i]));
  t.r_gadget(1.4);
  for (std::size_t i = 1; i < std::size(eps); i += 2)
    t.t_gadget(1.4 * (1 + eps[i]));
  t.t_gadget(1.4);
  const Graph g = Graph::from_edges(t.next, t.g_edges);
  const Graph h = Graph::from_edges(t.next, t.h_edges);
  const StretchOracle oracle(g, h, kK);
  for (const Vertex y : t.y) {
    const VertexSet f(t.next, {y});
    expect_listed(oracle, {f, f}, "near-tie y=" + std::to_string(y));
  }
  expect_vertex_reference(oracle, 1, "near-ties");
  expect_edge_checks(g, h, 1, "near-ties");

  // After R = 1.5 a tie is allowed, but T's detour 1.1 + 0.3 + 0.1 sums
  // forward to 1.5000000000000002, while the pair search meets its halves
  // at 1.1 + 0.4 = 1.5: only the tie window sends T to the exact runs that
  // make it the witness.
  NearTies split;
  split.r_gadget(1.5);
  split.t_gadget(1.5);
  const Graph sg = Graph::from_edges(split.next, split.g_edges);
  const Graph sh = Graph::from_edges(split.next, split.h_edges);
  const VertexSet f(split.next, {split.y[0]});
  expect_listed(StretchOracle(sg, sh, kK), {f, f}, "split sums",
                {{1.5000000000000002, 3, 4}, {1.5000000000000002, 3, 4}});

  // Random decimal lengths: a geometric instance's greedy spanner.
  const Graph geo = random_geometric(30, 0.35, 8);
  const Graph geo_h = greedy_spanner_graph(geo, 1.5);
  expect_vertex_reference(StretchOracle(geo, geo_h, 1.5), 2,
                          "geometric/greedy k=1.5");
}

/// Conversions with too few iterations (c = 0.1) are invalid under some
/// fault set: the cutoff must keep every witness of the violation.
TEST(OracleEquivalence, InvalidSpannersMatchReference) {
  ConversionOptions few;
  few.iteration_constant = 0.1;
  bool any_invalid = false;
  for (const Instance& in : instances()) {
    if (in.name.find("/ft_vertex") == std::string::npos) continue;
    const Graph h =
        in.g.edge_subgraph(ft_greedy_spanner(in.g, kK, 2, 9, few).edges);
    const StretchOracle oracle(in.g, h, kK);
    any_invalid = any_invalid || !oracle.check_exact(2).valid;
    expect_vertex_reference(oracle, 2, in.name + " c=0.1");
    expect_edge_checks(
        in.g,
        in.g.edge_subgraph(ft_edge_greedy_spanner(in.g, kK, 2, 9, few).edges),
        1, in.name + " edge c=0.1");
  }
  EXPECT_TRUE(any_invalid);
}

/// H may be any graph on G's vertices, heavier than G: the two engines'
/// shared queue must fit both graphs' weights (the delta queue with one key
/// per bucket here, with lengths in [1, 20] in G and up to 60 in H).
TEST(OracleEquivalence, SpannerHeavierThanBaseMatchesReference) {
  const Graph g = integer_lengths(gnp(22, 0.35, 12));
  const Graph greedy = greedy_spanner_graph(g, kK);
  std::vector<Edge> edges = greedy.edges();
  for (std::size_t i = 0; i < edges.size(); i += 3) edges[i].w = 60;
  edges.push_back({0, 21, 55});  // an edge G lacks
  const Graph h = Graph::from_edges(g.num_vertices(), edges);
  const Csr cg(g), ch(h);
  ASSERT_EQ(select_sp_queue(SpEnginePolicy::kAuto,
                            cg.weights().exact_sums() &&
                                ch.weights().exact_sums()),
            SpQueue::kDelta);
  ASSERT_EQ(tune_delta(std::max(cg.weights().max_weight,
                                ch.weights().max_weight)),
            1.0);
  ASSERT_GT(ch.weights().max_weight, cg.weights().max_weight);
  const StretchOracle oracle(g, h, kK);
  expect_vertex_reference(oracle, 2, "heavier H");
  expect_edge_checks(g, h, 1, "heavier H");
}

}  // namespace
}  // namespace ftspan
