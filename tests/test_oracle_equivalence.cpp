// The StretchOracle's fault-free baseline and affected-source index
// (mechanism 4 in validate/stretch_oracle.hpp) must be invisible: every
// check returns, field by field, the FtCheckResult of evaluating each fault
// set from scratch and folding in index order. Vertex-fault references
// evaluate every set with evaluate(), the oracle's full sweep; edge-fault
// references run tests/support/reference_sp on the materialized G\F and
// H\F. The fault sets are the checks' own streams, restated here from their
// documentation: exact enumerations hit every tree path, and the
// adversaries fail vertices and edges on H's shortest paths by design.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
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
  if (!(dg < kInfiniteWeight) || dg <= 0) return {};
  const Weight dh =
      test::reference_dijkstra(oracle.spanner(), e.u, &faults).dist[e.v];
  return {dh < kInfiniteWeight ? dh / dg : kInfiniteWeight, e.u, e.v};
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
      const Weight dg = tg.dist[a.to];
      if (!(dg < kInfiniteWeight) || dg <= 0) continue;
      const Weight dh = th.dist[a.to];
      const double stretch = dh < kInfiniteWeight ? dh / dg : kInfiniteWeight;
      if (stretch > best.stretch) best = {stretch, u, a.to};
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

struct Instance {
  std::string name;
  Graph g, h;
};

/// Unit, integer and fractional (geometric) lengths; each with the plain
/// greedy 3-spanner (not fault tolerant, so faults push stretch past k and
/// the witnesses move) and with a Theorem 2.1 conversion's output.
std::vector<Instance> instances() {
  std::vector<Instance> out;
  const Graph unit = gnp(28, 0.6, 11);
  const Graph integer = integer_lengths(gnp(22, 0.35, 12));
  const Graph geometric = random_geometric(26, 0.4, 5);
  for (const auto& [name, g] : {std::pair{"unit", &unit},
                                std::pair{"integer", &integer},
                                std::pair{"geometric", &geometric}}) {
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
  // arcs make some d_G vanish: those slots are skipped, yet the faults on
  // their paths must still re-search them.
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
  // One baseline sweep plus the touched sources costs far less than a full
  // sweep per set.
  EXPECT_LT(oracle.check_exact(2).searches, full / 2);
  // A single fault set builds no baseline: it is one full sweep.
  const std::vector<VertexSet> one(sets.begin() + 5, sets.begin() + 6);
  EXPECT_EQ(oracle.evaluate_sets(one).searches,
            oracle.evaluate(one[0], scratch).searches);
}

}  // namespace
}  // namespace ftspan
