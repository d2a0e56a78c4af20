#include "spanner2/undirected.hpp"

#include "graph/generators.hpp"
#include "spanner2/dk10_baseline.hpp"
#include "spanner2/verify2.hpp"

namespace ftspan {

namespace {

/// Bidirect g with half costs so the directed objective counts each edge
/// weight once when both of its arcs are bought. Arc ids are 2*id (u->v)
/// and 2*id+1 (v->u) for undirected edge id — the insertion order
/// guarantees it, and every reduction below relies on it.
Digraph half_cost_bidirect(const Graph& g) {
  Digraph d(g.num_vertices());
  for (const Edge& e : g.edges()) {
    d.add_edge(e.u, e.v, e.w / 2.0);
    d.add_edge(e.v, e.u, e.w / 2.0);
  }
  return d;
}

/// Symmetrize a directed selection back to undirected edges (keep an edge
/// iff either arc was kept). On the bidirected d a symmetric selection
/// satisfies Lemma 3.1 iff the undirected one does (a 2-path u-z-v is both
/// u->z->v and v->z->u), so the check and the repair run there; the
/// repair may add single arcs, so its result is symmetrized again.
UndirectedTwoSpannerResult symmetrize(const Graph& g, const Digraph& d,
                                      const std::vector<char>& directed_sel,
                                      double lp_value, std::size_t r) {
  UndirectedTwoSpannerResult out;
  out.lp_value = lp_value;
  out.in_spanner.assign(g.num_edges(), 0);
  if (directed_sel.empty()) return out;
  std::vector<char> arcs = directed_sel;
  const auto keep_either = [&] {
    for (EdgeId id = 0; id < g.num_edges(); ++id)
      arcs[2 * id] = arcs[2 * id + 1] = arcs[2 * id] || arcs[2 * id + 1];
  };
  keep_either();
  if (!is_ft_2spanner(d, arcs, r)) {
    greedy_repair(d, arcs, r);
    keep_either();
  }
  out.valid = is_ft_2spanner(d, arcs, r);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    out.in_spanner[id] = arcs[2 * id];
    if (out.in_spanner[id]) out.cost += g.edge(id).w;
  }
  return out;
}

}  // namespace

UndirectedTwoSpannerResult approx_ft_2spanner_undirected(
    const Graph& g, std::size_t r, std::uint64_t seed,
    const RoundingOptions& options) {
  const Digraph d = half_cost_bidirect(g);
  const TwoSpannerResult directed = approx_ft_2spanner(d, r, seed, options);
  return symmetrize(g, d, directed.in_spanner, directed.lp_value, r);
}

UndirectedTwoSpannerResult dk10_ft_2spanner_undirected(
    const Graph& g, std::size_t r, std::uint64_t seed,
    const RoundingOptions& options) {
  const Digraph d = half_cost_bidirect(g);
  const TwoSpannerResult directed = dk10_ft_2spanner(d, r, seed, options);
  return symmetrize(g, d, directed.in_spanner, directed.lp_value, r);
}

UndirectedTwoSpannerResult lll_ft_2spanner_undirected(
    const Graph& g, std::size_t r, std::uint64_t seed,
    const LllOptions& options) {
  const Digraph d = half_cost_bidirect(g);
  const LllResult directed = lll_ft_2spanner(d, r, seed, options);
  return symmetrize(g, d, directed.in_spanner, directed.lp_value, r);
}

}  // namespace ftspan
