#include "local/dist_2spanner.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/rng.hpp"

namespace ftspan::local {

using ftspan::Digraph;
using ftspan::DiEdge;
using ftspan::EdgeId;
using ftspan::Graph;
using ftspan::Vertex;

Graph communication_graph(const Digraph& g) {
  Graph comm(g.num_vertices());
  for (const DiEdge& e : g.edges()) comm.add_edge(e.u, e.v, 1.0);
  return comm;
}

namespace {

/// One cluster's LP: G(C) on C ∪ N(C), costs kept only inside C.
/// Returns x values mapped back to original edge ids for edges in E(C),
/// plus the LP value (which prices only E(C) edges, matching LP(C)).
struct ClusterSolve {
  bool ok = false;
  double value = 0.0;
  std::vector<std::pair<EdgeId, double>> x_inside;  // (edge in E(C), x)
};

ClusterSolve solve_cluster_lp(const Digraph& g, std::size_t r,
                              const Graph& comm,
                              const std::vector<char>& in_cluster,
                              const ftspan::CuttingPlaneOptions& lp_options) {
  const std::size_t n = g.num_vertices();

  // Members of C ∪ N(C) (N over the communication graph).
  std::vector<char> in_gc(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    if (!in_cluster[v]) continue;
    in_gc[v] = 1;
    for (const ftspan::Arc& a : comm.neighbors(v)) in_gc[a.to] = 1;
  }

  std::vector<Vertex> local_id(n, ftspan::kInvalidVertex);
  std::vector<Vertex> orig_id;
  for (Vertex v = 0; v < n; ++v)
    if (in_gc[v]) {
      local_id[v] = static_cast<Vertex>(orig_id.size());
      orig_id.push_back(v);
    }
  if (orig_id.size() < 2) return {true, 0.0, {}};

  Digraph sub(orig_id.size());
  std::vector<EdgeId> sub_to_orig;
  std::vector<char> sub_inside;  // both endpoints in C?
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const DiEdge& e = g.edge(id);
    if (!in_gc[e.u] || !in_gc[e.v]) continue;
    const bool inside = in_cluster[e.u] && in_cluster[e.v];
    sub.add_edge(local_id[e.u], local_id[e.v], inside ? e.w : 0.0);
    sub_to_orig.push_back(id);
    sub_inside.push_back(inside ? 1 : 0);
  }
  if (sub.num_edges() == 0) return {true, 0.0, {}};

  const ftspan::RelaxationResult res = ftspan::solve_lp4(sub, r, lp_options);
  if (res.status != ftspan::LpStatus::kOptimal) return {};

  ClusterSolve out;
  out.ok = true;
  out.value = res.value;
  for (EdgeId sid = 0; sid < sub.num_edges(); ++sid)
    if (sub_inside[sid]) out.x_inside.emplace_back(sub_to_orig[sid], res.x[sid]);
  return out;
}

/// Clusters of a decomposition as per-cluster membership masks.
std::vector<std::vector<char>> cluster_masks(const PaddedDecomposition& d) {
  std::unordered_map<Vertex, std::size_t> index;
  std::vector<std::vector<char>> masks;
  const std::size_t n = d.center.size();
  for (Vertex v = 0; v < n; ++v) {
    const Vertex c = d.center[v];
    auto [it, fresh] = index.try_emplace(c, masks.size());
    if (fresh) masks.emplace_back(n, 0);
    masks[it->second][v] = 1;
  }
  return masks;
}

}  // namespace

ClusterLpDecomposition cluster_lp_values(
    const Digraph& g, std::size_t r, const PaddedDecomposition& d,
    const ftspan::CuttingPlaneOptions& lp) {
  const Graph comm = communication_graph(g);
  ClusterLpDecomposition out;
  for (const auto& mask : cluster_masks(d)) {
    const ClusterSolve s = solve_cluster_lp(g, r, comm, mask, lp);
    if (s.ok) {
      out.sum_cluster_values += s.value;
      ++out.clusters;
    }
  }
  return out;
}

DistTwoSpannerResult distributed_ft_2spanner(
    const Digraph& g, std::size_t r, std::uint64_t seed,
    const DistTwoSpannerOptions& options) {
  const std::size_t n = g.num_vertices();
  const Graph comm = communication_graph(g);
  ftspan::Rng rng(seed);

  DistTwoSpannerResult out;
  const double ln_n =
      std::log(static_cast<double>(std::max<std::size_t>(n, 2)));
  out.iterations = options.iterations.value_or(static_cast<std::size_t>(
      std::ceil(options.iteration_constant * ln_n)));
  const std::size_t t = std::max<std::size_t>(out.iterations, 1);

  std::vector<double> x_sum(g.num_edges(), 0.0);

  for (std::size_t i = 0; i < t; ++i) {
    const PaddedDecomposition d = distributed_padded_decomposition(
        comm, rng(), options.decomposition, &out.stats);

    // Gather G(C) to each center and scatter the LP solution back: both are
    // O(cluster diameter) LOCAL rounds with unbounded messages.
    const std::size_t diam = max_cluster_diameter(comm, d);
    out.stats.rounds += 2 * (diam + 1);

    for (const auto& mask : cluster_masks(d)) {
      const ClusterSolve s = solve_cluster_lp(g, r, comm, mask, options.lp);
      if (!s.ok) continue;
      ++out.clusters_solved;
      for (const auto& [edge, x] : s.x_inside) x_sum[edge] += x;
    }
  }

  // x̃_e = min(1, (4/t) Σ_{i ∈ I_e} x_e^i); edges whose endpoints never
  // shared a cluster simply have an empty sum here.
  std::vector<double> x_tilde(g.num_edges(), 0.0);
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    x_tilde[id] = std::min(1.0, 4.0 * x_sum[id] / static_cast<double>(t));
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    out.x_tilde_cost += g.edge(id).w * x_tilde[id];

  // Local rounding (Algorithm 1): one round per attempt to announce the
  // kept edges to both endpoints; retries are fresh threshold draws.
  const double alpha = options.alpha.value_or(ln_n);
  ftspan::TwoSpannerResult rounded = ftspan::round_until_valid(
      g, x_tilde, alpha, r, options.max_attempts, rng);
  out.stats.rounds += rounded.attempts;
  out.in_spanner = std::move(rounded.in_spanner);
  out.cost = rounded.cost;
  out.valid = rounded.valid;
  out.repaired_edges = rounded.repaired_edges;
  out.attempts = rounded.attempts;
  return out;
}

}  // namespace ftspan::local
