#include "spanner/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ftspan {

GreedyContext::GreedyContext(const Graph& g) : graph(&g) {
  // std::sort on ids, exactly as the historical per-call greedy did, so the
  // visit order of equal-weight edges — and therefore every greedy output —
  // is bit-identical to the pre-context implementation.
  std::vector<EdgeId> order(g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&g](EdgeId a, EdgeId b) {
    return g.edge(a).w < g.edge(b).w;
  });
  sorted.reserve(order.size());
  for (const EdgeId id : order) {
    const Edge& e = g.edge(id);
    sorted.push_back({e.u, e.v, e.w, id});
    weights.observe(e.w);
  }
}

void GreedyWorkspace::begin(const GreedyContext& ctx, double k) {
  if (!valid_stretch(k))
    throw std::invalid_argument("greedy_spanner: k must be finite and >= 1");
  const std::size_t n = ctx.graph->num_vertices();
  const std::size_t m = ctx.graph->num_edges();
  if (head_.size() < n) head_.resize(n, kNone);
  pool_.reserve(2 * m);
  touched_.reserve(n);
  kept_.reserve(m);
  // Each directed arc of the scratch spanner causes at most one heap push.
  eng_.reserve(n, 2 * m + 1);
  bwd_.reserve(n, 2 * m + 1);

  const WeightProfile& wp = ctx.weights;
  exact_sums_ = wp.exact_sums();
  eng_.set_queue(select_sp_queue(policy_, wp.exact_sums()), wp.max_weight,
                 bucket_max_);

  for (const Vertex v : touched_) head_[v] = kNone;
  touched_.clear();
  counters_ = {};
  pool_.clear();
  kept_.clear();
}

void GreedyWorkspace::add_edge(Vertex u, Vertex v, Weight w) {
  // Slot indices are 32-bit with kNone reserved; refuse before they wrap
  // (same policy as the Graph/Csr 32-bit guards).
  if (pool_.size() + 2 > kNone)
    throw std::length_error(
        "GreedyWorkspace: edge count exceeds the 32-bit slot space");
  if (head_[u] == kNone) touched_.push_back(u);
  if (head_[v] == kNone) touched_.push_back(v);
  pool_.push_back({w, v, head_[u]});
  head_[u] = static_cast<std::uint32_t>(pool_.size() - 1);
  pool_.push_back({w, u, head_[v]});
  head_[v] = static_cast<std::uint32_t>(pool_.size() - 1);
}

bool GreedyWorkspace::bounded_pair(Vertex s, Vertex t, Weight kw) {
  // An endpoint with no incident scratch edge cannot reach anything: the
  // common case early in every greedy pass, answered without a search.
  if (head_[s] == kNone || head_[t] == kNone) return s == t;
  ++counters_.searches;

  const auto visit = [this](Vertex v, auto&& relax) {
    for (std::uint32_t i = head_[v]; i != kNone; i = pool_[i].next)
      relax(pool_[i].to, pool_[i].w, kInvalidEdge);
  };

  // Distances above k * w are irrelevant, so bound the search; the slack
  // keeps floating-point ties ("exactly k*w") counted as reachable.
  const Weight bound = kw * (1 + kStretchSlack);
  // Bidirectional fast path: two balls that grow only until they meet on a
  // path within the acceptance threshold `accept`, instead of one
  // radius-bound ball grown until d is proved. A path it meets is a real
  // one, so one within k*w decides "joined" whatever d is (most candidates
  // end here); a search that meets none runs to its usual end.
  //
  // The search sums each path in two halves, so near the bound the result
  // can sit an ulp away from the historical forward sum and flip the
  // "d > k*w" decision. Any result inside a relative tie window around the
  // bound is therefore re-derived by the exact forward-accumulating search,
  // which reproduces the pre-engine pair_distance bit-for-bit. The window
  // (1e-8) exceeds the worst accumulated rounding (~ path hops * 2^-52,
  // relative) by orders of magnitude for any graph this repo handles, and
  // the bidirectional prune runs at bound * (1 + 2 * window) so a path that
  // is borderline-reachable under the true bound is never clipped before
  // the window test can send it to the exact search. For the same reason
  // the threshold sits below the window unless sums are exact: a search
  // that stops early never returns a near-tie.
  //
  // All-integer weights (the common unweighted case): every path sum is
  // exact in any summation order, so the two-half sum already equals the
  // historical forward sum bit-for-bit and no tie is ever ambiguous. The
  // flag comes from the graph's hoisted WeightProfile (read in begin).
  const Weight accept = exact_sums_ ? kw : kw * (1 - kTieWindow);
  const Weight fast = DijkstraEngine::bidirectional_bounded_pair(
      eng_, bwd_, head_.size(), s, t, nullptr, bound * (1 + 2 * kTieWindow),
      visit, accept);
  if (fast <= accept) {
    ++counters_.accepted_early;
    return true;
  }
  if (exact_sums_ || fast > bound * (1 + kTieWindow) ||
      fast < bound * (1 - kTieWindow))
    return fast <= kw;

  // Tie region: the historical summation order is authoritative.
  ++counters_.tie_fallbacks;
  const Vertex src[1] = {s};
  const Vertex tgt[1] = {t};
  eng_.run_visit(head_.size(), {src, 1}, nullptr, bound, {tgt, 1}, nullptr,
                 visit);
  return eng_.dist(t) <= kw;
}

void GreedyWorkspace::consider(Vertex u, Vertex v, Weight w, EdgeId id,
                               double k) {
  if (!bounded_pair(u, v, k * w)) {
    add_edge(u, v, w);
    kept_.push_back(id);
  }
}

std::span<const EdgeId> GreedyWorkspace::run(const GreedyContext& ctx,
                                             double k,
                                             const VertexSet* faults) {
  begin(ctx, k);
  // An edge with a failed endpoint never enters the scratch spanner, so no
  // search below can reach a failed vertex and needs no fault mask.
  for (const GreedyContext::OrderedEdge& e : ctx.sorted) {
    if (faults != nullptr && (faults->contains(e.u) || faults->contains(e.v)))
      continue;
    consider(e.u, e.v, e.w, e.id, k);
  }
  return kept_;
}

std::span<const EdgeId> GreedyWorkspace::run(const GreedyContext& ctx,
                                             double k,
                                             std::span<const EdgeId> order) {
  begin(ctx, k);
  const Graph& g = *ctx.graph;
  for (const EdgeId id : order) {
    const Edge& e = g.edge(id);
    consider(e.u, e.v, e.w, id, k);
  }
  return kept_;
}

std::vector<EdgeId> greedy_spanner(const Graph& g, double k,
                                   const VertexSet* faults) {
  const GreedyContext ctx(g);
  GreedyWorkspace ws;
  const auto kept = ws.run(ctx, k, faults);
  return {kept.begin(), kept.end()};
}

Graph greedy_spanner_graph(const Graph& g, double k, const VertexSet* faults) {
  return g.edge_subgraph(greedy_spanner(g, k, faults));
}

double greedy_size_bound(std::size_t n, double k) {
  return std::pow(static_cast<double>(n), 1.0 + 2.0 / (k + 1.0));
}

}  // namespace ftspan
