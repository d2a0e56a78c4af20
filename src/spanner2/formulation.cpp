#include "spanner2/formulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "validate/stretch_oracle.hpp"  // for_each_fault_set

namespace ftspan {

TwoSpannerLp build_two_spanner_lp(const Digraph& g, std::size_t r) {
  TwoSpannerLp lp;
  lp.r = r;
  lp.x_var.resize(g.num_edges());
  lp.edge_paths.resize(g.num_edges());

  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const DiEdge& e = g.edge(id);
    lp.x_var[id] = lp.model.add_variable(
        e.w, 1.0, "x_" + std::to_string(e.u) + "_" + std::to_string(e.v));
  }

  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const DiEdge& e = g.edge(id);
    for (Vertex mid : g.two_path_midpoints(e.u, e.v)) {
      PathVar p;
      p.uv = id;
      p.mid = mid;
      p.first = *g.edge_id(e.u, mid);
      p.second = *g.edge_id(mid, e.v);
      p.var = lp.model.add_variable(0.0, kInfiniteWeight,
                                    "f_" + std::to_string(e.u) + "_" +
                                        std::to_string(mid) + "_" +
                                        std::to_string(e.v));
      // Capacity constraints (the two arcs of a 2-path are distinct and not
      // shared with any other 2-path of the same (u,v), so the paper's
      // aggregated capacity constraint reduces to f_P <= x_e per arc).
      lp.model.add_constraint(
          {{p.var, 1.0}, {lp.x_var[p.first], -1.0}}, Sense::kLessEqual, 0.0);
      lp.model.add_constraint(
          {{p.var, 1.0}, {lp.x_var[p.second], -1.0}}, Sense::kLessEqual, 0.0);
      lp.edge_paths[id].push_back(static_cast<int>(lp.paths.size()));
      lp.paths.push_back(p);
    }
  }

  // Base covering constraints: (r+1) x_{(u,v)} + Σ_P f_P >= r+1.
  const double rp1 = static_cast<double>(r + 1);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    std::vector<LinearTerm> terms;
    terms.push_back({lp.x_var[id], rp1});
    for (int pi : lp.edge_paths[id]) terms.push_back({lp.paths[pi].var, 1.0});
    lp.model.add_constraint(std::move(terms), Sense::kGreaterEqual, rp1);
  }
  return lp;
}

SeparationOracle knapsack_cover_oracle(const TwoSpannerLp& lp) {
  // The oracle captures the structure (not the model) by pointer; the
  // TwoSpannerLp must outlive the returned callable.
  const TwoSpannerLp* s = &lp;
  return [s](const std::vector<double>& sol) {
    constexpr double kTol = 1e-7;
    std::vector<LpConstraint> cuts;

    for (EdgeId id = 0; id < s->x_var.size(); ++id) {
      const auto& path_idx = s->edge_paths[id];
      if (path_idx.empty()) continue;
      // Sort this edge's paths by flow value, largest first (Lemma 3.2: the
      // worst W of size j is the j largest flows).
      std::vector<int> order(path_idx.begin(), path_idx.end());
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return sol[s->paths[a].var] > sol[s->paths[b].var];
      });

      double tail = 0;  // Σ_{P ∉ W} f_P, starting from W = all-of-prefix
      for (int pi : order) tail += sol[s->paths[pi].var];

      const double x_uv = sol[s->x_var[id]];
      double best_violation = kTol;
      std::size_t best_j = 0;
      double prefix = 0;
      for (std::size_t j = 1; j <= std::min<std::size_t>(s->r, order.size());
           ++j) {
        prefix += sol[s->paths[order[j - 1]].var];
        const double rhs = static_cast<double>(s->r + 1 - j);
        const double lhs = rhs * x_uv + (tail - prefix);
        if (rhs - lhs > best_violation) {
          best_violation = rhs - lhs;
          best_j = j;
        }
      }
      if (best_j == 0) continue;

      const double rhs = static_cast<double>(s->r + 1 - best_j);
      LpConstraint cut;
      cut.sense = Sense::kGreaterEqual;
      cut.rhs = rhs;
      cut.terms.push_back({s->x_var[id], rhs});
      for (std::size_t i = best_j; i < order.size(); ++i)
        cut.terms.push_back({s->paths[order[i]].var, 1.0});
      cuts.push_back(std::move(cut));
    }
    return cuts;
  };
}

namespace {

RelaxationResult extract(const TwoSpannerLp& lp, const LpSolution& sol) {
  RelaxationResult out;
  out.status = sol.status;
  out.simplex_iterations = sol.iterations;
  if (sol.status != LpStatus::kOptimal) return out;
  out.value = sol.objective;
  out.x.resize(lp.x_var.size());
  for (EdgeId id = 0; id < lp.x_var.size(); ++id) out.x[id] = sol.x[lp.x_var[id]];
  return out;
}

}  // namespace

RelaxationResult solve_lp3(const Digraph& g, std::size_t r,
                           const SimplexOptions& simplex) {
  TwoSpannerLp lp = build_two_spanner_lp(g, r);
  RelaxationResult out = extract(lp, solve_lp(lp.model, simplex));
  out.cut_rounds = 1;
  return out;
}

RelaxationResult solve_lp4(const Digraph& g, std::size_t r,
                           const CuttingPlaneOptions& options) {
  TwoSpannerLp lp = build_two_spanner_lp(g, r);
  const SeparationOracle oracle = knapsack_cover_oracle(lp);
  const CuttingPlaneResult cp = solve_with_cuts(lp.model, oracle, options);
  RelaxationResult out = extract(lp, cp.solution);
  out.cut_rounds = cp.rounds;
  out.cuts_added = cp.cuts_added;
  out.simplex_iterations = cp.pivots;
  if (!cp.separated_clean && out.status == LpStatus::kOptimal)
    out.status = LpStatus::kIterationLimit;
  return out;
}

RelaxationResult solve_lp2_exact(const Digraph& g, std::size_t r,
                                 std::size_t max_fault_sets,
                                 const SimplexOptions& simplex) {
  const std::size_t n = g.num_vertices();
  LpModel model;
  std::vector<int> x_var(g.num_edges());
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    x_var[id] = model.add_variable(g.edge(id).w, 1.0);

  // One flow system per fault set F: for each surviving edge (u,v), flow on
  // the direct edge plus flows on surviving 2-paths must reach 1 unit, each
  // path capped by its arcs' capacities.
  auto add_fault_set = [&](const VertexSet& faults) {
    for (EdgeId id = 0; id < g.num_edges(); ++id) {
      const DiEdge& e = g.edge(id);
      if (faults.contains(e.u) || faults.contains(e.v)) continue;

      std::vector<LinearTerm> cover;
      const int direct = model.add_variable(0.0);
      model.add_constraint({{direct, 1.0}, {x_var[id], -1.0}},
                           Sense::kLessEqual, 0.0);
      cover.push_back({direct, 1.0});

      for (Vertex mid : g.two_path_midpoints(e.u, e.v)) {
        if (faults.contains(mid)) continue;
        const int f = model.add_variable(0.0);
        model.add_constraint({{f, 1.0}, {x_var[*g.edge_id(e.u, mid)], -1.0}},
                             Sense::kLessEqual, 0.0);
        model.add_constraint({{f, 1.0}, {x_var[*g.edge_id(mid, e.v)], -1.0}},
                             Sense::kLessEqual, 0.0);
        cover.push_back({f, 1.0});
      }
      model.add_constraint(std::move(cover), Sense::kGreaterEqual, 1.0);
    }
  };

  VertexSet faults(n);
  for_each_fault_set("solve_lp2_exact", /*edge_faults=*/false, n, r,
                     max_fault_sets, [&](std::span<const Vertex> f) {
                       faults.clear();
                       for (const Vertex v : f) faults.insert(v);
                       add_fault_set(faults);
                     });

  const LpSolution sol = solve_lp(model, simplex);
  RelaxationResult out;
  out.status = sol.status;
  out.simplex_iterations = sol.iterations;
  out.cut_rounds = 1;
  if (sol.status != LpStatus::kOptimal) return out;
  out.value = sol.objective;
  out.x.resize(g.num_edges());
  for (EdgeId id = 0; id < g.num_edges(); ++id) out.x[id] = sol.x[x_var[id]];
  return out;
}

double lp2_value_complete_graph(std::size_t n, std::size_t r) {
  if (n < r + 3)
    throw std::invalid_argument("lp2_value_complete_graph: needs n >= r+3");
  const double nn = static_cast<double>(n);
  return nn * (nn - 1.0) / (nn - static_cast<double>(r) - 2.0);
}

}  // namespace ftspan
