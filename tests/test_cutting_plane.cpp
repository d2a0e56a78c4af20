#include "lp/cutting_plane.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "spanner2/formulation.hpp"

namespace ftspan {
namespace {

TEST(CuttingPlane, NoCutsNeeded) {
  LpModel m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 1.0);
  const auto res = solve_with_cuts(m, [](const std::vector<double>&) {
    return std::vector<LpConstraint>{};
  });
  EXPECT_EQ(res.solution.status, LpStatus::kOptimal);
  EXPECT_EQ(res.rounds, 1u);
  EXPECT_EQ(res.cuts_added, 0u);
  EXPECT_TRUE(res.separated_clean);
}

TEST(CuttingPlane, LazyBoxConstraints) {
  // min -x - y over the implicit polytope {x <= 2, y <= 3}, with the box
  // described only by the oracle.
  LpModel m;
  const int x = m.add_variable(-1.0, 10.0);
  const int y = m.add_variable(-1.0, 10.0);
  const auto oracle = [&](const std::vector<double>& sol) {
    std::vector<LpConstraint> cuts;
    if (sol[0] > 2.0 + 1e-9) cuts.push_back({{{x, 1.0}}, Sense::kLessEqual, 2.0});
    if (sol[1] > 3.0 + 1e-9) cuts.push_back({{{y, 1.0}}, Sense::kLessEqual, 3.0});
    return cuts;
  };
  const auto res = solve_with_cuts(m, oracle);
  ASSERT_EQ(res.solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.solution.objective, -5.0, 1e-7);
  EXPECT_EQ(res.cuts_added, 2u);
  EXPECT_TRUE(res.separated_clean);
}

TEST(CuttingPlane, ApproximatesCircleByTangents) {
  // min -x - y over x² + y² <= 1, separated by tangent cuts at the current
  // point. Converges toward x = y = 1/√2, objective -√2.
  LpModel m;
  const int x = m.add_variable(-1.0, 2.0);
  const int y = m.add_variable(-1.0, 2.0);
  const auto oracle = [&](const std::vector<double>& sol) {
    std::vector<LpConstraint> cuts;
    const double nrm = std::hypot(sol[0], sol[1]);
    if (nrm > 1.0 + 1e-6) {
      // Tangent at the projection: (x0/nrm) x + (y0/nrm) y <= 1.
      cuts.push_back({{{x, sol[0] / nrm}, {y, sol[1] / nrm}},
                      Sense::kLessEqual,
                      1.0});
    }
    return cuts;
  };
  CuttingPlaneOptions opt;
  opt.max_rounds = 100;
  const auto res = solve_with_cuts(m, oracle, opt);
  ASSERT_EQ(res.solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.solution.objective, -std::sqrt(2.0), 1e-4);
}

TEST(CuttingPlane, RoundLimitReported) {
  LpModel m;
  const int x = m.add_variable(-1.0, 100.0);
  int calls = 0;
  // An oracle that always cuts (never satisfied).
  const auto oracle = [&](const std::vector<double>& sol) {
    ++calls;
    std::vector<LpConstraint> cuts;
    cuts.push_back({{{x, 1.0}}, Sense::kLessEqual, sol[0] / 2.0});
    return cuts;
  };
  CuttingPlaneOptions opt;
  opt.max_rounds = 5;
  const auto res = solve_with_cuts(m, oracle, opt);
  EXPECT_EQ(res.rounds, 5u);
  EXPECT_FALSE(res.separated_clean);
  EXPECT_EQ(calls, 5);
}

TEST(CuttingPlane, CutsPerRoundCapped) {
  LpModel m;
  const int x = m.add_variable(-1.0, 100.0);
  bool first = true;
  const auto oracle = [&](const std::vector<double>&) {
    std::vector<LpConstraint> cuts;
    if (first) {
      first = false;
      for (int i = 0; i < 10; ++i)
        cuts.push_back({{{x, 1.0}}, Sense::kLessEqual, 50.0 - i});
    }
    return cuts;
  };
  CuttingPlaneOptions opt;
  opt.max_cuts_per_round = 3;
  const auto res = solve_with_cuts(m, oracle, opt);
  EXPECT_EQ(res.cuts_added, 3u);
  EXPECT_EQ(res.solution.status, LpStatus::kOptimal);
}

TEST(CuttingPlane, InfeasibleCutStops) {
  LpModel m;
  const int x = m.add_variable(1.0, 1.0);
  bool cut_given = false;
  const auto oracle = [&](const std::vector<double>&) {
    std::vector<LpConstraint> cuts;
    if (!cut_given) {
      cut_given = true;
      cuts.push_back({{{x, 1.0}}, Sense::kGreaterEqual, 5.0});  // impossible
    }
    return cuts;
  };
  const auto res = solve_with_cuts(m, oracle);
  EXPECT_EQ(res.solution.status, LpStatus::kInfeasible);
  EXPECT_FALSE(res.separated_clean);
}

// The pivot count is the total over every round's solve, not the last
// round's: replay LP (4)'s cutting-plane loop one solve at a time on a
// random digraph that needs several rounds, and compare with both
// solve_with_cuts and solve_lp4.
TEST(CuttingPlane, PivotsAreSummedOverRounds) {
  const Digraph g = di_gnp(12, 0.3, 1);
  constexpr std::size_t kR = 2;
  TwoSpannerLp lp = build_two_spanner_lp(g, kR);
  const SeparationOracle oracle = knapsack_cover_oracle(lp);
  std::size_t rounds = 0, total = 0, last = 0;
  for (;;) {
    const LpSolution sol = solve_lp(lp.model);
    ASSERT_EQ(sol.status, LpStatus::kOptimal);
    ++rounds;
    total += sol.iterations;
    last = sol.iterations;
    std::vector<LpConstraint> cuts = oracle(sol.x);
    if (cuts.empty()) break;
    for (LpConstraint& c : cuts)
      lp.model.add_constraint(std::move(c.terms), c.sense, c.rhs);
  }
  ASSERT_GE(rounds, 2u);
  EXPECT_GT(total, last);

  TwoSpannerLp fresh = build_two_spanner_lp(g, kR);
  const CuttingPlaneResult cp =
      solve_with_cuts(fresh.model, knapsack_cover_oracle(fresh));
  EXPECT_EQ(cp.rounds, rounds);
  EXPECT_EQ(cp.pivots, total);
  EXPECT_EQ(cp.solution.iterations, last);

  const RelaxationResult lp4 = solve_lp4(g, kR);
  EXPECT_EQ(lp4.cut_rounds, rounds);
  EXPECT_EQ(lp4.simplex_iterations, total);
}

}  // namespace
}  // namespace ftspan
