// Unit and property tests for the reference branch & bound ILP solver (the
// test oracle in tests/oracles), including a sweep that cross-checks random
// instances against exhaustive enumeration.
#include "oracles/branch_and_bound.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "lp/problem.h"

namespace wasp::oracles {
namespace {

constexpr double kTol = 1e-6;

TEST(IlpTest, KnapsackSmall) {
  // max 10a + 6b + 4c  s.t. a + b + c <= 2 (binary) -> a=b=1, obj=16.
  lp::Problem p(lp::Sense::kMaximize);
  p.add_variable(10.0, 0.0, 1.0);
  p.add_variable(6.0, 0.0, 1.0);
  p.add_variable(4.0, 0.0, 1.0);
  p.add_dense_constraint({1.0, 1.0, 1.0}, lp::RowType::kLe, 2.0);
  const IlpResult r = solve_all_integer(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 16.0, kTol);
  EXPECT_NEAR(r.values[0], 1.0, kTol);
  EXPECT_NEAR(r.values[1], 1.0, kTol);
  EXPECT_NEAR(r.values[2], 0.0, kTol);
}

TEST(IlpTest, IntegerRoundingMatters) {
  // max x + y s.t. 2x + 2y <= 5 -> LP gives 2.5, ILP gives 2.
  lp::Problem p(lp::Sense::kMaximize);
  p.add_variable(1.0);
  p.add_variable(1.0);
  p.add_dense_constraint({2.0, 2.0}, lp::RowType::kLe, 5.0);
  const IlpResult r = solve_all_integer(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 2.0, kTol);
}

TEST(IlpTest, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 has no integer point.
  lp::Problem p(lp::Sense::kMinimize);
  p.add_variable(1.0, 0.4, 0.6);
  const IlpResult r = solve_all_integer(p);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST(IlpTest, MixedIntegerKeepsContinuousVarsContinuous) {
  // min x + y s.t. x + y >= 2.5, x integer, y continuous -> x=0..2, y fills.
  lp::Problem p(lp::Sense::kMinimize);
  p.add_variable(1.0);
  p.add_variable(1.0);
  p.add_dense_constraint({1.0, 1.0}, lp::RowType::kGe, 2.5);
  const IlpResult r = solve_ilp(p, std::vector<std::size_t>{0});
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 2.5, kTol);
  EXPECT_NEAR(r.values[0], std::round(r.values[0]), kTol);
}

TEST(IlpTest, EqualityPartitionConstraint) {
  // Placement-like: min sum cost[s]*p[s] s.t. sum p[s] = 4, p[s] <= cap[s].
  lp::Problem p(lp::Sense::kMinimize);
  const std::vector<double> cost{5.0, 1.0, 3.0};
  const std::vector<double> cap{2.0, 2.0, 4.0};
  for (int s = 0; s < 3; ++s) p.add_variable(cost[s], 0.0, cap[s]);
  p.add_dense_constraint({1.0, 1.0, 1.0}, lp::RowType::kEq, 4.0);
  const IlpResult r = solve_all_integer(p);
  ASSERT_TRUE(r.optimal());
  // Cheapest fill: 2 at cost 1, then 2 at cost 3 -> 2+6=8.
  EXPECT_NEAR(r.objective, 8.0, kTol);
  EXPECT_NEAR(r.values[1], 2.0, kTol);
  EXPECT_NEAR(r.values[2], 2.0, kTol);
}

TEST(IlpTest, UnboundedDetected) {
  lp::Problem p(lp::Sense::kMaximize);
  p.add_variable(1.0);
  const IlpResult r = solve_all_integer(p);
  EXPECT_EQ(r.status, lp::SolveStatus::kUnbounded);
}

TEST(IlpTest, NodeLimitReturnsIterationLimitWithoutIncumbent) {
  lp::Problem p(lp::Sense::kMaximize);
  // A problem needing at least one branch.
  p.add_variable(1.0, 0.0, 10.0);
  p.add_dense_constraint({2.0}, lp::RowType::kLe, 5.0);
  IlpOptions opts;
  opts.max_nodes = 1;  // root only; relaxation is fractional -> no incumbent
  const IlpResult r = solve_all_integer(p, opts);
  EXPECT_EQ(r.status, lp::SolveStatus::kIterationLimit);
}

TEST(IlpTest, LpIterationLimitIsNotReportedAsInfeasible) {
  // Cap the simplex at one pivot so every node's relaxation comes back
  // kIterationLimit. The subtree is dropped unexplored, which is not a proof
  // of infeasibility: the solver must report kIterationLimit (and count the
  // dropped nodes), not kInfeasible. Pre-fix, limited relaxations were
  // silently treated like infeasible ones.
  lp::Problem p(lp::Sense::kMaximize);
  p.add_variable(3.0);
  p.add_variable(5.0);
  p.add_dense_constraint({1.0, 0.0}, lp::RowType::kLe, 4.0);
  p.add_dense_constraint({0.0, 2.0}, lp::RowType::kLe, 12.0);
  p.add_dense_constraint({3.0, 2.0}, lp::RowType::kLe, 18.0);
  ASSERT_TRUE(solve_all_integer(p).optimal()) << "baseline must be feasible";

  IlpOptions opts;
  opts.lp_options.max_iterations = 1;
  const IlpResult r = solve_all_integer(p, opts);
  EXPECT_EQ(r.status, lp::SolveStatus::kIterationLimit);
  EXPECT_GT(r.nodes_dropped_by_limit, 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: random small ILPs vs exhaustive enumeration over the
// integer box.
// ---------------------------------------------------------------------------

class IlpRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IlpRandomProperty, MatchesExhaustiveEnumeration) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  const bool minimize = rng.uniform() < 0.5;

  lp::Problem p(minimize ? lp::Sense::kMinimize : lp::Sense::kMaximize);
  std::vector<int> lo(n), hi(n);
  for (int i = 0; i < n; ++i) {
    lo[i] = static_cast<int>(rng.uniform_int(-2, 1));
    hi[i] = lo[i] + static_cast<int>(rng.uniform_int(0, 5));
    p.add_variable(rng.uniform(-4.0, 4.0), lo[i], hi[i]);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<double> coeffs(n);
    for (auto& c : coeffs) c = rng.uniform(-2.0, 2.0);
    // rhs around the box midpoint value keeps a good mix of feasible and
    // infeasible instances.
    double mid = 0.0;
    for (int i = 0; i < n; ++i) mid += coeffs[i] * 0.5 * (lo[i] + hi[i]);
    p.add_dense_constraint(coeffs,
                           rng.uniform() < 0.5 ? lp::RowType::kLe
                                               : lp::RowType::kGe,
                           mid + rng.uniform(-2.0, 2.0));
  }

  const IlpResult r = solve_all_integer(p);

  // Relaxations priced by the maintained reduced-cost row (the default) must
  // lead the search to exactly what rescan-priced relaxations lead it to.
  IlpOptions rescan_opts;
  rescan_opts.lp_options.pricing = lp::SimplexOptions::Pricing::kRescan;
  const IlpResult ref = solve_all_integer(p, rescan_opts);
  ASSERT_EQ(r.status, ref.status) << lp::to_string(r.status) << " vs "
                                  << lp::to_string(ref.status);
  if (r.optimal()) {
    EXPECT_NEAR(r.objective, ref.objective, 1e-9);
    ASSERT_EQ(r.values.size(), ref.values.size());
    for (std::size_t i = 0; i < r.values.size(); ++i) {
      EXPECT_EQ(r.values[i], ref.values[i]) << "var " << i;
    }
  }

  // Exhaustive enumeration of all integer points in the box.
  double best = minimize ? std::numeric_limits<double>::infinity()
                         : -std::numeric_limits<double>::infinity();
  bool any_feasible = false;
  std::vector<int> x(n);
  for (int i = 0; i < n; ++i) x[i] = lo[i];
  auto feasible = [&]() {
    for (const auto& c : p.constraints()) {
      double lhs = 0.0;
      for (std::size_t k = 0; k < c.vars.size(); ++k) {
        lhs += c.coeffs[k] * x[c.vars[k]];
      }
      if (c.type == lp::RowType::kLe && lhs > c.rhs + 1e-9) return false;
      if (c.type == lp::RowType::kGe && lhs < c.rhs - 1e-9) return false;
    }
    return true;
  };
  bool done = false;
  while (!done) {
    if (feasible()) {
      any_feasible = true;
      double obj = 0.0;
      for (int i = 0; i < n; ++i) obj += p.objective()[i] * x[i];
      best = minimize ? std::min(best, obj) : std::max(best, obj);
    }
    int d = 0;
    while (d < n && ++x[d] > hi[d]) {
      x[d] = lo[d];
      ++d;
    }
    done = d == n;
  }

  if (!any_feasible) {
    EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible)
        << "enumeration found no feasible point but solver reported "
        << lp::to_string(r.status);
  } else {
    ASSERT_TRUE(r.optimal()) << lp::to_string(r.status);
    EXPECT_NEAR(r.objective, best, 1e-5);
    // Returned point must be integral and feasible.
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(r.values[i], std::round(r.values[i]), 1e-6);
      x[i] = static_cast<int>(std::round(r.values[i]));
    }
    EXPECT_TRUE(feasible());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIlps, IlpRandomProperty,
                         ::testing::ValuesIn([] {
                           std::vector<std::uint64_t> seeds;
                           for (std::uint64_t s = 1; s <= 50; ++s) {
                             seeds.push_back(s * 104729);
                           }
                           return seeds;
                         }()));

}  // namespace
}  // namespace wasp::oracles
