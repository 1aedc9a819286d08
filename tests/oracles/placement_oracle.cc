#include "oracles/placement_oracle.h"

#include <algorithm>
#include <cmath>

#include "lp/problem.h"
#include "oracles/branch_and_bound.h"

namespace wasp::oracles {
namespace {

lp::Problem placement_problem(const physical::PlacementProgram& program) {
  lp::Problem problem(lp::Sense::kMinimize);
  lp::Constraint total;
  total.type = lp::RowType::kEq;
  total.rhs = static_cast<double>(program.parallelism);
  for (std::size_t s = 0; s < program.cost.size(); ++s) {
    total.vars.push_back(problem.add_variable(program.cost[s], program.lo[s],
                                              program.hi[s]));
    total.coeffs.push_back(1.0);
  }
  problem.add_constraint(std::move(total));
  return problem;
}

}  // namespace

std::optional<physical::PlacementOutcome> solve_placement(
    const physical::PlacementProgram& program) {
  const IlpResult result = solve_all_integer(placement_problem(program));
  if (!result.optimal()) return std::nullopt;
  physical::PlacementOutcome outcome;
  for (double v : result.values) {
    outcome.placement.per_site.push_back(static_cast<int>(std::lround(v)));
  }
  outcome.objective = result.objective;
  return outcome;
}

std::optional<physical::PlacementOutcome> place_stage(
    const physical::StageContext& context, const physical::NetworkView& view,
    double alpha, const std::vector<int>& extra_slots) {
  const auto program =
      physical::build_placement_ilp(context, view, alpha, extra_slots);
  if (!program.has_value()) return std::nullopt;
  return solve_placement(*program);
}

std::optional<physical::PlacementOutcome> place_with_min_parallelism(
    const physical::StageContext& context, const physical::NetworkView& view,
    double alpha, int min_parallelism, int max_parallelism,
    const std::vector<int>& extra_slots) {
  physical::StageContext ctx = context;
  for (int p = std::max(1, min_parallelism); p <= max_parallelism; ++p) {
    ctx.parallelism = p;
    if (auto outcome = place_stage(ctx, view, alpha, extra_slots)) {
      return outcome;
    }
  }
  return std::nullopt;
}

}  // namespace wasp::oracles
