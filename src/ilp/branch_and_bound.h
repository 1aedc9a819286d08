// Integer linear programming via branch & bound over the simplex relaxation.
//
// This is the solver behind WASP's WAN-aware task placement ILP (paper
// Eq. 1-5), standing in for the Gurobi dependency of the original prototype.
// Placement instances are small (one variable per site, m <= 16), so plain
// depth-first branch & bound with best-incumbent pruning solves them exactly
// in microseconds. The solver is nonetheless general: any subset of variables
// may be marked integer, and node/iteration limits make it safe to embed in
// the simulation control loop.
//
// The default search works on one mutable copy of the problem, applying and
// undoing branch bounds as the DFS descends and backtracks, seeds an
// incumbent by rounding the root relaxation, and prunes children by their
// parent's LP bound before solving them. `IlpOptions::algorithm = kReference`
// selects the original copy-per-node search, kept for equivalence testing.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.h"
#include "lp/simplex.h"

namespace wasp::ilp {

struct IlpOptions {
  // Search implementation. kCopyFree is the default hot path; kReference
  // copies the root problem per node (the original algorithm) and exists so
  // tests can assert the optimized path returns identical results.
  enum class Algorithm { kCopyFree, kReference };

  // Tolerance for treating a relaxation value as integral.
  double integrality_eps = 1e-6;
  // Hard cap on explored branch-and-bound nodes (0 = solver default).
  std::size_t max_nodes = 0;
  // Objective gap below which an incumbent is accepted as optimal.
  double absolute_gap = 1e-9;
  // Options forwarded to every LP relaxation solve.
  lp::SimplexOptions lp_options;
  Algorithm algorithm = Algorithm::kCopyFree;
};

struct IlpResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // integral entries for integer variables
  std::size_t nodes_explored = 0;
  // Simplex pivots summed over every LP relaxation solved during the search
  // (root + nodes) -- solver-cost attribution for trace spans.
  std::size_t lp_iterations = 0;
  // Nodes whose LP relaxation hit the iteration limit and had to be dropped.
  // When any were dropped and no incumbent exists, the search was truncated
  // rather than exhausted, and `status` reports kIterationLimit instead of
  // kInfeasible.
  std::size_t nodes_dropped_by_limit = 0;

  [[nodiscard]] bool optimal() const {
    return status == lp::SolveStatus::kOptimal;
  }
};

// Solves `problem` with the variables listed in `integer_vars` restricted to
// integers. Variables not listed stay continuous (mixed-integer solve).
[[nodiscard]] IlpResult solve(const lp::Problem& problem,
                              const std::vector<std::size_t>& integer_vars,
                              const IlpOptions& options = {});

// Convenience: all variables integer.
[[nodiscard]] IlpResult solve_all_integer(const lp::Problem& problem,
                                          const IlpOptions& options = {});

}  // namespace wasp::ilp
