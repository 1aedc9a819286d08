// Two-phase primal simplex solver over dense tableaus.
//
// Scope: exact solutions for the small LPs arising in WASP's placement and
// migration optimizations (tens of variables). General variable bounds are
// handled by substitution (lower bounds shifted to zero, finite upper bounds
// added as rows, free variables split). Bland's pivoting rule guarantees
// termination on degenerate problems.
#pragma once

#include <cstddef>

#include "lp/problem.h"

namespace wasp::lp {

struct SimplexOptions {
  // Entering-column pricing strategy. kMaintainedRow keeps the reduced-cost
  // row in the tableau (priced once per phase, updated on every pivot), so
  // column selection is an O(n) row scan. kRescan recomputes each reduced
  // cost from the basis on every iteration (O(m·n) per selection); it is the
  // original implementation, kept as a reference for equivalence testing.
  enum class Pricing { kMaintainedRow, kRescan };

  // Numeric tolerance for feasibility/optimality tests.
  double eps = 1e-9;
  // Hard cap on pivots per phase; 0 means the solver picks a generous bound
  // from the problem size.
  std::size_t max_iterations = 0;
  Pricing pricing = Pricing::kMaintainedRow;
};

// Solves the LP relaxation of `problem` (integrality is ignored here; see
// wasp::ilp for integer solves).
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

}  // namespace wasp::lp
