// Linear-program model used by the simplex solver and the ILP layer.
//
// WASP's WAN-aware task placement (paper Eq. 1-5) is an integer linear
// program the prototype solved with Gurobi. Gurobi is proprietary, so this
// repository carries its own small LP/ILP stack: `lp` is the continuous
// solver, `ilp` adds branch & bound. Problems in this codebase are small
// (tens of variables/rows), so the implementation favors exactness and
// clarity over large-scale performance.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace wasp::lp {

enum class RowType { kLe, kGe, kEq };
enum class Sense { kMinimize, kMaximize };

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct Constraint {
  // Sparse row: parallel arrays of variable index and coefficient.
  std::vector<std::size_t> vars;
  std::vector<double> coeffs;
  RowType type = RowType::kLe;
  double rhs = 0.0;
};

class Problem {
 public:
  explicit Problem(Sense sense = Sense::kMinimize) : sense_(sense) {}

  // Adds a variable with the given objective coefficient and bounds.
  // Returns its index. Default bounds are [0, +inf).
  std::size_t add_variable(double objective_coeff, double lower = 0.0,
                           double upper = kInfinity);

  // Adds a constraint; variable indices must already exist.
  void add_constraint(Constraint c);

  // Convenience for dense rows over all variables.
  void add_dense_constraint(const std::vector<double>& coeffs, RowType type,
                            double rhs);

  [[nodiscard]] Sense sense() const { return sense_; }
  [[nodiscard]] std::size_t num_variables() const { return objective_.size(); }
  [[nodiscard]] std::size_t num_constraints() const {
    return constraints_.size();
  }
  [[nodiscard]] const std::vector<double>& objective() const {
    return objective_;
  }
  [[nodiscard]] const std::vector<double>& lower_bounds() const {
    return lower_;
  }
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return upper_;
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }

  // Tightens a variable's bounds (used by branch & bound). The new bounds
  // replace the old ones.
  void set_bounds(std::size_t var, double lower, double upper);

 private:
  Sense sense_;
  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Constraint> constraints_;
};

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  // Simplex pivots performed across both phases (solver-cost attribution for
  // trace spans; 0 when the solve failed before pivoting).
  std::size_t iterations = 0;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::kOptimal; }
};

[[nodiscard]] std::string to_string(SolveStatus status);

}  // namespace wasp::lp
