#include "ilp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>

#include "lp/simplex.h"

namespace wasp::ilp {
namespace {

constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);

// Copy-per-node search node (reference algorithm): the full chain of bound
// overrides relative to the root problem.
struct Node {
  std::vector<std::tuple<std::size_t, double, double>> bounds;
};

// Copy-free search node: one bound delta on top of the parent's state plus
// the trail depth to rewind to before applying it.
struct FastNode {
  std::size_t var = kNoVar;  // kNoVar marks the root
  double lo = -lp::kInfinity;
  double hi = lp::kInfinity;
  std::size_t depth = 0;  // undo-trail length at the parent
  double parent_bound = 0.0;
  bool has_parent_bound = false;
};

// Undo-trail entry: the bounds `var` had before the last tightening.
struct TrailEntry {
  std::size_t var = 0;
  double old_lo = 0.0;
  double old_hi = 0.0;
};

class Solver {
 public:
  Solver(const lp::Problem& problem, std::vector<std::size_t> integer_vars,
         const IlpOptions& options)
      : root_(problem),
        integer_vars_(std::move(integer_vars)),
        options_(options),
        minimize_(problem.sense() == lp::Sense::kMinimize) {
    max_nodes_ = options_.max_nodes != 0 ? options_.max_nodes : 200000;
    // Tolerance for accepting the rounded root relaxation as a feasible
    // incumbent seed; scales with eps like the simplex feasibility cutoff.
    seed_eps_ = options_.lp_options.eps * 100.0;
  }

  IlpResult run() {
    return options_.algorithm == IlpOptions::Algorithm::kReference
               ? run_reference()
               : run_copy_free();
  }

 private:
  // ---- Copy-free search (default) ------------------------------------------
  //
  // One working problem; branch bounds are applied on descent and undone via
  // the trail on backtrack, so no per-node lp::Problem copies are made. The
  // DFS order, branching rule, and pruning tests match the reference search,
  // with two additions that cannot change the returned solution: children are
  // pruned by their parent's LP bound before being solved (a child relaxation
  // can only be weaker than its parent's), and the incumbent is seeded from
  // the rounded root relaxation when that rounding is feasible. While the
  // incumbent is the seed, pruning lets ties through and an equally-good
  // search-found solution replaces the seed, so the search still returns the
  // same solution the unseeded reference DFS would find.
  IlpResult run_copy_free() {
    IlpResult result;
    lp::Problem work = root_;
    std::vector<FastNode> stack;
    std::vector<TrailEntry> trail;
    stack.push_back(FastNode{});
    bool hit_node_limit = false;

    while (!stack.empty()) {
      if (result.nodes_explored >= max_nodes_) {
        hit_node_limit = true;
        break;
      }
      const FastNode node = stack.back();
      stack.pop_back();
      ++result.nodes_explored;

      // Backtrack to the parent's state, then apply this node's delta.
      while (trail.size() > node.depth) {
        const TrailEntry& e = trail.back();
        work.set_bounds(e.var, e.old_lo, e.old_hi);
        trail.pop_back();
      }
      if (node.var != kNoVar) {
        const double new_lo = std::max(node.lo, work.lower_bounds()[node.var]);
        const double new_hi = std::min(node.hi, work.upper_bounds()[node.var]);
        if (new_lo > new_hi) continue;
        trail.push_back(TrailEntry{node.var, work.lower_bounds()[node.var],
                                   work.upper_bounds()[node.var]});
        work.set_bounds(node.var, new_lo, new_hi);
      }

      // Bound propagation: the child's relaxation is never better than the
      // parent's, so if the parent bound already fails the incumbent test the
      // LP solve can be skipped outright.
      if (node.has_parent_bound && have_incumbent_ &&
          !survives(node.parent_bound)) {
        continue;
      }

      const lp::Solution relax = lp::solve(work, options_.lp_options);
      result.lp_iterations += relax.iterations;
      if (relax.status == lp::SolveStatus::kUnbounded) {
        result.status = lp::SolveStatus::kUnbounded;
        return result;
      }
      if (relax.status == lp::SolveStatus::kIterationLimit) {
        // Not proven infeasible -- the subtree is dropped unexplored.
        ++result.nodes_dropped_by_limit;
        continue;
      }
      if (!relax.optimal()) continue;

      if (have_incumbent_ && !survives(relax.objective)) continue;

      const std::optional<std::size_t> frac = most_fractional(relax.values);
      if (!frac.has_value()) {
        offer_incumbent(relax.objective, relax.values);
        continue;
      }

      // Fractional root: try to seed an incumbent by rounding, so pruning has
      // a bound from node 1 instead of waiting for the first integral leaf.
      if (node.var == kNoVar && !have_incumbent_) {
        try_seed(relax.values);
      }

      const std::size_t var = *frac;
      const double v = relax.values[var];
      const std::size_t depth = trail.size();
      FastNode down{var, -lp::kInfinity, std::floor(v), depth, relax.objective,
                    true};
      FastNode up{var, std::ceil(v), lp::kInfinity, depth, relax.objective,
                  true};
      // Explore the branch nearer the relaxation value first (stack: push it
      // last so it pops first).
      if (v - std::floor(v) < 0.5) {
        stack.push_back(up);
        stack.push_back(down);
      } else {
        stack.push_back(down);
        stack.push_back(up);
      }
    }

    finalize(result, hit_node_limit);
    return result;
  }

  // ---- Copy-per-node search (reference) ------------------------------------
  IlpResult run_reference() {
    IlpResult result;
    std::vector<Node> stack;
    stack.push_back(Node{});
    bool hit_node_limit = false;

    while (!stack.empty()) {
      if (result.nodes_explored >= max_nodes_) {
        hit_node_limit = true;
        break;
      }
      const Node node = std::move(stack.back());
      stack.pop_back();
      ++result.nodes_explored;

      lp::Problem sub = root_;
      bool consistent = true;
      for (const auto& [var, lo, hi] : node.bounds) {
        const double new_lo = std::max(lo, sub.lower_bounds()[var]);
        const double new_hi = std::min(hi, sub.upper_bounds()[var]);
        if (new_lo > new_hi) {
          consistent = false;
          break;
        }
        sub.set_bounds(var, new_lo, new_hi);
      }
      if (!consistent) continue;

      const lp::Solution relax = lp::solve(sub, options_.lp_options);
      result.lp_iterations += relax.iterations;
      if (relax.status == lp::SolveStatus::kUnbounded) {
        // An unbounded relaxation at the root means the ILP itself is
        // unbounded (or would need deeper analysis); report it.
        result.status = lp::SolveStatus::kUnbounded;
        return result;
      }
      if (relax.status == lp::SolveStatus::kIterationLimit) {
        ++result.nodes_dropped_by_limit;
        continue;
      }
      if (!relax.optimal()) continue;

      // Prune against the incumbent.
      if (have_incumbent_ && !improves(relax.objective)) continue;

      const std::optional<std::size_t> frac = most_fractional(relax.values);
      if (!frac.has_value()) {
        // Integral solution: new incumbent.
        if (!have_incumbent_ || improves(relax.objective)) {
          have_incumbent_ = true;
          incumbent_objective_ = relax.objective;
          incumbent_values_ = relax.values;
          round_integer_values(incumbent_values_);
        }
        continue;
      }

      // Branch on the most fractional variable: floor branch and ceil branch.
      const std::size_t var = *frac;
      const double v = relax.values[var];
      Node down = node;
      down.bounds.emplace_back(var, -lp::kInfinity, std::floor(v));
      Node up = node;
      up.bounds.emplace_back(var, std::ceil(v), lp::kInfinity);
      // Explore the branch nearer the relaxation value first (stack: push it
      // last so it pops first).
      if (v - std::floor(v) < 0.5) {
        stack.push_back(std::move(up));
        stack.push_back(std::move(down));
      } else {
        stack.push_back(std::move(down));
        stack.push_back(std::move(up));
      }
    }

    finalize(result, hit_node_limit);
    return result;
  }

  // ---- Shared pieces --------------------------------------------------------

  void finalize(IlpResult& result, bool hit_node_limit) const {
    if (have_incumbent_) {
      result.status = lp::SolveStatus::kOptimal;
      result.objective = incumbent_objective_;
      result.values = incumbent_values_;
    } else if (hit_node_limit || result.nodes_dropped_by_limit > 0) {
      // Subtrees were truncated without an incumbent: the problem was not
      // proven infeasible, so don't claim it is.
      result.status = lp::SolveStatus::kIterationLimit;
    } else {
      result.status = lp::SolveStatus::kInfeasible;
    }
  }

  [[nodiscard]] bool improves(double objective) const {
    const double gap = options_.absolute_gap;
    return minimize_ ? objective < incumbent_objective_ - gap
                     : objective > incumbent_objective_ + gap;
  }

  // Incumbent test used by the copy-free search. While the incumbent is the
  // rounded-root seed, ties pass so the DFS can still reach (and adopt) the
  // solution the reference search would return.
  [[nodiscard]] bool survives(double objective) const {
    if (!seeded_) return improves(objective);
    const double gap = options_.absolute_gap;
    return minimize_ ? objective < incumbent_objective_ + gap
                     : objective > incumbent_objective_ - gap;
  }

  void offer_incumbent(double objective, const std::vector<double>& values) {
    const bool take =
        !have_incumbent_ || (seeded_ ? survives(objective) : improves(objective));
    if (!take) return;
    have_incumbent_ = true;
    seeded_ = false;
    incumbent_objective_ = objective;
    incumbent_values_ = values;
    round_integer_values(incumbent_values_);
  }

  // Rounds the (fractional) root relaxation and installs it as the incumbent
  // if the rounding satisfies every bound and constraint.
  void try_seed(const std::vector<double>& relax_values) {
    std::vector<double> x = relax_values;
    round_integer_values(x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] < root_.lower_bounds()[i] - seed_eps_ ||
          x[i] > root_.upper_bounds()[i] + seed_eps_) {
        return;
      }
    }
    for (const lp::Constraint& c : root_.constraints()) {
      double lhs = 0.0;
      for (std::size_t k = 0; k < c.vars.size(); ++k) {
        lhs += c.coeffs[k] * x[c.vars[k]];
      }
      const double tol = seed_eps_ * std::max(1.0, std::abs(c.rhs));
      switch (c.type) {
        case lp::RowType::kLe:
          if (lhs > c.rhs + tol) return;
          break;
        case lp::RowType::kGe:
          if (lhs < c.rhs - tol) return;
          break;
        case lp::RowType::kEq:
          if (std::abs(lhs - c.rhs) > tol) return;
          break;
      }
    }
    double obj = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      obj += root_.objective()[i] * x[i];
    }
    have_incumbent_ = true;
    seeded_ = true;
    incumbent_objective_ = obj;
    incumbent_values_ = std::move(x);
  }

  [[nodiscard]] std::optional<std::size_t> most_fractional(
      const std::vector<double>& values) const {
    std::optional<std::size_t> best;
    double best_dist = 0.0;
    for (std::size_t var : integer_vars_) {
      const double v = values[var];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > options_.integrality_eps && dist > best_dist) {
        best = var;
        best_dist = dist;
      }
    }
    return best;
  }

  void round_integer_values(std::vector<double>& values) const {
    for (std::size_t var : integer_vars_) {
      values[var] = std::round(values[var]);
    }
  }

  const lp::Problem& root_;
  std::vector<std::size_t> integer_vars_;
  IlpOptions options_;
  bool minimize_;
  std::size_t max_nodes_ = 0;
  double seed_eps_ = 1e-7;
  bool have_incumbent_ = false;
  bool seeded_ = false;
  double incumbent_objective_ = 0.0;
  std::vector<double> incumbent_values_;
};

}  // namespace

IlpResult solve(const lp::Problem& problem,
                const std::vector<std::size_t>& integer_vars,
                const IlpOptions& options) {
  return Solver(problem, integer_vars, options).run();
}

IlpResult solve_all_integer(const lp::Problem& problem,
                            const IlpOptions& options) {
  std::vector<std::size_t> all(problem.num_variables());
  std::iota(all.begin(), all.end(), 0);
  return solve(problem, all, options);
}

}  // namespace wasp::ilp
