#include "physical/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/units.h"
#include "ilp/branch_and_bound.h"
#include "lp/problem.h"

namespace wasp::physical {
namespace {

// Below this site count the legacy exact branch & bound places every stage
// (bit-identical placements, the paper-testbed contract). At or above it the
// greedy direct solve does, which is exact for every program
// build_placement_ilp produces (see solve_direct), and stages also consult
// the previous epoch's placement cache (DESIGN.md §14).
constexpr std::size_t kDirectSolveMinSites = 33;

// The Eq. 1-5 placement program, built once and handed to whichever solve
// path (exact B&B or direct greedy) the scheduler picks. `vars[s]` is the
// problem variable for site s.
struct BuiltIlp {
  lp::Problem problem;
  std::vector<std::size_t> vars;
};

// Builds the Eq. 1-5 ILP: one integer variable per site, bandwidth caps
// folded into variable upper bounds, one total-parallelism equality row.
// Returns nullopt when the bounds alone are unsatisfiable.
std::optional<BuiltIlp> build_placement_ilp(
    const StageContext& ctx, const NetworkView& view, double alpha,
    const std::vector<int>& extra_slots) {
  const std::size_t m = view.num_sites();
  const double p = static_cast<double>(ctx.parallelism);
  assert(ctx.parallelism >= 1);

  lp::Problem problem(lp::Sense::kMinimize);

  // Objective: Σ_s p[s] · (Σ_u w_u ℓ_su + Σ_d w_d ℓ_ds), with endpoint
  // weights proportional to the traffic they exchange with the stage
  // (Eq. 1, traffic-weighted).
  double total_up = 0.0, total_down = 0.0;
  for (const auto& u : ctx.upstream) total_up += u.events_per_sec;
  for (const auto& d : ctx.downstream) total_down += d.events_per_sec;

  std::vector<std::size_t> vars;
  for (std::size_t s = 0; s < m; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    double cost = 0.0;
    for (const auto& u : ctx.upstream) {
      const double w = total_up > 0.0 ? u.events_per_sec / total_up : 1.0;
      cost += w * view.latency_ms(u.site, site);
    }
    for (const auto& d : ctx.downstream) {
      const double w = total_down > 0.0 ? d.events_per_sec / total_down : 1.0;
      cost += w * view.latency_ms(site, d.site);
    }
    int slots = view.available_slots(site);
    if (s < extra_slots.size()) slots += extra_slots[s];
    // Anti-affinity: an excluded site contributes zero capacity (Eq. 4 with
    // A[s] forced to 0), regardless of its actual slots.
    for (SiteId ex : ctx.excluded_sites) {
      if (ex == site) {
        slots = 0;
        break;
      }
    }
    // Decomposition cap: max_per_site pins out-of-region sites to their
    // current count (-1 entries are uncapped); tighter than slots wins.
    if (s < ctx.max_per_site.size() && ctx.max_per_site[s] >= 0) {
      slots = std::min(slots, ctx.max_per_site[s]);
    }
    const int lo = s < ctx.min_per_site.size() ? ctx.min_per_site[s] : 0;
    // Constraint (4): lo <= p[s] <= A[s].
    if (lo > slots) return std::nullopt;  // pinned floor exceeds capacity
    vars.push_back(problem.add_variable(cost, lo, std::max(0, slots)));
  }

  // Constraint (5): Σ p[s] = p.
  {
    lp::Constraint total;
    total.type = lp::RowType::kEq;
    total.rhs = p;
    for (std::size_t s = 0; s < m; ++s) {
      total.vars.push_back(vars[s]);
      total.coeffs.push_back(1.0);
    }
    problem.add_constraint(std::move(total));
  }

  // Constraints (2) and (3): per (site, neighbor-site) bandwidth caps. Each
  // becomes an upper bound on p[s]:
  //   p[s]/p · traffic(u) < α · B(u -> s)   =>   p[s] < p·α·B / traffic.
  // We fold all caps for a site into the tightest one and tighten the
  // variable's upper bound, which keeps the ILP small.
  for (std::size_t s = 0; s < m; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    double cap = static_cast<double>(ctx.parallelism);
    auto apply = [&](double traffic_eps, double event_bytes, double bw_mbps) {
      const double demand = stream_mbps(traffic_eps, event_bytes);
      if (demand <= 0.0) return;
      if (bw_mbps <= 0.0) {
        cap = 0.0;
        return;
      }
      // Strict inequality in the paper; emulate with a tiny epsilon.
      cap = std::min(cap, p * alpha * bw_mbps / demand - 1e-9);
    };
    for (const auto& u : ctx.upstream) {
      if (u.site == site) continue;  // co-located: no WAN traffic
      apply(u.events_per_sec, u.event_bytes,
            view.available_mbps(u.site, site));
    }
    for (const auto& d : ctx.downstream) {
      if (d.site == site) continue;
      apply(d.events_per_sec, d.event_bytes,
            view.available_mbps(site, d.site));
    }
    if (cap < static_cast<double>(ctx.parallelism)) {
      const double hi = std::max(0.0, std::floor(cap));
      const double existing_lo = problem.lower_bounds()[vars[s]];
      const double existing_hi = problem.upper_bounds()[vars[s]];
      const double new_hi = std::min(existing_hi, hi);
      if (new_hi < existing_lo) return std::nullopt;  // floor unsatisfiable
      problem.set_bounds(vars[s], existing_lo, new_hi);
    }
  }

  return BuiltIlp{std::move(problem), std::move(vars)};
}

// Builds and solves the Eq. 1-5 ILP via branch & bound. When `stats` is
// non-null it receives the raw solver result (trace cost attribution); early
// infeasibility leaves it default-initialized.
std::optional<PlacementOutcome> solve_ilp(const StageContext& ctx,
                                          const NetworkView& view,
                                          double alpha,
                                          const std::vector<int>& extra_slots,
                                          const ilp::IlpOptions& ilp_options,
                                          ilp::IlpResult* stats = nullptr) {
  const auto built = build_placement_ilp(ctx, view, alpha, extra_slots);
  if (!built.has_value()) return std::nullopt;
  const std::size_t m = view.num_sites();

  const ilp::IlpResult result =
      ilp::solve(built->problem, built->vars, ilp_options);
  if (stats != nullptr) *stats = result;
  if (!result.optimal()) return std::nullopt;

  PlacementOutcome outcome;
  outcome.placement.per_site.resize(m, 0);
  for (std::size_t s = 0; s < m; ++s) {
    outcome.placement.per_site[s] =
        static_cast<int>(std::lround(result.values[built->vars[s]]));
  }
  outcome.objective = result.objective;
  return outcome;
}

// Exact direct solve for the folded program's structure (DESIGN.md §14).
// build_placement_ilp folds every bandwidth cap into a variable bound, so
// every program it builds is
//   min Σ cost[s]·x[s]  s.t.  Σ x[s] = p,  lo[s] <= x[s] <= hi[s], integer,
// whose optimum is the greedy fill: start every site at its floor, then
// hand remaining tasks to sites in ascending (cost, index) order. Integral
// bounds make the greedy solution integral, so no branching is needed.
std::optional<PlacementOutcome> solve_direct(const BuiltIlp& built,
                                             int parallelism) {
  const std::vector<double>& cost = built.problem.objective();
  const std::vector<double>& lo = built.problem.lower_bounds();
  const std::vector<double>& hi = built.problem.upper_bounds();
  const std::size_t m = built.vars.size();

  PlacementOutcome outcome;
  outcome.method = PlacementOutcome::Method::kDirect;
  outcome.placement.per_site.resize(m, 0);
  long long remaining = parallelism;
  for (std::size_t s = 0; s < m; ++s) {
    const int floor_s = static_cast<int>(std::lround(lo[built.vars[s]]));
    outcome.placement.per_site[s] = floor_s;
    remaining -= floor_s;
  }
  if (remaining < 0) return std::nullopt;  // floors alone exceed p

  std::vector<std::size_t> order(m);
  for (std::size_t s = 0; s < m; ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ca = cost[built.vars[a]];
    const double cb = cost[built.vars[b]];
    return ca != cb ? ca < cb : a < b;
  });
  for (std::size_t s : order) {
    if (remaining == 0) break;
    const long long headroom =
        static_cast<long long>(std::lround(hi[built.vars[s]])) -
        outcome.placement.per_site[s];
    const long long take = std::min(remaining, headroom);
    if (take > 0) {
      outcome.placement.per_site[s] += static_cast<int>(take);
      remaining -= take;
    }
  }
  if (remaining > 0) return std::nullopt;  // Σ hi < p: infeasible

  for (std::size_t s = 0; s < m; ++s) {
    outcome.objective += cost[built.vars[s]] * outcome.placement.per_site[s];
  }
  return outcome;
}

// ILP options for the reference (pre-optimization) solver stack: rescan
// pricing in the simplex and the copy-per-node branch & bound.
ilp::IlpOptions reference_ilp_options() {
  ilp::IlpOptions opts;
  opts.algorithm = ilp::IlpOptions::Algorithm::kReference;
  opts.lp_options.pricing = lp::SimplexOptions::Pricing::kRescan;
  return opts;
}

}  // namespace

std::optional<PlacementOutcome> Scheduler::place_stage(
    const StageContext& context, const NetworkView& view,
    const std::vector<int>& extra_slots) const {
  obs::Profiler::Scope profile_solve(profiler_,
                                     obs::Phase::kSolverPlacement);
  if (!context.pinned_sites.empty()) {
    // Pinned stages (sources/sinks) bypass the ILP: one task per pin.
    PlacementOutcome outcome;
    outcome.placement.per_site.resize(view.num_sites(), 0);
    for (SiteId s : context.pinned_sites) {
      ++outcome.placement.per_site[static_cast<std::size_t>(s.value())];
    }
    return outcome;
  }
  const bool tracing = trace_ != nullptr && trace_->enabled();
  obs::TraceEmitter::SpanScope span(tracing ? trace_ : nullptr,
                                    "placement_ilp");
  if (tracing) span.num("parallelism", context.parallelism);
  auto record = [&](const std::optional<PlacementOutcome>& outcome,
                    bool cache_hit, const ilp::IlpResult& stats) {
    if (!tracing) return;
    span.flag("cache_hit", cache_hit)
        .flag("feasible", outcome.has_value())
        .num("bb_nodes", static_cast<double>(stats.nodes_explored))
        .num("lp_iterations", static_cast<double>(stats.lp_iterations));
    if (outcome.has_value()) {
      span.num("objective", outcome->objective);
      // The direct solve announces itself; the exact B&B path (every
      // placement at paper scale) emits no extra field, so existing golden
      // traces are unchanged.
      if (outcome->method == PlacementOutcome::Method::kDirect) {
        span.str("method", "direct");
      }
    }
  };
  if (config_.use_reference_solvers) {
    ilp::IlpResult stats;
    auto outcome = solve_ilp(context, view, config_.alpha, extra_slots,
                             reference_ilp_options(),
                             tracing ? &stats : nullptr);
    record(outcome, /*cache_hit=*/false, stats);
    return outcome;
  }
  const bool at_scale = view.num_sites() >= kDirectSolveMinSites;
  placement_cache_key(key_scratch_, context, view, config_.alpha, extra_slots);
  const auto [slot, hit] =
      cache_.find_or_reserve(key_scratch_, /*allow_prev=*/at_scale);
  if (hit) {
    record(*slot, /*cache_hit=*/true, ilp::IlpResult{});
    return *slot;
  }
  ilp::IlpResult stats;
  if (!at_scale) {
    // Paper-testbed scale: the legacy exact branch & bound, bit-identical to
    // the pre-scale-pipeline scheduler.
    *slot = solve_ilp(context, view, config_.alpha, extra_slots,
                      ilp::IlpOptions{}, tracing ? &stats : nullptr);
  } else {
    // At scale the folded program is box + one equality row: the greedy
    // direct solve is exact and O(m log m) (DESIGN.md §14).
    const auto built =
        build_placement_ilp(context, view, config_.alpha, extra_slots);
    *slot = built.has_value() ? solve_direct(*built, context.parallelism)
                              : std::nullopt;
  }
  record(*slot, /*cache_hit=*/false, stats);
  return *slot;
}

std::optional<PlacementOutcome> Scheduler::place_with_min_parallelism(
    const StageContext& context, const NetworkView& view, int min_parallelism,
    int max_parallelism, const std::vector<int>& extra_slots) const {
  StageContext ctx = context;
  for (int p = std::max(1, min_parallelism); p <= max_parallelism; ++p) {
    ctx.parallelism = p;
    if (auto outcome = place_stage(ctx, view, extra_slots)) return outcome;
  }
  return std::nullopt;
}

}  // namespace wasp::physical
