#include "physical/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/units.h"

namespace wasp::physical {

// One integer variable per site; the fold is described on PlacementProgram.
std::optional<PlacementProgram> build_placement_ilp(
    const StageContext& ctx, const NetworkView& view, double alpha,
    const std::vector<int>& extra_slots) {
  const std::size_t m = view.num_sites();
  const double p = static_cast<double>(ctx.parallelism);
  assert(ctx.parallelism >= 1);

  PlacementProgram program;
  program.parallelism = ctx.parallelism;
  program.cost.reserve(m);
  program.lo.reserve(m);
  program.hi.reserve(m);

  // Objective: Σ_s p[s] · (Σ_u w_u ℓ_su + Σ_d w_d ℓ_ds), with endpoint
  // weights proportional to the traffic they exchange with the stage
  // (Eq. 1, traffic-weighted).
  double total_up = 0.0, total_down = 0.0;
  for (const auto& u : ctx.upstream) total_up += u.events_per_sec;
  for (const auto& d : ctx.downstream) total_down += d.events_per_sec;

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
    program.cost.push_back(cost);
    program.lo.push_back(lo);
    program.hi.push_back(std::max(0, slots));
  }

  // Constraints (2) and (3): per (site, neighbor-site) bandwidth caps. Each
  // becomes an upper bound on p[s]:
  //   p[s]/p · traffic(u) < α · B(u -> s)   =>   p[s] < p·α·B / traffic.
  // We fold all caps for a site into the tightest one and tighten the
  // variable's upper bound, which keeps the ILP small.
  for (std::size_t s = 0; s < m; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    double cap = p;
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
    if (cap < p) {
      const int hi = static_cast<int>(std::max(0.0, std::floor(cap)));
      program.hi[s] = std::min(program.hi[s], hi);
      if (program.hi[s] < program.lo[s]) return std::nullopt;  // floor > cap
    }
  }

  return program;
}

namespace {

// Exact solve of the folded program (DESIGN.md §14.2): start every site at
// its floor, then hand the remaining tasks to sites in ascending
// (cost, index) order up to their bounds. For a box plus one all-ones
// equality row this greedy fill is optimal -- moving a task from a cheaper
// site with headroom to a dearer one never lowers the cost -- and the
// integral bounds make it integral, so no branching is needed.
std::optional<PlacementOutcome> solve_direct(const PlacementProgram& program) {
  const std::size_t m = program.cost.size();
  PlacementOutcome outcome;
  std::vector<int>& x = outcome.placement.per_site;
  x = program.lo;
  long long remaining = program.parallelism;
  for (int floor_s : x) remaining -= floor_s;
  if (remaining < 0) return std::nullopt;  // floors alone exceed p

  std::vector<std::size_t> order(m);
  for (std::size_t s = 0; s < m; ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ca = program.cost[a];
    const double cb = program.cost[b];
    return ca != cb ? ca < cb : a < b;
  });
  for (std::size_t s : order) {
    if (remaining == 0) break;
    const long long take =
        std::min<long long>(remaining, program.hi[s] - x[s]);
    if (take > 0) {
      x[s] += static_cast<int>(take);
      remaining -= take;
    }
  }
  if (remaining > 0) return std::nullopt;  // Σ hi < p: infeasible

  for (std::size_t s = 0; s < m; ++s) {
    outcome.objective += program.cost[s] * x[s];
  }
  return outcome;
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
  placement_cache_key(key_scratch_, context, view, config_.alpha, extra_slots);
  const auto [slot, hit] = cache_.find_or_reserve(key_scratch_);
  if (!hit) {
    const auto program =
        build_placement_ilp(context, view, config_.alpha, extra_slots);
    *slot = program.has_value() ? solve_direct(*program) : std::nullopt;
  }
  if (tracing) {
    span.flag("cache_hit", hit).flag("feasible", slot->has_value());
    if (slot->has_value()) span.num("objective", (*slot)->objective);
  }
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
