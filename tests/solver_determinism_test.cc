// Differential harness for the placement solver.
//
// The scheduler (direct solve of the folded program plus the two-generation
// placement cache) must return the placements of an independent, uncached
// branch & bound over the same program (tests/oracles), with objectives
// equal to 1e-9 relative. The scenarios mirror the paper's evaluation setup:
// the §8.2 16-site testbed (fig. 7/9 scale) with the Table 3 benchmark
// queries plus the Fig. 5 four-source join, placed end-to-end via
// place_plan; plus a randomized per-stage sweep and a fuzzer over the
// program's whole input space at 2-64 sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/topology.h"
#include "oracles/placement_oracle.h"
#include "physical/physical_plan.h"
#include "physical/placement.h"
#include "physical/scheduler.h"
#include "workload/queries.h"

namespace wasp::physical {
namespace {

// NetworkView over a topology's ground truth (base bandwidth, latency, all
// slots free) -- a deterministic stand-in for the WAN monitor.
class TopologyView final : public NetworkView {
 public:
  explicit TopologyView(const net::Topology& topo) : topo_(topo) {}

  [[nodiscard]] std::size_t num_sites() const override {
    return topo_.num_sites();
  }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    return topo_.base_bandwidth(from, to);
  }
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    return topo_.latency_ms(from, to);
  }
  [[nodiscard]] int available_slots(SiteId site) const override {
    return topo_.site(site).slots;
  }

 private:
  const net::Topology& topo_;
};

struct Scenario {
  const char* name;
  workload::QuerySpec spec;
  double eps_per_source;
};

std::vector<Scenario> paper_scenarios(const net::Topology& topo) {
  std::vector<SiteId> east, west, edges;
  SiteId sink;
  for (const auto& site : topo.sites()) {
    if (site.type == net::SiteType::kEdge) {
      (east.size() <= west.size() ? east : west).push_back(site.id);
      edges.push_back(site.id);
    } else if (!sink.valid()) {
      sink = site.id;
    }
  }
  std::vector<SiteId> four(edges.begin(), edges.begin() + 4);
  std::vector<Scenario> out;
  out.push_back({"ysb", workload::make_ysb_campaign(edges, sink), 5'000.0});
  out.push_back(
      {"topk", workload::make_topk_topics(east, west, sink), 3'000.0});
  out.push_back({"events_of_interest",
                 workload::make_events_of_interest(edges, sink), 8'000.0});
  out.push_back({"four_source_join",
                 workload::make_four_source_join(four, sink, true), 2'000.0});
  return out;
}

std::unordered_map<OperatorId, query::OperatorRates> scenario_rates(
    const Scenario& sc) {
  std::unordered_map<OperatorId, double> src_rates;
  for (OperatorId src : sc.spec.sources) src_rates[src] = sc.eps_per_source;
  return sc.spec.plan.estimate_rates(src_rates);
}

struct OraclePlan {
  std::unordered_map<OperatorId, StagePlacement> placements;
  double objective = 0.0;
};

// The view place_plan hands each stage: `base` minus the slots and link
// bandwidth the stages placed so far claimed.
class DeductingView final : public NetworkView {
 public:
  explicit DeductingView(const NetworkView& base)
      : base_(base),
        n_(base.num_sites()),
        used_slots_(n_, 0),
        used_mbps_(n_ * n_, 0.0) {}

  [[nodiscard]] std::size_t num_sites() const override { return n_; }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    return std::max(0.0, base_.available_mbps(from, to) -
                             used_mbps_[index(from.value(), to.value())]);
  }
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    return base_.latency_ms(from, to);
  }
  [[nodiscard]] int available_slots(SiteId site) const override {
    return base_.available_slots(site) -
           used_slots_[static_cast<std::size_t>(site.value())];
  }

  void consume_slots(const StagePlacement& placement) {
    for (std::size_t s = 0; s < n_; ++s) {
      used_slots_[s] += placement.per_site[s];
    }
  }

  void consume_traffic(const std::vector<TrafficEndpoint>& endpoints,
                       const StagePlacement& placement, bool inbound) {
    const int p = placement.parallelism();
    for (const auto& e : endpoints) {
      for (SiteId s : placement.sites()) {
        if (s == e.site) continue;
        const double share = static_cast<double>(placement.at(s)) / p;
        used_mbps_[inbound ? index(e.site.value(), s.value())
                           : index(s.value(), e.site.value())] +=
            stream_mbps(e.events_per_sec * share, e.event_bytes);
      }
    }
  }

 private:
  [[nodiscard]] std::size_t index(std::int64_t from, std::int64_t to) const {
    return static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to);
  }
  const NetworkView& base_;
  std::size_t n_;
  std::vector<int> used_slots_;
  std::vector<double> used_mbps_;
};

// place_plan with every stage placed by the uncached oracle. It walks the
// plan the way place_plan does: pinned stages reserved up front, each stage's
// context built from its placed upstream stages and pinned downstream sinks,
// and slots and link bandwidth deducted stage by stage. So it agrees with
// place_plan exactly when the scheduler agrees with the oracle on every stage.
std::optional<OraclePlan> oracle_place_plan(
    const query::LogicalPlan& logical,
    const std::unordered_map<OperatorId, query::OperatorRates>& rates,
    const std::unordered_map<OperatorId, int>& parallelism,
    const NetworkView& view, double alpha, int max_parallelism_fallback) {
  OraclePlan out;
  DeductingView working(view);
  for (const auto& op : logical.operators()) {
    if (op.pinned_sites.empty()) continue;
    StagePlacement placement;
    placement.per_site.assign(view.num_sites(), 0);
    for (SiteId s : op.pinned_sites) {
      ++placement.per_site[static_cast<std::size_t>(s.value())];
    }
    if (!op.is_source()) working.consume_slots(placement);
    out.placements.emplace(op.id, std::move(placement));
  }
  for (OperatorId op_id : logical.topological_order()) {
    const query::LogicalOperator& op = logical.op(op_id);
    if (!op.pinned_sites.empty()) continue;
    StageContext ctx;
    if (const auto it = parallelism.find(op_id); it != parallelism.end()) {
      ctx.parallelism = std::max(1, it->second);
    }
    for (OperatorId u : logical.upstream(op_id)) {
      const StagePlacement& up = out.placements.at(u);
      for (SiteId site : up.sites()) {
        const double share = static_cast<double>(up.at(site)) /
                             static_cast<double>(up.parallelism());
        ctx.upstream.push_back(
            TrafficEndpoint{site, rates.at(u).output_eps * share,
                            logical.op(u).output_event_bytes});
      }
    }
    for (OperatorId d : logical.downstream(op_id)) {
      const auto& sinks = logical.op(d).pinned_sites;
      for (SiteId s : sinks) {
        ctx.downstream.push_back(TrafficEndpoint{
            s, rates.at(op_id).output_eps / static_cast<double>(sinks.size()),
            op.output_event_bytes});
      }
    }
    auto outcome = oracles::place_stage(ctx, working, alpha);
    if (!outcome.has_value() && max_parallelism_fallback > ctx.parallelism) {
      outcome = oracles::place_with_min_parallelism(
          ctx, working, alpha, ctx.parallelism + 1, max_parallelism_fallback);
    }
    if (!outcome.has_value()) return std::nullopt;
    working.consume_slots(outcome->placement);
    working.consume_traffic(ctx.upstream, outcome->placement, true);
    working.consume_traffic(ctx.downstream, outcome->placement, false);
    out.objective += outcome->objective;
    out.placements.emplace(op_id, std::move(outcome->placement));
  }
  return out;
}

[[nodiscard]] double relative_tolerance(double want) {
  return 1e-9 * std::max(1.0, std::abs(want));
}

TEST(SolverDeterminismTest, PaperScenariosPlaceIdenticallyToReference) {
  Rng rng(7);
  const net::Topology topo = net::Topology::make_paper_testbed(rng);
  const TopologyView view(topo);

  const Scheduler scheduler;  // direct solve + placement cache

  for (const Scenario& sc : paper_scenarios(topo)) {
    SCOPED_TRACE(sc.name);
    const auto rates = scenario_rates(sc);
    for (int p = 1; p <= 3; ++p) {
      SCOPED_TRACE("parallelism " + std::to_string(p));
      std::unordered_map<OperatorId, int> parallelism;
      for (std::size_t id = 0; id < sc.spec.plan.num_operators(); ++id) {
        parallelism[OperatorId(static_cast<std::int64_t>(id))] = p;
      }
      scheduler.begin_epoch();
      const auto got = place_plan(sc.spec.plan, rates, parallelism, view,
                                  scheduler, /*max_parallelism_fallback=*/4);
      const auto want =
          oracle_place_plan(sc.spec.plan, rates, parallelism, view,
                            scheduler.config().alpha,
                            /*max_parallelism_fallback=*/4);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (!got.has_value()) continue;
      EXPECT_NEAR(got->objective, want->objective,
                  relative_tolerance(want->objective));
      ASSERT_EQ(got->plan.num_stages(), want->placements.size());
      for (const Stage& stage : got->plan.stages()) {
        EXPECT_EQ(stage.placement, want->placements.at(stage.op))
            << "stage " << stage.id.value();
      }
    }
  }
}

TEST(SolverDeterminismTest, RepeatedEpochsAreSelfConsistent) {
  // Re-running the same epoch (now served from the cache) must reproduce the
  // first epoch's placements exactly.
  Rng rng(7);
  const net::Topology topo = net::Topology::make_paper_testbed(rng);
  const TopologyView view(topo);
  const Scheduler fast;

  for (const Scenario& sc : paper_scenarios(topo)) {
    SCOPED_TRACE(sc.name);
    const auto rates = scenario_rates(sc);
    fast.begin_epoch();
    const auto first = place_plan(sc.spec.plan, rates, {}, view, fast, 4);
    const auto again = place_plan(sc.spec.plan, rates, {}, view, fast, 4);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(first->objective, again->objective);
    for (std::size_t i = 0; i < first->plan.num_stages(); ++i) {
      EXPECT_EQ(first->plan.stages()[i].placement,
                again->plan.stages()[i].placement);
    }
  }
}

TEST(SolverDeterminismTest, RandomStageContextsMatchReference) {
  // Randomized per-stage sweep over a uniform clique: place_stage and the
  // place_with_min_parallelism scale-out search agree with the uncached
  // oracle on feasibility, placement, and objective.
  const net::Topology topo = net::Topology::make_uniform(6, 3, 50.0, 20.0);
  const TopologyView view(topo);
  const Scheduler scheduler;
  const double alpha = scheduler.config().alpha;

  Rng rng(20260806);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    StageContext ctx;
    ctx.parallelism = static_cast<int>(rng.uniform_int(1, 4));
    const int ups = static_cast<int>(rng.uniform_int(1, 3));
    for (int u = 0; u < ups; ++u) {
      ctx.upstream.push_back(TrafficEndpoint{
          SiteId(rng.uniform_int(0, 5)), rng.uniform(100.0, 20'000.0),
          rng.uniform(50.0, 400.0)});
    }
    if (rng.uniform() < 0.7) {
      ctx.downstream.push_back(TrafficEndpoint{
          SiteId(rng.uniform_int(0, 5)), rng.uniform(100.0, 10'000.0),
          rng.uniform(50.0, 400.0)});
    }
    scheduler.begin_epoch();
    const auto got = scheduler.place_stage(ctx, view);
    const auto want = oracles::place_stage(ctx, view, alpha);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      EXPECT_EQ(got->placement, want->placement);
      EXPECT_NEAR(got->objective, want->objective,
                  relative_tolerance(want->objective));
    }

    const auto got_scale =
        scheduler.place_with_min_parallelism(ctx, view, ctx.parallelism, 6);
    const auto want_scale = oracles::place_with_min_parallelism(
        ctx, view, alpha, ctx.parallelism, 6);
    ASSERT_EQ(got_scale.has_value(), want_scale.has_value());
    if (got_scale.has_value()) {
      EXPECT_EQ(got_scale->placement, want_scale->placement);
      EXPECT_NEAR(got_scale->objective, want_scale->objective,
                  relative_tolerance(want_scale->objective));
    }
  }
}

// A random network view for the fuzzer. With `tied` set, latencies come from
// three values only, so many sites share a cost exactly.
class FuzzView final : public NetworkView {
 public:
  FuzzView(std::size_t n, bool tied, Rng& rng)
      : n_(n), mbps_(n * n), latency_(n * n), slots_(n) {
    for (std::size_t i = 0; i < n * n; ++i) {
      // One link in twenty has no bandwidth left: a zero cap for its site.
      mbps_[i] = rng.uniform() < 0.05 ? 0.0 : rng.uniform(1.0, 200.0);
      latency_[i] = tied ? 10.0 * static_cast<double>(rng.uniform_int(1, 3))
                         : rng.uniform(1.0, 300.0);
    }
    for (int& s : slots_) s = static_cast<int>(rng.uniform_int(0, 4));
  }

  [[nodiscard]] std::size_t num_sites() const override { return n_; }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    return mbps_[index(from, to)];
  }
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    return latency_[index(from, to)];
  }
  [[nodiscard]] int available_slots(SiteId site) const override {
    return slots_[static_cast<std::size_t>(site.value())];
  }

 private:
  [[nodiscard]] std::size_t index(SiteId from, SiteId to) const {
    return static_cast<std::size_t>(from.value()) * n_ +
           static_cast<std::size_t>(to.value());
  }
  std::size_t n_;
  std::vector<double> mbps_;
  std::vector<double> latency_;
  std::vector<int> slots_;
};

TEST(SolverDeterminismTest, DirectSolveMatchesOracleOnFuzzedPrograms) {
  // Seeded differential test of the direct solve against the uncached
  // branch & bound oracle over programs at 2-64 sites: random and tied
  // costs, min_per_site floors (some above capacity, some summing past p),
  // max_per_site caps with -1 entries, excluded sites, zero-bandwidth caps
  // and Σ hi < p. Feasibility must agree, objectives must agree to 1e-9
  // relative, and placements must be equal when the site costs are pairwise
  // distinct (the optimum is then unique).
  constexpr int kTrials = 10'000;
  Scheduler scheduler;
  const double alpha = scheduler.config().alpha;
  Rng rng(20261020);
  int feasible = 0, infeasible = 0, built_infeasible = 0, distinct = 0;
  int tied_programs = 0, floored = 0, capped = 0, excluded = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE(trial);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 64));
    const auto last = static_cast<std::int64_t>(n) - 1;
    const FuzzView view(n, /*tied=*/rng.uniform() < 0.3, rng);

    StageContext ctx;
    ctx.parallelism = static_cast<int>(rng.uniform_int(1, 12));
    const int ups = static_cast<int>(rng.uniform_int(1, 3));
    for (int u = 0; u < ups; ++u) {
      ctx.upstream.push_back(TrafficEndpoint{SiteId(rng.uniform_int(0, last)),
                                             rng.uniform(100.0, 20'000.0),
                                             rng.uniform(50.0, 400.0)});
    }
    if (rng.uniform() < 0.5) {
      ctx.downstream.push_back(TrafficEndpoint{
          SiteId(rng.uniform_int(0, last)), rng.uniform(100.0, 10'000.0),
          rng.uniform(50.0, 400.0)});
    }
    if (rng.uniform() < 0.3) {
      ++floored;
      ctx.min_per_site.assign(n, 0);
      for (int k = static_cast<int>(rng.uniform_int(1, 3)); k > 0; --k) {
        ctx.min_per_site[static_cast<std::size_t>(rng.uniform_int(0, last))] =
            static_cast<int>(rng.uniform_int(1, 3));
      }
    }
    if (rng.uniform() < 0.3) {
      ++capped;
      ctx.max_per_site.resize(n);
      for (int& cap : ctx.max_per_site) {
        cap = static_cast<int>(rng.uniform_int(-1, 3));
      }
    }
    if (rng.uniform() < 0.2) {
      ++excluded;
      for (int k = static_cast<int>(rng.uniform_int(1, 3)); k > 0; --k) {
        ctx.excluded_sites.push_back(SiteId(rng.uniform_int(0, last)));
      }
    }

    scheduler.begin_epoch();
    const auto got = scheduler.place_stage(ctx, view);
    const auto program = build_placement_ilp(ctx, view, alpha, {});
    const auto want = program.has_value() ? oracles::solve_placement(*program)
                                          : std::nullopt;
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!program.has_value()) ++built_infeasible;
    if (!got.has_value()) {
      ++infeasible;
      continue;
    }
    ++feasible;
    EXPECT_NEAR(got->objective, want->objective,
                relative_tolerance(want->objective));
    EXPECT_EQ(got->placement.parallelism(), ctx.parallelism);
    // Distinct means apart by more than the relative tolerance: the oracle's
    // simplex treats costs an ulp apart (one weighted sum of tied latencies,
    // added up in another order) as equal and may pick either site.
    std::vector<double> costs = program->cost;
    std::sort(costs.begin(), costs.end());
    const auto near_tie = [](double a, double b) {
      return b - a <= relative_tolerance(b);
    };
    if (std::adjacent_find(costs.begin(), costs.end(), near_tie) ==
        costs.end()) {
      ++distinct;
      EXPECT_EQ(got->placement, want->placement);
    } else {
      ++tied_programs;
    }
  }
  // Every class of program above was actually drawn.
  EXPECT_GT(feasible, kTrials / 4);
  EXPECT_GT(infeasible - built_infeasible, 0);  // Σ hi < p or floors > p
  EXPECT_GT(built_infeasible, 0);               // a floor above its bound
  EXPECT_GT(distinct, 0);
  EXPECT_GT(tied_programs, 0);
  EXPECT_GT(floored, 0);
  EXPECT_GT(capped, 0);
  EXPECT_GT(excluded, 0);
}

}  // namespace
}  // namespace wasp::physical
