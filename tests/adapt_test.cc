// Unit tests for the adaptation layer: monitoring aggregation, the §3.3
// workload estimator, §3.2 health diagnosis, plan-cost estimation, and the
// Fig. 6 policy decisions (driven through a real engine on small topologies).
#include <gtest/gtest.h>

#include <memory>

#include "adapt/diagnosis.h"
#include "adapt/monitor.h"
#include "adapt/policy.h"
#include "engine/engine.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "physical/physical_plan.h"
#include "query/logical_plan.h"
#include "state/migration.h"

namespace wasp::adapt {
namespace {

using physical::PhysicalPlan;
using physical::StagePlacement;
using query::LogicalOperator;
using query::LogicalPlan;
using query::OperatorKind;

// Truthful view over a Network (tests want determinism, not probe noise).
class TruthView final : public physical::NetworkView {
 public:
  TruthView(net::Network& network, const engine::Engine* engine)
      : network_(network), engine_(engine) {}

  [[nodiscard]] std::size_t num_sites() const override {
    return network_.topology().num_sites();
  }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    return std::max(0.0, network_.capacity(from, to, 0.0) -
                             network_.link_allocated(from, to));
  }
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    return network_.latency_ms(from, to);
  }
  [[nodiscard]] int available_slots(SiteId site) const override {
    const auto s = static_cast<std::size_t>(site.value());
    int used = 0;
    if (engine_ != nullptr) used = engine_->slots_in_use()[s];
    return network_.topology().sites()[s].slots - used;
  }

 private:
  net::Network& network_;
  const engine::Engine* engine_;
};

// A 4-site fixture: src@0 -> map (placed) -> sink@3.
struct Fixture {
  Fixture(double bandwidth_mbps, double map_capacity_eps,
          bool stateful_map = true, int map_slots = 4)
      : network(net::Topology::make_uniform(4, map_slots, bandwidth_mbps, 20.0),
                std::make_shared<net::ConstantBandwidth>()) {
    LogicalOperator src;
    src.name = "src";
    src.kind = OperatorKind::kSource;
    src.output_event_bytes = 125.0;
    src.events_per_sec_per_slot = 1e6;
    src.pinned_sites = {SiteId(0)};
    src_id = plan.add_operator(std::move(src));

    LogicalOperator map;
    map.name = "map";
    map.kind = OperatorKind::kMap;
    map.output_event_bytes = 125.0;
    map.events_per_sec_per_slot = map_capacity_eps;
    if (stateful_map) map.state = query::StateSpec::fixed(32.0);
    map_id = plan.add_operator(std::move(map));

    LogicalOperator sink;
    sink.name = "sink";
    sink.kind = OperatorKind::kSink;
    sink.events_per_sec_per_slot = 1e6;
    sink.pinned_sites = {SiteId(3)};
    sink_id = plan.add_operator(std::move(sink));

    plan.connect(src_id, map_id);
    plan.connect(map_id, sink_id);

    physical.add_stage(src_id, StagePlacement{.per_site = {1, 0, 0, 0}});
    physical.add_stage(map_id, StagePlacement{.per_site = {0, 1, 0, 0}});
    physical.add_stage(sink_id, StagePlacement{.per_site = {0, 0, 0, 1}});

    engine = std::make_unique<engine::Engine>(plan, physical, network,
                                              engine::EngineConfig{});
  }

  void run(double from, double to, double rate, GlobalMetricMonitor* monitor) {
    for (double t = from + 1.0; t <= to + 1e-9; t += 1.0) {
      engine->set_source_rate(src_id, SiteId(0), rate);
      network.step(t, 1.0);
      engine->tick(t);
      if (monitor != nullptr) monitor->observe(*engine, t);
    }
  }

  AdaptationPolicy make_policy(AdaptationPolicy::Config config = {}) {
    return AdaptationPolicy(
        config, physical::Scheduler(), query::QueryPlanner(),
        state::MigrationPlanner(state::MigrationStrategy::kNetworkAware,
                                Rng(1)));
  }

  net::Network network;
  LogicalPlan plan;
  PhysicalPlan physical;
  OperatorId src_id, map_id, sink_id;
  std::unique_ptr<engine::Engine> engine;
};

// ---------------------------------------------------------------------------
// GlobalMetricMonitor
// ---------------------------------------------------------------------------

TEST(MonitorTest, AggregatesRatesOverWindow) {
  Fixture f(1000.0, 100'000.0);
  GlobalMetricMonitor monitor;
  f.run(0.0, 20.0, 10'000.0, &monitor);
  const auto stats = monitor.stats(f.map_id);
  EXPECT_EQ(stats.ticks, 20u);
  EXPECT_NEAR(stats.lambda_p, 10'000.0, 600.0);
  EXPECT_NEAR(stats.selectivity, 1.0, 0.01);
  EXPECT_EQ(stats.parallelism, 1);
  EXPECT_NEAR(monitor.actual_source_eps(f.src_id), 10'000.0, 1e-6);
}

TEST(MonitorTest, ResetClearsWindow) {
  Fixture f(1000.0, 100'000.0);
  GlobalMetricMonitor monitor;
  f.run(0.0, 5.0, 10'000.0, &monitor);
  EXPECT_TRUE(monitor.has_data());
  monitor.reset_window();
  EXPECT_FALSE(monitor.has_data());
  EXPECT_EQ(monitor.stats(f.map_id).ticks, 0u);
}

TEST(MonitorTest, EstimateActualRatesIgnoresBackpressure) {
  // Heavily network-constrained: observed rates collapse, but the §3.3
  // estimate must still report the true source workload through the plan.
  Fixture f(/*bandwidth=*/5.0, 100'000.0);
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  const auto rates = monitor.estimate_actual_rates(f.engine->logical());
  EXPECT_NEAR(rates.at(f.map_id).input_eps, 10'000.0, 1.0);
  EXPECT_LT(monitor.stats(f.map_id).lambda_i, 6'000.0);  // observed is lower
}

TEST(MonitorTest, EstimateUsesMeasuredSelectivity) {
  Fixture f(1000.0, 100'000.0);
  // Configured selectivity 1.0, but make the operator actually emit 0.5 by
  // reconfiguring before the engine starts.
  f.plan.mutable_op(f.map_id).selectivity = 0.5;
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  f.run(0.0, 20.0, 10'000.0, &monitor);
  const auto rates = monitor.estimate_actual_rates(f.engine->logical());
  EXPECT_NEAR(rates.at(f.map_id).output_eps, 5'000.0, 300.0);
}

// ---------------------------------------------------------------------------
// Diagnoser
// ---------------------------------------------------------------------------

TEST(DiagnoserTest, HealthyWhenRatesBalance) {
  Diagnoser diagnoser;
  OperatorWindowStats stats;
  stats.ticks = 40;
  stats.lambda_p = stats.lambda_i = 10'000.0;
  stats.lambda_o = 10'000.0;
  stats.parallelism = 1;
  const auto d = diagnoser.diagnose(stats, 10'000.0, 10'000.0, 50'000.0);
  EXPECT_EQ(d.health, Health::kHealthy);
}

TEST(DiagnoserTest, ComputeBottleneckWhenCapacityExceeded) {
  Diagnoser diagnoser;
  OperatorWindowStats stats;
  stats.ticks = 40;
  stats.lambda_p = 48'000.0;  // pinned at capacity
  stats.lambda_i = 50'000.0;
  stats.input_queue_growth_eps = 2'000.0;
  stats.parallelism = 1;
  const auto d = diagnoser.diagnose(stats, 100'000.0, 100'000.0, 50'000.0);
  EXPECT_EQ(d.health, Health::kComputeBottleneck);
  EXPECT_GT(d.severity, 1.5);
}

TEST(DiagnoserTest, StragglerIsComputeBottleneck) {
  // Nominal capacity claims headroom (50k for a 10k stream) but the
  // measured λ_P trails the expected input and the input queue piles up:
  // the tasks are slow, not the network.
  Diagnoser diagnoser;
  OperatorWindowStats stats;
  stats.ticks = 40;
  stats.lambda_p = 5'000.0;
  stats.lambda_i = 5'200.0;
  stats.input_queue_growth_eps = 4'000.0;
  stats.parallelism = 1;
  const auto d = diagnoser.diagnose(stats, 10'000.0, 10'000.0, 50'000.0);
  EXPECT_EQ(d.health, Health::kComputeBottleneck);
  EXPECT_GT(d.severity, 1.5);
}

TEST(PolicyTest, StragglerTriggersScaleUp) {
  // Engine-level straggler: the map's site runs at 10% speed. The policy
  // must react from the measured rates (nominal capacity still claims
  // headroom) and add tasks.
  Fixture f(1000.0, 50'000.0);
  f.engine->set_straggler(SiteId(1), 0.1);
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_TRUE(action.kind == ActionKind::kScaleUp ||
              action.kind == ActionKind::kScaleOut)
      << to_string(action.kind);
  EXPECT_GT(action.new_placement.parallelism(), 1);
}

TEST(DiagnoserTest, NetworkBottleneckWhenArrivalsLag) {
  Diagnoser diagnoser;
  OperatorWindowStats stats;
  stats.ticks = 40;
  stats.lambda_p = stats.lambda_i = 6'000.0;  // only 6k of 10k arrive
  stats.channel_backlog_growth_eps = 4'000.0;
  stats.channel_backlog_events = 80'000.0;
  stats.parallelism = 1;
  const auto d = diagnoser.diagnose(stats, 10'000.0, 10'000.0, 50'000.0);
  EXPECT_EQ(d.health, Health::kNetworkBottleneck);
}

TEST(DiagnoserTest, StandingBacklogIsNetworkBottleneck) {
  Diagnoser diagnoser;
  OperatorWindowStats stats;
  stats.ticks = 40;
  stats.lambda_p = stats.lambda_i = 10'000.0;  // rates balance...
  stats.channel_backlog_events = 50'000.0;     // ...but 5 s of data is stuck
  stats.channel_backlog_growth_eps = 0.0;
  stats.parallelism = 1;
  const auto d = diagnoser.diagnose(stats, 10'000.0, 10'000.0, 50'000.0);
  EXPECT_EQ(d.health, Health::kNetworkBottleneck);
}

TEST(DiagnoserTest, OverprovisionedWhenUtilizationLow) {
  Diagnoser diagnoser;
  OperatorWindowStats stats;
  stats.ticks = 40;
  stats.lambda_p = stats.lambda_i = 10'000.0;
  stats.parallelism = 4;  // 200k capacity for a 10k stream
  const auto d = diagnoser.diagnose(stats, 10'000.0, 10'000.0, 200'000.0);
  EXPECT_EQ(d.health, Health::kOverprovisioned);
  EXPECT_LT(d.severity, 0.1);
}

TEST(DiagnoserTest, SingleTaskIsNeverOverprovisioned) {
  Diagnoser diagnoser;
  OperatorWindowStats stats;
  stats.ticks = 40;
  stats.lambda_p = stats.lambda_i = 100.0;
  stats.parallelism = 1;
  const auto d = diagnoser.diagnose(stats, 100.0, 100.0, 50'000.0);
  EXPECT_EQ(d.health, Health::kHealthy);
}

TEST(DiagnoserTest, TransientSpikesAreFiltered) {
  // Deficit within tolerance and no queue growth: stay healthy (§7).
  Diagnoser diagnoser;
  OperatorWindowStats stats;
  stats.ticks = 40;
  stats.lambda_p = stats.lambda_i = 9'700.0;  // 3% off
  stats.parallelism = 1;
  const auto d = diagnoser.diagnose(stats, 10'000.0, 10'000.0, 50'000.0);
  EXPECT_EQ(d.health, Health::kHealthy);
}

TEST(DiagnoserTest, NoDataMeansHealthy) {
  Diagnoser diagnoser;
  const auto d = diagnoser.diagnose(OperatorWindowStats{}, 1e9, 1e9, 1.0);
  EXPECT_EQ(d.health, Health::kHealthy);
}

// ---------------------------------------------------------------------------
// Policy decisions (through real engine + monitor)
// ---------------------------------------------------------------------------

TEST(PolicyTest, NoActionWhenHealthy) {
  Fixture f(1000.0, 100'000.0);
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_EQ(action.kind, ActionKind::kNone);
}

TEST(PolicyTest, ComputeBottleneckScalesUpLocally) {
  // Map capacity 8k/slot vs a 20k stream; slots are free at the map's own
  // site, so the paper's policy scales up *within* the site.
  Fixture f(1000.0, 8'000.0);
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 20'000.0, &monitor);
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  ASSERT_EQ(action.kind, ActionKind::kScaleUp);
  EXPECT_EQ(action.op, f.map_id);
  EXPECT_GE(action.new_placement.parallelism(), 3);  // ceil(20k/8k) = 3
  // All tasks stay at the original site.
  EXPECT_EQ(action.new_placement.at(SiteId(1)),
            action.new_placement.parallelism());
  // Scale-up within the site: no cross-site state movement.
  EXPECT_TRUE(action.migration.moves.empty());
}

TEST(PolicyTest, ComputeBottleneckSpillsRemoteWhenSiteFull) {
  // Only 1 slot per site: the extra tasks must go to other sites (spare
  // slots exist at sites 0 and 2; the source at site 0 takes none), so the
  // DS2 target p' = 3 is reachable but only by spilling remote.
  Fixture f(1000.0, 8'000.0, true, /*map_slots=*/1);
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 20'000.0, &monitor);
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  ASSERT_EQ(action.kind, ActionKind::kScaleOut);
  EXPECT_EQ(action.new_placement.parallelism(), 3);
  // The original task must not move (min_per_site pins it).
  EXPECT_GE(action.new_placement.at(SiteId(1)), 1);
  // Splitting a stateful operator across sites moves state partitions.
  EXPECT_FALSE(action.migration.moves.empty());
}

TEST(PolicyTest, NetworkBottleneckReassignsStatefulStage) {
  // The map sits at site 1 behind a weak link; site 2 has a strong one.
  Fixture f(100.0, 100'000.0);
  // Weaken 0 -> 1 only.
  net::Topology topo = net::Topology::make_uniform(4, 4, 100.0, 20.0);
  topo.set_link(SiteId(0), SiteId(1), 6.0, 20.0);
  f.engine.reset();  // release flows before replacing the network
  f.network = net::Network(topo, std::make_shared<net::ConstantBandwidth>());
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  // 10k ev/s * 125 B = 10 Mbps > 6 Mbps into site 1.
  f.run(0.0, 40.0, 10'000.0, &monitor);
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  ASSERT_EQ(action.kind, ActionKind::kReassign);
  EXPECT_EQ(action.op, f.map_id);
  EXPECT_EQ(action.new_placement.parallelism(), 1);
  EXPECT_EQ(action.new_placement.at(SiteId(1)), 0);  // moved away
  EXPECT_FALSE(action.migration.moves.empty());      // stateful: must migrate
}

TEST(PolicyTest, NetworkBottleneckScalesOutWhenNoSingleLinkSuffices) {
  // Every link from site 0 is 7 Mbps; a 10 Mbps stream needs two of them.
  Fixture f(7.0, 100'000.0);
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  ASSERT_EQ(action.kind, ActionKind::kScaleOut);
  EXPECT_GE(action.new_placement.parallelism(), 2);
}

TEST(PolicyTest, MigrationOverheadAboveTmaxPrefersScaleOut) {
  // A re-assignment would work, but moving 3 GB over ~100 Mbps takes ~4 min
  // > t_max; the policy must partition instead (scale out).
  Fixture f(100.0, 100'000.0);
  net::Topology topo = net::Topology::make_uniform(4, 4, 100.0, 20.0);
  topo.set_link(SiteId(0), SiteId(1), 6.0, 20.0);
  f.engine.reset();  // release flows before replacing the network
  f.network = net::Network(topo, std::make_shared<net::ConstantBandwidth>());
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  f.engine->set_state_override_mb(f.map_id, 3000.0);
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  AdaptationPolicy::Config config;
  config.t_max_sec = 30.0;
  auto policy = f.make_policy(config);
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_EQ(action.kind, ActionKind::kScaleOut);
}

TEST(PolicyTest, DisabledTechniquesYieldNoAction) {
  Fixture f(7.0, 100'000.0);
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  AdaptationPolicy::Config config;
  config.allow_reassign = false;
  config.allow_scale = false;
  config.allow_replan = false;
  auto policy = f.make_policy(config);
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_EQ(action.kind, ActionKind::kNone);
}

TEST(PolicyTest, OverprovisionedStageScalesDownByOne) {
  Fixture f(1000.0, 100'000.0);
  f.physical.mutable_stage_for(f.map_id).placement =
      StagePlacement{.per_site = {0, 2, 2, 0}};
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 5'000.0, &monitor);  // 5k stream on 400k capacity
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  ASSERT_EQ(action.kind, ActionKind::kScaleDown);
  EXPECT_EQ(action.new_placement.parallelism(), 3);  // exactly one fewer
}

TEST(PolicyTest, ScaleDownKeepsWorkloadFeasible) {
  // Utilization is low but not absurd: scaling below 2 tasks would violate
  // capacity, so the policy may remove at most down to a feasible size.
  Fixture f(1000.0, 10'000.0);
  f.physical.mutable_stage_for(f.map_id).placement =
      StagePlacement{.per_site = {0, 2, 0, 0}};
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 15'000.0, &monitor);  // needs 1.5 tasks -> keep 2
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_EQ(action.kind, ActionKind::kNone);
}

TEST(PolicyTest, DecideAllHandlesMultipleBottlenecks) {
  // Two independent maps, both compute-constrained.
  Fixture f(1000.0, 8'000.0);
  // Add a second parallel branch: src -> map2 -> sink.
  LogicalOperator map2;
  map2.name = "map2";
  map2.kind = OperatorKind::kMap;
  map2.output_event_bytes = 125.0;
  map2.events_per_sec_per_slot = 8'000.0;
  const OperatorId map2_id = f.plan.add_operator(std::move(map2));
  f.plan.connect(f.src_id, map2_id);
  f.plan.connect(map2_id, f.sink_id);
  f.physical = PhysicalPlan{};
  f.physical.add_stage(f.src_id, StagePlacement{.per_site = {1, 0, 0, 0}});
  f.physical.add_stage(f.map_id, StagePlacement{.per_site = {0, 1, 0, 0}});
  f.physical.add_stage(map2_id, StagePlacement{.per_site = {0, 0, 1, 0}});
  f.physical.add_stage(f.sink_id, StagePlacement{.per_site = {0, 0, 0, 1}});
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 20'000.0, &monitor);
  auto policy = f.make_policy();
  const auto actions = policy.decide_all(
      *f.engine, monitor, TruthView(f.network, f.engine.get()), 3);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_NE(actions[0].op, actions[1].op);
}

TEST(PolicyTest, ReassignEscalatesAfterCooldownHit) {
  // A stage re-assigned within the cooldown that bottlenecks again must
  // escalate to scaling instead of churning through another re-assignment.
  Fixture f(100.0, 100'000.0);
  net::Topology topo = net::Topology::make_uniform(4, 4, 100.0, 20.0);
  topo.set_link(SiteId(0), SiteId(1), 6.0, 20.0);
  f.engine.reset();
  f.network = net::Network(topo, std::make_shared<net::ConstantBandwidth>());
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  auto policy = f.make_policy();
  policy.set_now(40.0);
  const auto first =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  ASSERT_EQ(first.kind, ActionKind::kReassign);
  // Pretend the re-assignment happened but the bottleneck persists (we do
  // not apply the placement); within the cooldown, decide again.
  policy.set_now(80.0);
  const auto second =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_NE(second.kind, ActionKind::kReassign);
}

TEST(PolicyTest, ReplanClearsStaleCooldowns) {
  // Regression: the per-operator grow cooldowns (last_grown_) are keyed by
  // operator id, but a re-plan renumbers operators. Without the
  // on_replan_applied remap a stale entry either sticks to an unrelated new
  // operator or lingers forever. After a re-plan where no operator matches,
  // the cooldown must be gone: the same bottleneck re-diagnosed later must
  // again yield a plain re-assignment, not an escalation.
  Fixture f(100.0, 100'000.0);
  net::Topology topo = net::Topology::make_uniform(4, 4, 100.0, 20.0);
  topo.set_link(SiteId(0), SiteId(1), 6.0, 20.0);
  f.engine.reset();
  f.network = net::Network(topo, std::make_shared<net::ConstantBandwidth>());
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  auto policy = f.make_policy();
  policy.set_now(40.0);
  const auto first =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  ASSERT_EQ(first.kind, ActionKind::kReassign);

  // A re-plan lands whose operators share no signature with the old plan
  // (signatures hash the source *names*, so renaming the source changes
  // every downstream signature too). All cooldowns must be dropped.
  LogicalPlan renamed = f.plan;
  renamed.mutable_op(f.src_id).name = "src_renamed";
  policy.on_replan_applied(f.plan, renamed);

  policy.set_now(80.0);
  const auto second =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_EQ(second.kind, ActionKind::kReassign)
      << "stale cooldown survived the re-plan";
}

TEST(PolicyTest, ReplanRemapsCooldownsForMatchingOperators) {
  // Counterpart to ReplanClearsStaleCooldowns: when the new plan contains
  // the same operator (matching signature), its cooldown must carry over so
  // the escalation behaviour is preserved.
  Fixture f(100.0, 100'000.0);
  net::Topology topo = net::Topology::make_uniform(4, 4, 100.0, 20.0);
  topo.set_link(SiteId(0), SiteId(1), 6.0, 20.0);
  f.engine.reset();
  f.network = net::Network(topo, std::make_shared<net::ConstantBandwidth>());
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  f.run(0.0, 40.0, 10'000.0, &monitor);
  auto policy = f.make_policy();
  policy.set_now(40.0);
  const auto first =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  ASSERT_EQ(first.kind, ActionKind::kReassign);

  // An identical re-plan: every operator matches itself.
  policy.on_replan_applied(f.plan, f.plan);

  policy.set_now(80.0);
  const auto second =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_NE(second.kind, ActionKind::kReassign)
      << "cooldown for a matching operator must survive the re-plan";
}

TEST(PolicyTest, ScaleDownSuppressedWhileBacklogged) {
  // An over-provisioned stage is left alone while a large source backlog
  // still needs the capacity.
  Fixture f(1000.0, 100'000.0);
  f.physical.mutable_stage_for(f.map_id).placement =
      StagePlacement{.per_site = {0, 2, 2, 0}};
  f.engine.reset();
  f.engine = std::make_unique<engine::Engine>(f.plan, f.physical, f.network,
                                              engine::EngineConfig{});
  GlobalMetricMonitor monitor;
  // Build a backlog by suspending briefly, then observe a low-rate window.
  f.engine->suspend_stage(f.map_id);
  f.run(0.0, 30.0, 20'000.0, nullptr);
  f.engine->resume_stage(f.map_id);
  // Freeze the backlog: rate drops and the suspended period left >5 s worth.
  GlobalMetricMonitor window;
  f.engine->suspend_stage(f.map_id);  // keep the backlog parked
  f.run(30.0, 70.0, 5'000.0, &window);
  ASSERT_GT(f.engine->source_backlog_events(), 5.0 * 5'000.0);
  auto policy = f.make_policy();
  policy.set_now(70.0);
  const auto action =
      policy.decide(*f.engine, window, TruthView(f.network, f.engine.get()));
  EXPECT_NE(action.kind, ActionKind::kScaleDown);
}

TEST(PolicyTest, NoDataNoAction) {
  Fixture f(1000.0, 100'000.0);
  GlobalMetricMonitor monitor;
  auto policy = f.make_policy();
  const auto action =
      policy.decide(*f.engine, monitor, TruthView(f.network, f.engine.get()));
  EXPECT_EQ(action.kind, ActionKind::kNone);
}

// ---------------------------------------------------------------------------
// Plan cost estimation
// ---------------------------------------------------------------------------

TEST(PlanCostTest, PenalizesOverloadedLinks) {
  Fixture f(1000.0, 100'000.0);
  const TruthView view(f.network, nullptr);
  const auto rates =
      f.plan.estimate_rates({{f.src_id, 10'000.0}});  // 10 Mbps edges
  const double ok_cost = estimate_plan_cost(f.plan, f.physical, rates, view,
                                            /*alpha=*/0.8);
  const auto rates_hot =
      f.plan.estimate_rates({{f.src_id, 10'000'000.0}});  // way over capacity
  const double hot_cost = estimate_plan_cost(f.plan, f.physical, rates_hot,
                                             view, 0.8);
  EXPECT_LT(ok_cost, 1e6);
  EXPECT_GT(hot_cost, 1e6);
}

TEST(PlanCostTest, CoLocationIsCheaperThanWanHops) {
  Fixture f(1000.0, 100'000.0);
  const TruthView view(f.network, nullptr);
  const auto rates = f.plan.estimate_rates({{f.src_id, 10'000.0}});
  const double spread = estimate_plan_cost(f.plan, f.physical, rates, view,
                                           0.8);
  PhysicalPlan colocated;
  colocated.add_stage(f.src_id, StagePlacement{.per_site = {1, 0, 0, 0}});
  colocated.add_stage(f.map_id, StagePlacement{.per_site = {1, 0, 0, 0}});
  colocated.add_stage(f.sink_id, StagePlacement{.per_site = {0, 0, 0, 1}});
  const double local = estimate_plan_cost(f.plan, colocated, rates, view,
                                          0.8);
  EXPECT_LT(local, spread);
}

}  // namespace
}  // namespace wasp::adapt
