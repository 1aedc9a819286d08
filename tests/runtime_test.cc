// Integration tests: the full WaspSystem control loop on the paper's
// testbed -- deployment, monitoring cadence, end-to-end adaptations,
// baselines, failures, and forced migrations. These are miniature versions
// of the paper's experiments with assertions on the expected shapes.
#include "runtime/wasp_system.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/recorder.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::runtime {
namespace {

struct Testbed {
  explicit Testbed(std::uint64_t seed = 7,
                   std::shared_ptr<const net::BandwidthModel> model = nullptr)
      : rng(seed),
        topology(net::Topology::make_paper_testbed(rng)),
        network(topology,
                model ? model : std::make_shared<net::ConstantBandwidth>()) {
    for (const auto& site : topology.sites()) {
      if (site.type == net::SiteType::kEdge) {
        (east.size() <= west.size() ? east : west).push_back(site.id);
        edges.push_back(site.id);
      } else if (!sink.valid()) {
        sink = site.id;
      }
    }
  }

  workload::QuerySpec topk() const {
    return workload::make_topk_topics(east, west, sink);
  }

  workload::SteppedWorkload uniform_rates(const workload::QuerySpec& spec,
                                          double eps_per_site) const {
    workload::SteppedWorkload pattern;
    for (OperatorId src : spec.sources) {
      for (SiteId s : spec.plan.op(src).pinned_sites) {
        pattern.set_base_rate(src, s, eps_per_site);
      }
    }
    return pattern;
  }

  Rng rng;
  net::Topology topology;
  net::Network network;
  std::vector<SiteId> east, west, edges;
  SiteId sink;
};

TEST(RecorderTest, ProcessedFractionNeverExceedsOneUnderRounding) {
  // 0.3 events generated in one tick and admitted as 0.1 + 0.2 over two:
  // the admitted sum rounds to 0.30000000000000004, above the generated 0.3.
  Recorder rec;
  rec.record_tick(1.0, 0.0, 1.0, 1.0, 0.0, /*generated=*/0.3,
                  /*admitted=*/0.1, /*dropped=*/0.0);
  rec.record_tick(2.0, 0.0, 1.0, 1.0, 0.0, /*generated=*/0.0,
                  /*admitted=*/0.2, /*dropped=*/0.0);
  ASSERT_GT(rec.total_processed() / rec.total_generated(), 1.0);
  EXPECT_EQ(rec.processed_fraction(), 1.0);
}

TEST(WaspSystemTest, DeploysAllStagesWithinSlotLimits) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  WaspSystem system(bed.network, std::move(spec), pattern, SystemConfig{});
  const auto& plan = system.engine().physical_plan();
  EXPECT_GT(plan.num_stages(), 5u);
  const auto used = system.engine().slots_in_use();
  for (std::size_t s = 0; s < used.size(); ++s) {
    EXPECT_LE(used[s], bed.topology.sites()[s].slots);
  }
}

TEST(WaspSystemTest, SteadyStateIsHealthy) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  WaspSystem system(bed.network, std::move(spec), pattern, SystemConfig{});
  system.run_until(200.0);
  EXPECT_NEAR(system.recorder().ratio().mean_over(100.0, 200.0), 1.0, 0.02);
  EXPECT_LT(system.recorder().delay().mean_over(100.0, 200.0), 2.0);
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
}

TEST(WaspSystemTest, StepAdvancesTime) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  WaspSystem system(bed.network, std::move(spec), pattern, SystemConfig{});
  EXPECT_DOUBLE_EQ(system.now(), 0.0);
  system.step();
  EXPECT_DOUBLE_EQ(system.now(), 1.0);
  system.run_until(10.0);
  EXPECT_DOUBLE_EQ(system.now(), 10.0);
}

TEST(WaspSystemTest, WaspAdaptsToWorkloadSurge) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.0);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(600.0);
  // Took at least one adaptation, kept all events, and recovered.
  EXPECT_FALSE(system.recorder().events().empty());
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
  EXPECT_LT(system.recorder().delay().mean_over(500.0, 600.0), 5.0);
}

TEST(WaspSystemTest, NoAdaptDivergesUnderSurge) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.0);
  SystemConfig config;
  config.mode = AdaptationMode::kNoAdapt;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(600.0);
  EXPECT_TRUE(system.recorder().events().empty());
  EXPECT_GT(system.recorder().delay().mean_over(500.0, 600.0), 10.0);
  EXPECT_LT(system.recorder().ratio().mean_over(200.0, 500.0), 0.99);
}

TEST(WaspSystemTest, DegradeBoundsDelayButDropsEvents) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.0);
  SystemConfig config;
  config.mode = AdaptationMode::kDegrade;
  config.slo_sec = 10.0;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(600.0);
  EXPECT_GT(system.recorder().total_dropped(), 0.0);
  EXPECT_LT(system.recorder().processed_fraction(), 0.99);
  // Bounded delay, far below the NoAdapt divergence.
  EXPECT_LT(system.recorder().delay().mean_over(400.0, 600.0), 60.0);
}

TEST(WaspSystemTest, WaspBeatsNoAdaptOnDelay) {
  auto run = [](AdaptationMode mode) {
    Testbed bed;
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.mode = mode;
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(600.0);
    return system.recorder().delay().mean_over(300.0, 600.0);
  };
  EXPECT_LT(10.0 * run(AdaptationMode::kWasp), run(AdaptationMode::kNoAdapt));
}

TEST(WaspSystemTest, RecoversFromFullFailure) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(100.0);
  system.fail_all_sites();
  system.run_until(160.0);
  // Dead: nothing processed.
  EXPECT_LT(system.recorder().ratio().mean_over(110.0, 160.0), 0.1);
  system.restore_all_sites();
  system.run_until(600.0);
  // Accumulated backlog is drained and the system re-stabilizes.
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
  EXPECT_LT(system.recorder().delay().mean_over(550.0, 600.0), 5.0);
}

TEST(WaspSystemTest, ScaleOnlyModeNeverReplans) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.5);
  SystemConfig config;
  config.mode = AdaptationMode::kScaleOnly;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(500.0);
  for (const auto& e : system.recorder().events()) {
    EXPECT_NE(e.kind, "re-plan");
  }
}

TEST(WaspSystemTest, ReassignOnlyModeKeepsParallelism) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.0);
  SystemConfig config;
  config.mode = AdaptationMode::kReassignOnly;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  const int initial = system.initial_total_tasks();
  system.run_until(500.0);
  EXPECT_EQ(system.engine().physical_plan().total_tasks(), initial);
  for (const auto& e : system.recorder().events()) {
    EXPECT_EQ(e.kind, "re-assign");
  }
}

TEST(WaspSystemTest, ForcedReassignMigratesStateAndRecords) {
  Testbed bed;
  auto spec = bed.topk();
  // Find the windowed aggregation (large state).
  OperatorId window_op;
  for (const auto& op : spec.plan.operators()) {
    if (op.kind == query::OperatorKind::kWindowAggregate) window_op = op.id;
  }
  ASSERT_TRUE(window_op.valid());
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kNoAdapt;  // only the forced action
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.mutable_engine().set_state_override_mb(window_op, 60.0);
  system.run_until(100.0);

  // Move the window task to a different data-center site.
  const auto current = system.engine().placement(window_op);
  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter &&
        current.at(site.id) == 0 && site.id != bed.sink) {
      target.per_site[static_cast<std::size_t>(site.id.value())] =
          current.parallelism();
      break;
    }
  }
  system.force_reassign(window_op, target);
  EXPECT_TRUE(system.transition_in_progress());
  system.run_until(300.0);
  EXPECT_FALSE(system.transition_in_progress());

  ASSERT_EQ(system.recorder().events().size(), 1u);
  const auto& event = system.recorder().events()[0];
  EXPECT_NEAR(event.migrated_mb, 60.0, 1.0);
  EXPECT_GT(event.transition_sec(), 0.0);
  EXPECT_EQ(system.engine().placement(window_op), target);
  // Execution resumed and is healthy again.
  EXPECT_NEAR(system.recorder().ratio().mean_over(250.0, 300.0), 1.0, 0.05);
}

TEST(WaspSystemTest, TransitionSuspendsOnlyAffectedStage) {
  Testbed bed;
  auto spec = bed.topk();
  OperatorId window_op;
  for (const auto& op : spec.plan.operators()) {
    if (op.kind == query::OperatorKind::kWindowAggregate) window_op = op.id;
  }
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kNoAdapt;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.mutable_engine().set_state_override_mb(window_op, 200.0);
  system.run_until(50.0);
  const auto current = system.engine().placement(window_op);
  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter && current.at(site.id) == 0) {
      target.per_site[static_cast<std::size_t>(site.id.value())] =
          current.parallelism();
      break;
    }
  }
  system.force_reassign(window_op, target);
  system.step();
  EXPECT_TRUE(system.engine().stage_suspended(window_op));
  // Sources keep running (only the migrated stage halts).
  for (OperatorId src : system.engine().logical().sources()) {
    EXPECT_FALSE(system.engine().stage_suspended(src));
  }
}

TEST(WaspSystemTest, StabilizationIsMeasuredAfterTransition) {
  Testbed bed;
  auto spec = bed.topk();
  OperatorId window_op;
  for (const auto& op : spec.plan.operators()) {
    if (op.kind == query::OperatorKind::kWindowAggregate) window_op = op.id;
  }
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kNoAdapt;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.mutable_engine().set_state_override_mb(window_op, 100.0);
  system.run_until(50.0);
  const auto current = system.engine().placement(window_op);
  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter && current.at(site.id) == 0) {
      target.per_site[static_cast<std::size_t>(site.id.value())] =
          current.parallelism();
      break;
    }
  }
  system.force_reassign(window_op, target);
  system.run_until(400.0);
  const auto& event = system.recorder().events().at(0);
  EXPECT_GE(event.stabilized_at, event.transition_end);
  EXPECT_GT(event.transition_sec(), 0.0);
}

TEST(WaspSystemTest, DeterministicGivenSeed) {
  auto run = [] {
    Testbed bed(13);
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.seed = 13;
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(400.0);
    return std::make_pair(system.recorder().delay().mean_over(0.0, 400.0),
                          system.recorder().events().size());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Regression (PR 7): the traced and untraced step paths share state updates
// but take different code routes (the network's per-step grouping vs its
// cached link groups; the engine's trace emission). Tracing must be a pure
// observer: every recorder metric and the final clock must match a same-seed
// untraced run bit-for-bit.
TEST(WaspSystemTest, TracingIsAPureObserver) {
  auto run = [](bool traced) {
    Testbed bed(13);
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.seed = 13;
    if (traced) {
      config.trace_sink = std::make_shared<obs::FileSink>(
          ::testing::TempDir() + "/traced_vs_untraced.jsonl");
    }
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(400.0);
    return std::make_tuple(system.now(), system.metrics().snapshot(),
                           system.recorder().events().size());
  };
  const auto untraced = run(false);
  const auto traced = run(true);
  EXPECT_EQ(std::get<0>(untraced), std::get<0>(traced));
  EXPECT_EQ(std::get<2>(untraced), std::get<2>(traced));
  const auto& mu = std::get<1>(untraced);
  const auto& mt = std::get<1>(traced);
  ASSERT_EQ(mu.size(), mt.size());
  for (std::size_t i = 0; i < mu.size(); ++i) {
    EXPECT_EQ(mu[i].first, mt[i].first);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mu[i].second),
              std::bit_cast<std::uint64_t>(mt[i].second))
        << mu[i].first << ": " << mu[i].second << " vs " << mt[i].second;
  }
}

// The intra-run worker count is a pure throughput knob: chunk boundaries are
// layout constants and every reduction is a serial fixed-order combine, so
// --threads N must not change a single bit of any metric.
TEST(WaspSystemTest, ThreadCountCannotChangeAnyMetricBit) {
  auto run = [](int threads) {
    Testbed bed(13);
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.seed = 13;
    config.threads = threads;
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(300.0);
    return std::make_pair(system.metrics().snapshot(),
                          system.recorder().events().size());
  };
  const auto serial = run(1);
  for (int threads : {2, 4}) {
    const auto parallel = run(threads);
    EXPECT_EQ(serial.second, parallel.second) << "threads=" << threads;
    ASSERT_EQ(serial.first.size(), parallel.first.size());
    for (std::size_t i = 0; i < serial.first.size(); ++i) {
      EXPECT_EQ(serial.first[i].first, parallel.first[i].first);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.first[i].second),
                std::bit_cast<std::uint64_t>(parallel.first[i].second))
          << "threads=" << threads << " metric " << serial.first[i].first;
    }
  }
}

TEST(WaspSystemTest, StatelessQueryDeploysAndAdapts) {
  Testbed bed;
  auto spec = workload::make_events_of_interest(bed.edges, bed.sink);
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.5);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(500.0);
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
  EXPECT_LT(system.recorder().delay().mean_over(400.0, 500.0), 5.0);
}

TEST(WaspSystemTest, YsbQueryRunsHealthy) {
  Testbed bed;
  auto spec = workload::make_ysb_campaign(bed.edges, bed.sink);
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  WaspSystem system(bed.network, std::move(spec), pattern, SystemConfig{});
  system.run_until(200.0);
  EXPECT_NEAR(system.recorder().ratio().mean_over(100.0, 200.0), 1.0, 0.02);
}

TEST(WaspSystemTest, HybridBoundsDelayAndAdapts) {
  // §7: degrade as a stopgap while the re-optimization works. Hybrid must
  // (a) adapt like WASP, (b) keep the delay bounded through the transition
  // like Degrade, (c) lose far fewer events than pure Degrade.
  auto run = [](AdaptationMode mode) {
    Testbed bed;
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.5);
    SystemConfig config;
    config.mode = mode;
    config.slo_sec = 10.0;
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(700.0);
    struct Result {
      double peak;
      double dropped;
      std::size_t adaptations;
    } r{0.0, system.recorder().total_dropped(),
        system.recorder().events().size()};
    for (const auto& [t, v] : system.recorder().delay().points()) {
      r.peak = std::max(r.peak, v);
    }
    return r;
  };
  const auto hybrid = run(AdaptationMode::kHybrid);
  const auto degrade = run(AdaptationMode::kDegrade);
  const auto wasp = run(AdaptationMode::kWasp);
  EXPECT_GT(hybrid.adaptations, 0u);
  // Bounded through transitions: strictly better peak than pure WASP.
  EXPECT_LE(hybrid.peak, wasp.peak + 1e-9);
  EXPECT_LT(hybrid.peak, 60.0);
  // Far fewer losses than pure degradation (which sheds forever).
  if (degrade.dropped > 0.0) {
    EXPECT_LT(hybrid.dropped, degrade.dropped);
  }
}

TEST(WaspSystemTest, BackgroundReplanFollowsWorkloadShift) {
  // §6.2 long-term dynamics: with background re-evaluation enabled, a slow
  // workload shift triggers a re-plan even though no acute bottleneck is
  // ever diagnosed.
  Testbed bed;
  std::vector<SiteId> dc_sites;
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter) dc_sites.push_back(site.id);
  }
  auto spec = workload::make_four_source_join(dc_sites, bed.sink,
                                              /*stateful_joins=*/false);
  workload::SteppedWorkload pattern;
  // Initially stream-a dominates; later stream-d does: the optimal join
  // order flips.
  pattern.set_base_rate(spec.sources[0],
                        spec.plan.op(spec.sources[0]).pinned_sites[0],
                        20'000.0);
  for (int i = 1; i < 4; ++i) {
    pattern.set_base_rate(spec.sources[static_cast<std::size_t>(i)],
                          spec.plan.op(spec.sources[static_cast<std::size_t>(i)])
                              .pinned_sites[0],
                          2'000.0);
  }
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  config.background_replan_interval_sec = 120.0;
  // A meaningful improvement bar so the background re-plan only fires on a
  // real shift.
  config.policy.replan_improvement = 0.8;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(1200.0);
  // The run must stay healthy regardless of whether a background re-plan
  // fired (it depends on the plan-space economics for this topology).
  EXPECT_NEAR(system.recorder().ratio().mean_over(900.0, 1200.0), 1.0, 0.05);
}

TEST(WaspSystemTest, BackgroundReplanDisabledByDefault) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(400.0);
  // A steady workload with the default config must not churn plans.
  for (const auto& e : system.recorder().events()) {
    EXPECT_NE(e.reason.find("background"), 0u);
  }
}

TEST(WaspSystemTest, JoinQueryCanReplan) {
  Testbed bed;
  std::vector<SiteId> dc_sites;
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter) dc_sites.push_back(site.id);
  }
  auto spec = workload::make_four_source_join(dc_sites, bed.sink,
                                              /*stateful_joins=*/false);
  workload::SteppedWorkload pattern;
  // Asymmetric rates make some join orders much cheaper than others.
  double rate = 4'000.0;
  for (OperatorId src : spec.sources) {
    pattern.set_base_rate(src, spec.plan.op(src).pinned_sites[0], rate);
    rate *= 2.0;
  }
  SystemConfig config;
  config.mode = AdaptationMode::kReplanOnly;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(300.0);
  // Regardless of whether a re-plan fired, the query must be running.
  EXPECT_GT(system.recorder().ratio().mean_over(200.0, 300.0), 0.5);
}

}  // namespace
}  // namespace wasp::runtime
