// Hot-standby replication tests (DESIGN.md §12): background replica
// planning under domain anti-affinity, warm-up delta syncs, and the
// promotion fast path beating the re-plan path on the same seed.
#include "resilience/standby.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::resilience {
namespace {

struct Testbed {
  explicit Testbed(std::uint64_t seed = 7)
      : rng(seed),
        topology(net::Topology::make_paper_testbed(rng)),
        network(topology, std::make_shared<net::ConstantBandwidth>()) {
    for (const auto& site : topology.sites()) {
      if (site.type == net::SiteType::kEdge) {
        (east.size() <= west.size() ? east : west).push_back(site.id);
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
  std::vector<SiteId> east, west;
  SiteId sink;
};

SiteId task_hosting_dc(const runtime::WaspSystem& system) {
  const auto used = system.engine().slots_in_use();
  const SiteId coordinator = system.detector().coordinator();
  for (std::size_t s = 0; s < 8 && s < used.size(); ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    if (site != coordinator && used[s] > 0) return site;
  }
  return SiteId(-1);
}

TEST(StandbyTest, ReplicasPlacedInDistinctDomainsAndKeptWarm) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  config.standby_replicas = 1;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(100.0);

  const StandbyManager* standby = system.standby();
  ASSERT_NE(standby, nullptr);
  const auto replicas = standby->replicas();
  ASSERT_FALSE(replicas.empty()) << "no replicas planned by t=100";

  // Anti-affinity: a replica never shares a failure domain with any primary
  // site of its stage.
  for (const auto& [op, standby_site] : replicas) {
    const auto& placement = system.engine().placement(op);
    for (std::size_t s = 0; s < placement.per_site.size(); ++s) {
      if (placement.per_site[s] == 0) continue;
      const SiteId primary(static_cast<std::int64_t>(s));
      EXPECT_NE(bed.topology.domain_of(standby_site),
                bed.topology.domain_of(primary))
          << "replica of op " << op.value() << " at site "
          << standby_site.value() << " shares a domain with primary site "
          << primary.value();
    }
  }

  // Warm: at least one delta sync completed per sync interval elapsed is too
  // strict (flows take time), but by t=100 several must have finished, and
  // the replica's slots are reserved in the placement view.
  EXPECT_GT(standby->completed_syncs(), 0u);
  int reserved_total = 0;
  for (int r : standby->reserved_slots()) reserved_total += r;
  EXPECT_GT(reserved_total, 0);
}

TEST(StandbyTest, PromotionBeatsReplanOnSameSeed) {
  // Same seed, same fault, two runs: standby promotion must recover without
  // a re-plan for the victim and stabilize strictly faster than the
  // solver-backed recovery path.
  struct Outcome {
    double confirm_t = -1.0;
    double stabilized_t = -1.0;
    bool failover_for_victim = false;
    bool replan_for_victim = false;
    int victim_tasks_after = -1;
  };
  auto run = [](int standbys) {
    Testbed bed(7);
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    runtime::SystemConfig config;
    config.mode = runtime::AdaptationMode::kWasp;
    config.seed = 7;
    config.standby_replicas = standbys;
    runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(100.0);
    const SiteId victim = task_hosting_dc(system);
    EXPECT_TRUE(victim.valid());
    system.fail_sites({victim});
    system.run_until(400.0);

    Outcome out;
    for (const auto& e : system.recorder().recovery_events()) {
      if (e.site == victim.value() && e.kind == "confirm_failure" &&
          out.confirm_t < 0.0) {
        out.confirm_t = e.t;
      }
      if (e.kind == "stabilized" && out.stabilized_t < 0.0 &&
          out.confirm_t >= 0.0) {
        out.stabilized_t = e.t;
      }
      if (e.site == victim.value() && e.kind == "failover") {
        out.failover_for_victim = true;
      }
      if (e.site == victim.value() && e.kind == "replan") {
        out.replan_for_victim = true;
      }
    }
    out.victim_tasks_after =
        system.engine().slots_in_use()[static_cast<std::size_t>(
            victim.value())];
    return out;
  };

  const Outcome replan = run(0);
  const Outcome standby = run(1);

  // Replan-only baseline: recovery went through the solver.
  ASSERT_GT(replan.confirm_t, 0.0);
  ASSERT_GT(replan.stabilized_t, replan.confirm_t);
  EXPECT_TRUE(replan.replan_for_victim);
  EXPECT_FALSE(replan.failover_for_victim);
  EXPECT_EQ(replan.victim_tasks_after, 0);

  // Standby run: the stateful stage is promoted (stateless co-residents may
  // still ride the cheap re-plan path) and the first confirm -> stabilized
  // interval is strictly shorter on the same fault.
  ASSERT_GT(standby.confirm_t, 0.0);
  ASSERT_GT(standby.stabilized_t, standby.confirm_t);
  EXPECT_TRUE(standby.failover_for_victim);
  EXPECT_EQ(standby.victim_tasks_after, 0);
  EXPECT_LT(standby.stabilized_t - standby.confirm_t,
            replan.stabilized_t - replan.confirm_t)
      << "standby promotion did not stabilize faster than the re-plan path";
}

TEST(StandbyTest, ConsumedReplicaIsReplannedAtNextSyncBoundary) {
  // After a promotion consumes a replica, the manager plans a replacement in
  // the background (on a site that is still up and domain-disjoint).
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  config.standby_replicas = 1;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(100.0);
  const SiteId victim = task_hosting_dc(system);
  ASSERT_TRUE(victim.valid());
  const std::size_t replicas_before = system.standby()->num_replicas();
  ASSERT_GT(replicas_before, 0u);

  system.fail_sites({victim});
  system.run_until(400.0);

  bool promoted = false;
  for (const auto& e : system.recorder().recovery_events()) {
    if (e.kind == "failover" && e.site == victim.value()) promoted = true;
  }
  ASSERT_TRUE(promoted);
  // Replacement replicas exist again, and none sits on the dead site.
  EXPECT_GE(system.standby()->num_replicas(), replicas_before);
  for (const auto& [op, site] : system.standby()->replicas()) {
    EXPECT_NE(site, victim);
  }
}

TEST(StandbyTest, InFlightSyncIsNotAnOrphanedBulkFlow) {
  // A run stopped mid-sync leaves the sync's bulk flow in the network; it is
  // owned by the standby manager, so nothing is orphaned. A bulk flow that
  // nobody owns is.
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  config.standby_replicas = 1;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  for (int i = 0; i < 300 && system.standby()->inflight_sync_flows() == 0;
       ++i) {
    system.step();
  }
  ASSERT_GT(system.standby()->inflight_sync_flows(), 0u);
  ASSERT_GT(bed.network.num_bulk_flows(), 0u);
  EXPECT_EQ(system.orphaned_bulk_flows(), 0u);

  bed.network.add_bulk_flow(bed.east.front(), bed.sink, 100.0);
  EXPECT_EQ(system.orphaned_bulk_flows(), 1u);
}

}  // namespace
}  // namespace wasp::resilience
