// Unit and property tests for the WAN substrate: topology, bandwidth models,
// flow allocation (max-min fairness), bulk transfers, and the WAN monitor.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/trace_io.h"
#include "net/wan_monitor.h"
#include "obs/trace.h"

namespace wasp::net {
namespace {

Network make_net(int n, int slots, double bw, double lat,
                 std::shared_ptr<const BandwidthModel> model = nullptr) {
  if (model == nullptr) model = std::make_shared<ConstantBandwidth>();
  return Network(Topology::make_uniform(n, slots, bw, lat), std::move(model));
}

TEST(TopologyTest, UniformCliqueProperties) {
  Topology topo = Topology::make_uniform(4, 2, 100.0, 50.0);
  EXPECT_EQ(topo.num_sites(), 4u);
  EXPECT_EQ(topo.total_slots(), 8);
  EXPECT_DOUBLE_EQ(topo.base_bandwidth(SiteId(0), SiteId(1)), 100.0);
  EXPECT_DOUBLE_EQ(topo.latency_ms(SiteId(2), SiteId(3)), 50.0);
}

TEST(TopologyTest, LocalLinksAreUnconstrained) {
  Topology topo = Topology::make_uniform(2, 1, 10.0, 100.0);
  EXPECT_GE(topo.base_bandwidth(SiteId(0), SiteId(0)), 1e5);
  EXPECT_LT(topo.latency_ms(SiteId(1), SiteId(1)), 1.0);
}

TEST(TopologyTest, PaperTestbedShape) {
  Rng rng(1);
  Topology topo = Topology::make_paper_testbed(rng);
  ASSERT_EQ(topo.num_sites(), 16u);
  int edges = 0, dcs = 0;
  for (const auto& site : topo.sites()) {
    if (site.type == SiteType::kEdge) {
      ++edges;
      EXPECT_GE(site.slots, 2);
      EXPECT_LE(site.slots, 4);
    } else {
      ++dcs;
      EXPECT_EQ(site.slots, 8);
    }
  }
  EXPECT_EQ(edges, 8);
  EXPECT_EQ(dcs, 8);
}

TEST(TopologyTest, PaperTestbedBandwidthRanges) {
  Rng rng(2);
  Topology topo = Topology::make_paper_testbed(rng);
  for (const auto& a : topo.sites()) {
    for (const auto& b : topo.sites()) {
      if (a.id == b.id) continue;
      const double bw = topo.base_bandwidth(a.id, b.id);
      if (a.type == SiteType::kDataCenter && b.type == SiteType::kDataCenter) {
        EXPECT_GE(bw, 25.0);
        EXPECT_LE(bw, 250.0);
      } else {
        // Any link touching an edge rides the public Internet (Fig. 7a
        // calibration).
        EXPECT_GE(bw, 5.0);
        EXPECT_LE(bw, 60.0);
      }
      EXPECT_GT(topo.latency_ms(a.id, b.id), 0.0);
    }
  }
}

TEST(TopologyTest, PaperTestbedIsDeterministicPerSeed) {
  Rng a(3), b(3), c(4);
  Topology ta = Topology::make_paper_testbed(a);
  Topology tb = Topology::make_paper_testbed(b);
  Topology tc = Topology::make_paper_testbed(c);
  EXPECT_DOUBLE_EQ(ta.base_bandwidth(SiteId(0), SiteId(5)),
                   tb.base_bandwidth(SiteId(0), SiteId(5)));
  EXPECT_NE(ta.base_bandwidth(SiteId(0), SiteId(5)),
            tc.base_bandwidth(SiteId(0), SiteId(5)));
}

TEST(BandwidthModelTest, SteppedScheduleApplies) {
  SteppedBandwidth model({{900.0, 0.5}, {1200.0, 1.0}});
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 899.9), 1.0);
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 900.0), 0.5);
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 1199.0), 0.5);
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 1500.0), 1.0);
}

TEST(BandwidthModelTest, RandomWalkStaysInRange) {
  Rng rng(5);
  RandomWalkBandwidth::Config cfg;
  cfg.horizon_sec = 3600.0;
  cfg.min_factor = 0.51;
  cfg.max_factor = 2.36;
  RandomWalkBandwidth model(4, cfg, rng);
  for (double t = 0.0; t < 3600.0; t += 60.0) {
    const double f = model.factor(SiteId(0), SiteId(1), t);
    EXPECT_GE(f, 0.51);
    EXPECT_LE(f, 2.36);
  }
}

TEST(BandwidthModelTest, RandomWalkVariesOverTime) {
  Rng rng(6);
  RandomWalkBandwidth::Config cfg;
  cfg.horizon_sec = 86400.0;
  cfg.period_sec = 1800.0;
  cfg.min_factor = 0.25;
  cfg.max_factor = 1.6;
  RandomWalkBandwidth model(2, cfg, rng);
  const auto& series = model.link_series(SiteId(0), SiteId(1));
  RunningStats stats;
  for (double f : series) stats.add(f);
  // Fig. 2: substantial deviation from the mean.
  EXPECT_GT(stats.stddev() / stats.mean(), 0.1);
}

TEST(BandwidthModelTest, ComposedMultiplies) {
  auto steps = std::make_shared<SteppedBandwidth>(
      std::vector<std::pair<double, double>>{{10.0, 0.5}});
  auto constant = std::make_shared<ConstantBandwidth>();
  ComposedBandwidth composed(steps, constant);
  EXPECT_DOUBLE_EQ(composed.factor(SiteId(0), SiteId(1), 20.0), 0.5);
}

TEST(NetworkTest, CapacityAppliesModelFactor) {
  auto model = std::make_shared<SteppedBandwidth>(
      std::vector<std::pair<double, double>>{{100.0, 0.5}});
  Network net = make_net(2, 1, 80.0, 10.0, model);
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 0.0), 80.0);
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 150.0), 40.0);
}

TEST(NetworkTest, SingleStreamFlowGetsItsDemand) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(f, 30.0);
  net.step(0.0, 1.0);
  EXPECT_DOUBLE_EQ(net.flow(f).allocated_mbps, 30.0);
}

TEST(NetworkTest, StreamFlowCappedAtCapacity) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(f, 200.0);
  net.step(0.0, 1.0);
  EXPECT_NEAR(net.flow(f).allocated_mbps, 80.0, 1e-9);
}

TEST(NetworkTest, MaxMinFairnessSatisfiesSmallFlowsFirst) {
  Network net = make_net(2, 1, 90.0, 10.0);
  const FlowId small = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId big1 = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId big2 = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(small, 10.0);
  net.set_stream_demand(big1, 100.0);
  net.set_stream_demand(big2, 100.0);
  net.step(0.0, 1.0);
  EXPECT_NEAR(net.flow(small).allocated_mbps, 10.0, 1e-9);
  EXPECT_NEAR(net.flow(big1).allocated_mbps, 40.0, 1e-9);
  EXPECT_NEAR(net.flow(big2).allocated_mbps, 40.0, 1e-9);
}

TEST(NetworkTest, FlowsOnDifferentLinksDoNotInteract) {
  Network net = make_net(3, 1, 50.0, 10.0);
  const FlowId a = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId b = net.add_stream_flow(SiteId(0), SiteId(2));
  net.set_stream_demand(a, 50.0);
  net.set_stream_demand(b, 50.0);
  net.step(0.0, 1.0);
  EXPECT_NEAR(net.flow(a).allocated_mbps, 50.0, 1e-9);
  EXPECT_NEAR(net.flow(b).allocated_mbps, 50.0, 1e-9);
}

TEST(NetworkTest, LocalFlowsBypassLinkCapacity) {
  Network net = make_net(2, 1, 10.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(0));
  net.set_stream_demand(f, 500.0);
  net.step(0.0, 1.0);
  EXPECT_DOUBLE_EQ(net.flow(f).allocated_mbps, 500.0);
}

TEST(NetworkTest, BulkTransferCompletesAtLinkRate) {
  Network net = make_net(2, 1, 80.0, 10.0);  // 80 Mbps = 10 MB/s
  const FlowId f = net.add_bulk_flow(SiteId(0), SiteId(1), 100.0);
  double t = 0.0;
  int ticks = 0;
  while (!net.flow(f).done && ticks < 100) {
    net.step(t, 1.0);
    t += 1.0;
    ++ticks;
  }
  EXPECT_EQ(ticks, 10);  // 100 MB at 10 MB/s
}

TEST(NetworkTest, BulkTransferCompetesWithStreams) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId stream = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId bulk = net.add_bulk_flow(SiteId(0), SiteId(1), 100.0);
  net.set_stream_demand(stream, 30.0);
  net.step(0.0, 1.0);
  // Stream (bounded demand 30) satisfied; bulk takes the remaining 50.
  EXPECT_NEAR(net.flow(stream).allocated_mbps, 30.0, 1e-9);
  EXPECT_NEAR(net.flow(bulk).allocated_mbps, 50.0, 1e-9);
}

TEST(NetworkTest, TwoBulkFlowsShareEvenly) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId a = net.add_bulk_flow(SiteId(0), SiteId(1), 1000.0);
  const FlowId b = net.add_bulk_flow(SiteId(0), SiteId(1), 1000.0);
  net.step(0.0, 1.0);
  EXPECT_NEAR(net.flow(a).allocated_mbps, 40.0, 1e-9);
  EXPECT_NEAR(net.flow(b).allocated_mbps, 40.0, 1e-9);
}

TEST(NetworkTest, CompletedBulkFlowFreesCapacity) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId bulk = net.add_bulk_flow(SiteId(0), SiteId(1), 5.0);  // ~0.5 s
  const FlowId stream = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(stream, 80.0);
  net.step(0.0, 1.0);
  EXPECT_TRUE(net.flow(bulk).done);
  net.step(1.0, 1.0);
  EXPECT_NEAR(net.flow(stream).allocated_mbps, 80.0, 1e-9);
}

TEST(NetworkTest, PartitionedLinkZeroesCapacityAndStallsFlows) {
  Network net = make_net(3, 1, 80.0, 10.0);
  const FlowId f = net.add_bulk_flow(SiteId(0), SiteId(1), 1000.0);
  net.step(0.0, 1.0);
  EXPECT_GT(net.flow(f).allocated_mbps, 0.0);

  net.set_link_partitioned(SiteId(0), SiteId(1), true);
  EXPECT_TRUE(net.link_partitioned(SiteId(0), SiteId(1)));
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 1.0), 0.0);
  // Partitions are directed: the reverse direction and unrelated links
  // keep their capacity (this is what distinguishes a partition from a
  // whole-site crash).
  EXPECT_GT(net.capacity(SiteId(1), SiteId(0), 1.0), 0.0);
  EXPECT_GT(net.capacity(SiteId(0), SiteId(2), 1.0), 0.0);

  net.step(1.0, 1.0);
  EXPECT_DOUBLE_EQ(net.flow(f).allocated_mbps, 0.0);
  EXPECT_FALSE(net.flow(f).done);

  net.set_link_partitioned(SiteId(0), SiteId(1), false);
  net.step(2.0, 1.0);
  EXPECT_GT(net.flow(f).allocated_mbps, 0.0);
}

TEST(NetworkTest, SiteDownStallsEveryFlowTouchingIt) {
  Network net = make_net(3, 1, 80.0, 10.0);
  const FlowId in = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId out = net.add_stream_flow(SiteId(1), SiteId(2));
  const FlowId local = net.add_stream_flow(SiteId(1), SiteId(1));
  const FlowId other = net.add_stream_flow(SiteId(0), SiteId(2));
  for (FlowId f : {in, out, local, other}) net.set_stream_demand(f, 10.0);

  net.set_site_down(SiteId(1), true);
  EXPECT_TRUE(net.site_down(SiteId(1)));
  net.step(0.0, 1.0);
  EXPECT_DOUBLE_EQ(net.flow(in).allocated_mbps, 0.0);
  EXPECT_DOUBLE_EQ(net.flow(out).allocated_mbps, 0.0);
  EXPECT_DOUBLE_EQ(net.flow(local).allocated_mbps, 0.0);
  EXPECT_NEAR(net.flow(other).allocated_mbps, 10.0, 1e-9);

  net.set_site_down(SiteId(1), false);
  net.step(1.0, 1.0);
  EXPECT_NEAR(net.flow(in).allocated_mbps, 10.0, 1e-9);
}

TEST(NetworkTest, NumBulkFlowsTracksOutstandingTransfers) {
  Network net = make_net(2, 1, 80.0, 10.0);
  EXPECT_EQ(net.num_bulk_flows(), 0u);
  const FlowId a = net.add_bulk_flow(SiteId(0), SiteId(1), 1000.0);
  net.add_stream_flow(SiteId(0), SiteId(1));  // streams never count
  EXPECT_EQ(net.num_bulk_flows(), 1u);
  net.remove_flow(a);
  EXPECT_EQ(net.num_bulk_flows(), 0u);
}

// The closed form of a one-flow row against the general progressive fill,
// bit for bit: capacities around the 1e-12 cutoff, zero and boundary
// demands, finished and unfinished bulk flows.
TEST(NetworkTest, OneFlowShareMatchesWaterfillBitForBit) {
  Rng rng(20261018);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    const double capacity = u < 0.1    ? 0.0
                            : u < 0.2  ? 1e-12
                            : u < 0.3  ? rng.uniform(0.0, 3e-12)
                            : u < 0.35 ? std::nextafter(1e-12, 1.0)
                                       : rng.uniform(0.0, 500.0);
    Flow f;
    f.kind = rng.uniform() < 0.5 ? FlowKind::kStream : FlowKind::kBulk;
    if (f.kind == FlowKind::kStream) {
      const double d = rng.uniform();
      Network::set_stream_demand(f, d < 0.15   ? 0.0
                                    : d < 0.3  ? capacity
                                    : d < 0.35 ? -rng.uniform(0.0, 5.0)
                                               : rng.uniform(0.0, 2.0 * capacity));
    } else {
      f.remaining_mb = rng.uniform(0.0, 100.0);
      f.done = rng.uniform() < 0.3;
    }
    f.allocated_mbps = rng.uniform(0.0, 100.0);  // last tick's; overwritten

    // What the row fill does with a one-flow row on the general path.
    std::vector<Flow> table{f};
    if (f.kind == FlowKind::kBulk && f.done) {
      table[0].allocated_mbps = 0.0;
    } else {
      FlowSlot active[] = {0};
      Network::waterfill(table.data(), active, capacity);
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(Network::one_flow_share(f, capacity)),
              std::bit_cast<std::uint64_t>(table[0].allocated_mbps))
        << "capacity " << capacity << " demand " << f.demand_mbps << " bulk "
        << (f.kind == FlowKind::kBulk) << " done " << f.done;
  }
}

TEST(NetworkTest, RowsListFlowsByIdAfterSlotReuse) {
  Network net = make_net(3, 1, 100.0, 10.0);
  const FlowId a = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId b = net.add_stream_flow(SiteId(0), SiteId(2));
  const FlowId c = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId d = net.add_bulk_flow(SiteId(0), SiteId(1), 50.0);
  const FlowSlot slot_a = net.flow_slot(a);
  const FlowSlot slot_b = net.flow_slot(b);
  net.step(1.0, 1.0);
  net.remove_flow(a);
  net.remove_flow(b);
  // The freed slots are reused (last freed first) by newer ids, so slot
  // order now disagrees with id order.
  const FlowId e = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId f = net.add_bulk_flow(SiteId(0), SiteId(1), 50.0);
  EXPECT_EQ(net.flow_slot(e), slot_b);
  EXPECT_EQ(net.flow_slot(f), slot_a);
  EXPECT_EQ(net.num_flows(), 4u);
  EXPECT_FALSE(net.has_flow(a));
  EXPECT_FALSE(net.has_flow(b));

  const std::span<const FlowSlot> row = net.link_flows(
      net.link_id(SiteId(0), SiteId(1)));
  std::vector<FlowId> ids;
  for (const FlowSlot s : row) ids.push_back(net.flow_table()[s].id);
  EXPECT_EQ(ids, (std::vector<FlowId>{c, d, e, f}));
  EXPECT_EQ(net.link_id(SiteId(0), SiteId(2)), -1);  // b's row was freed

  // The two bulk transfers split what the idle streams leave.
  net.step(2.0, 1.0);
  EXPECT_EQ(net.flow(d).allocated_mbps, 50.0);
  EXPECT_EQ(net.flow(f).allocated_mbps, 50.0);
}

TEST(NetworkTest, FlowCountsStayRightUnderChurn) {
  Rng rng(42);
  Network net = make_net(4, 1, 50.0, 10.0);
  std::vector<FlowId> live;
  double t = 0.0;
  for (int op = 0; op < 4000; ++op) {
    const double u = rng.uniform();
    const SiteId from(rng.uniform_int(0, 3));
    const SiteId to(rng.uniform_int(0, 3));
    if (u < 0.4) {
      live.push_back(net.add_stream_flow(from, to));
      net.set_stream_demand(live.back(), rng.uniform(0.0, 30.0));
    } else if (u < 0.6) {
      // Some sizes are 0: done on arrival.
      live.push_back(net.add_bulk_flow(from, to, rng.uniform(-5.0, 40.0)));
    } else if (u < 0.95) {
      if (live.empty()) continue;
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const FlowId gone = live[k];
      net.remove_flow(gone);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      ASSERT_FALSE(net.has_flow(gone));
      net.remove_flow(gone);  // a second remove is a no-op
    } else {
      net.step(t, 1.0);
      t += 1.0;
    }
    std::size_t bulk = 0;
    for (const FlowId id : live) {
      ASSERT_TRUE(net.has_flow(id));
      ASSERT_EQ(net.flow(id).id, id);
      const Flow& f = net.flow(id);
      bulk += f.kind == FlowKind::kBulk && !f.done ? 1 : 0;
    }
    ASSERT_EQ(net.num_flows(), live.size()) << "op " << op;
    ASSERT_EQ(net.num_bulk_flows(), bulk) << "op " << op;
  }
}

TEST(NetworkTest, RemoveFlowStopsAccounting) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(f, 10.0);
  net.step(0.0, 1.0);
  EXPECT_GT(net.link_allocated(SiteId(0), SiteId(1)), 0.0);
  net.remove_flow(f);
  EXPECT_FALSE(net.has_flow(f));
  net.step(1.0, 1.0);
  EXPECT_DOUBLE_EQ(net.link_allocated(SiteId(0), SiteId(1)), 0.0);
}

// Property: waterfilling never exceeds capacity and never over-allocates a
// stream beyond its demand.
class NetworkFairnessProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(NetworkFairnessProperty, AllocationIsFeasibleAndDemandBounded) {
  Rng rng(GetParam());
  const double capacity = rng.uniform(10.0, 200.0);
  Network net = make_net(2, 1, capacity, 10.0);
  const int flows = static_cast<int>(rng.uniform_int(1, 8));
  std::vector<FlowId> ids;
  std::vector<double> demands;
  double bulk_count = 0.0;
  for (int i = 0; i < flows; ++i) {
    if (rng.uniform() < 0.3) {
      ids.push_back(net.add_bulk_flow(SiteId(0), SiteId(1), 1e6));
      demands.push_back(-1.0);
      bulk_count += 1.0;
    } else {
      const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
      const double d = rng.uniform(0.0, capacity);
      net.set_stream_demand(f, d);
      ids.push_back(f);
      demands.push_back(d);
    }
  }
  net.step(0.0, 1.0);
  double total = 0.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double a = net.flow(ids[i]).allocated_mbps;
    EXPECT_GE(a, -1e-9);
    if (demands[i] >= 0.0) EXPECT_LE(a, demands[i] + 1e-9);
    total += a;
  }
  EXPECT_LE(total, capacity + 1e-6);
  // Work-conserving: if total demand exceeds capacity (or any bulk flow is
  // present), the link is fully used.
  double total_demand = 0.0;
  for (double d : demands) total_demand += d >= 0.0 ? d : 1e18;
  if (total_demand >= capacity) EXPECT_NEAR(total, capacity, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomFlowSets, NetworkFairnessProperty,
                         ::testing::Range<std::uint64_t>(1, 31));

// Link-table fuzz: twin networks (one traced, one not) take the same random
// stream/bulk churn, demands, partitions and site outages. Every step, the
// twins' allocations must match bit for bit; every table row must carry
// capacity() and the in-order sum of its flows (also after a fault or flow
// change since the step, and at a time never stepped); and the traced twin
// must emit exactly one link_alloc per link with unfinished flows, in
// link-id order.
class LinkTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkTableFuzz, TwinsAgreeAndTableMatchesBruteForce) {
  constexpr int kSites = 5;
  Rng rng(GetParam());
  RandomWalkBandwidth::Config walk;
  walk.horizon_sec = 100.0;
  walk.period_sec = 0.5;  // capacities move every half second
  Rng model_rng(GetParam() + 1000);
  const auto model =
      std::make_shared<RandomWalkBandwidth>(kSites, walk, model_rng);
  Network plain = make_net(kSites, 1, 50.0, 10.0, model);
  Network traced = make_net(kSites, 1, 50.0, 10.0, model);
  const auto sink = std::make_shared<obs::MemorySink>(1 << 20);
  obs::TraceEmitter emitter(sink);
  traced.set_trace(&emitter);

  std::vector<FlowId> live;
  const auto both = [&](auto&& op) {
    op(plain);
    op(traced);
  };
  const auto random_site = [&] {
    return SiteId(rng.uniform_int(0, kSites - 1));
  };
  // Random churn and faults, applied identically to both twins.
  const auto mutate = [&] {
    const double u = rng.uniform();
    const SiteId from = random_site();
    const SiteId to = random_site();
    if (u < 0.35) {
      FlowId id;
      both([&](Network& n) { id = n.add_stream_flow(from, to); });
      live.push_back(id);
    } else if (u < 0.55) {
      const double mb = rng.uniform(0.0, 40.0);  // some finish in a step
      FlowId id;
      both([&](Network& n) { id = n.add_bulk_flow(from, to, mb); });
      live.push_back(id);
    } else if (u < 0.8) {
      if (live.empty()) return;
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      both([&](Network& n) { n.remove_flow(live[k]); });
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (u < 0.92) {
      const bool cut = !plain.link_partitioned(from, to);
      both([&](Network& n) { n.set_link_partitioned(from, to, cut); });
    } else {
      const bool down = !plain.site_down(from);
      both([&](Network& n) { n.set_site_down(from, down); });
    }
  };
  // The table as of `t` against capacity() and an in-order brute-force sum
  // over each row's flows, which must be exactly the live flows of its link.
  const auto check_table = [&](double t) {
    const std::vector<Link>& links = plain.links(t);
    std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> per_link;
    for (FlowId id : live) {
      const Flow& f = plain.flow(id);
      if (f.from != f.to) ++per_link[{f.from.value(), f.to.value()}];
    }
    for (std::size_t id = 0; id < links.size(); ++id) {
      const Link& link = links[id];
      if (link.refs == 0) continue;
      ASSERT_EQ(plain.link_id(link.from, link.to),
                static_cast<std::int32_t>(id));
      const std::span<const FlowSlot> row =
          plain.link_flows(static_cast<std::int32_t>(id));
      ASSERT_EQ(row.size(), (per_link[{link.from.value(), link.to.value()}]));
      EXPECT_EQ(link.capacity, plain.capacity(link.from, link.to, t));
      double sum = 0.0;
      FlowId prev;
      for (const FlowSlot s : row) {
        const Flow& f = plain.flow_table()[s];
        EXPECT_EQ(f.link, static_cast<std::int32_t>(id));
        EXPECT_LT(prev, f.id);  // ascending id order
        prev = f.id;
        sum += f.allocated_mbps;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(link.allocated),
                std::bit_cast<std::uint64_t>(sum));
      EXPECT_EQ(link.headroom, std::max(0.0, link.capacity - sum));
      EXPECT_EQ(plain.link_allocated(link.from, link.to), sum);
    }
    for (const auto& [key, count] : per_link) {
      EXPECT_GE(plain.link_id(SiteId(key.first), SiteId(key.second)), 0);
    }
  };

  for (int tick = 1; tick <= 40; ++tick) {
    const double t = tick;
    const auto churn = rng.uniform_int(0, 4);
    for (std::int64_t i = 0; i < churn; ++i) mutate();
    for (FlowId id : live) {
      if (plain.flow(id).kind != FlowKind::kStream) continue;
      const double mbps = rng.uniform(0.0, 40.0);
      both([&](Network& n) { n.set_stream_demand(id, mbps); });
    }
    // Expected link_alloc sequence: links with unfinished flows before the
    // step (bulk completions inside it still count), in link-id order.
    std::map<std::int32_t, std::size_t> expected;
    for (FlowId id : live) {
      const Flow& f = plain.flow(id);
      if (f.link >= 0 && !f.done) ++expected[f.link];
    }
    const std::uint64_t seq_before = emitter.emitted();

    both([&](Network& n) { n.step(t, 1.0); });

    for (FlowId id : live) {
      const Flow& a = plain.flow(id);
      const Flow& b = traced.flow(id);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.allocated_mbps),
                std::bit_cast<std::uint64_t>(b.allocated_mbps));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.remaining_mb),
                std::bit_cast<std::uint64_t>(b.remaining_mb));
      EXPECT_EQ(a.done, b.done);
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> emitted, wanted;
    for (const obs::TraceEvent& e : sink->of_type("link_alloc")) {
      if (e.seq < seq_before) continue;
      emitted.emplace_back(static_cast<std::int64_t>(e.num("from_site")),
                           static_cast<std::int64_t>(e.num("to_site")));
      const auto it = expected.find(plain.link_id(
          SiteId(emitted.back().first), SiteId(emitted.back().second)));
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(e.num("num_flows"), static_cast<double>(it->second));
    }
    for (const auto& [row, count] : expected) {
      const Link& link = plain.links(t)[static_cast<std::size_t>(row)];
      wanted.emplace_back(link.from.value(), link.to.value());
    }
    EXPECT_EQ(emitted, wanted) << "tick " << tick;

    check_table(t);
    mutate();  // a fault or flow change after the step...
    check_table(t);  // ...is seen by the next read at the same time
    check_table(t + 0.5);  // and so is a time never stepped
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChurn, LinkTableFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(WanMonitorTest, ProbesOnlyAtInterval) {
  Network net = make_net(2, 1, 100.0, 10.0);
  WanMonitor::Config cfg;
  cfg.probe_interval_sec = 40.0;
  cfg.noise_stddev = 0.0;
  WanMonitor monitor(net, cfg, Rng(1));
  EXPECT_DOUBLE_EQ(monitor.available(SiteId(0), SiteId(1)), 0.0);
  monitor.tick(0.0);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(monitor.last_probe_time(), 0.0);
  monitor.tick(20.0);  // not yet
  EXPECT_DOUBLE_EQ(monitor.last_probe_time(), 0.0);
  monitor.tick(40.0);
  EXPECT_DOUBLE_EQ(monitor.last_probe_time(), 40.0);
}

TEST(WanMonitorTest, ReportsAvailableNotRawCapacity) {
  Network net = make_net(2, 1, 100.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(f, 60.0);
  net.step(0.0, 1.0);
  WanMonitor::Config cfg;
  cfg.noise_stddev = 0.0;
  WanMonitor monitor(net, cfg, Rng(1));
  monitor.probe_now(0.0);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 40.0, 1e-9);
}

TEST(WanMonitorTest, EstimatesAreStaleBetweenProbes) {
  auto model = std::make_shared<SteppedBandwidth>(
      std::vector<std::pair<double, double>>{{10.0, 0.5}});
  Network net = make_net(2, 1, 100.0, 10.0, model);
  WanMonitor::Config cfg;
  cfg.probe_interval_sec = 40.0;
  cfg.noise_stddev = 0.0;
  WanMonitor monitor(net, cfg, Rng(1));
  monitor.probe_now(0.0);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 100.0, 1e-9);
  // Bandwidth halves at t=10, but the monitor does not know until t=40.
  monitor.tick(20.0);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 100.0, 1e-9);
  monitor.tick(40.0);
  EXPECT_LT(monitor.available(SiteId(0), SiteId(1)), 100.0);
}

TEST(TraceIoTest, StepInterpolationBetweenSamples) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(1), 0.0, 1.0);
  trace.add_sample(SiteId(0), SiteId(1), 300.0, 0.5);
  trace.add_sample(SiteId(0), SiteId(1), 600.0, 2.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 299.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 300.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 450.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 10'000.0), 2.0);
}

TEST(TraceIoTest, UntracedLinksDefaultToOne) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(1), 0.0, 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(1), SiteId(0), 100.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(2), SiteId(3), 100.0), 1.0);
}

TEST(TraceIoTest, OutOfOrderSamplesAreSorted) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(1), 600.0, 2.0);
  trace.add_sample(SiteId(0), SiteId(1), 0.0, 1.0);
  trace.add_sample(SiteId(0), SiteId(1), 300.0, 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 100.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 400.0), 0.5);
}

TEST(TraceIoTest, ParsesCsvWithHeaderAndComments) {
  std::istringstream in(
      "time_sec,from_site,to_site,factor\n"
      "# measured 2020-05-02\n"
      "0,0,1,1.0\n"
      "300,0,1,0.5\n"
      "\n"
      "0,1,0,0.8  # trailing comment\n");
  std::string error;
  const TraceBandwidth trace = load_bandwidth_trace(in, &error);
  EXPECT_EQ(error, "");
  EXPECT_EQ(trace.num_samples(), 3u);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 400.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(1), SiteId(0), 400.0), 0.8);
}

TEST(TraceIoTest, RejectsMalformedLines) {
  std::istringstream in("0,0,1,1.0\nnot,a,number,x\n");
  std::string error;
  const TraceBandwidth trace = load_bandwidth_trace(in, &error);
  EXPECT_NE(error, "");
  EXPECT_EQ(trace.num_samples(), 0u);
}

TEST(TraceIoTest, RejectsNegativeFactors) {
  std::istringstream in("0,0,1,-0.5\n");
  std::string error;
  const TraceBandwidth trace = load_bandwidth_trace(in, &error);
  EXPECT_NE(error, "");
  EXPECT_EQ(trace.num_samples(), 0u);
}

TEST(TraceIoTest, RejectsNonFiniteAndPartialCells) {
  // std::stod would read "nan" as NaN and "1e308x" as 1e308; both are load
  // errors naming the line, as is a fractional site.
  for (const char* row : {"0,0,1,nan", "0,0,1,inf", "0,0,1,0.5x",
                          "inf,0,1,0.5", "0,0.5,1,0.5"}) {
    SCOPED_TRACE(row);
    std::istringstream in(std::string("0,0,1,1.0\n") + row + "\n");
    std::string error;
    const TraceBandwidth trace = load_bandwidth_trace(in, &error);
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_EQ(trace.num_samples(), 0u);
  }
}

TEST(TraceIoTest, FitsChecksSites) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(99), 0.0, 0.5);
  std::string error;
  EXPECT_TRUE(trace.fits(100, &error));
  EXPECT_FALSE(trace.fits(16, &error));
  EXPECT_NE(error.find("site 99"), std::string::npos) << error;
}

TEST(TraceIoTest, SaveLoadRoundTrip) {
  // Generate from a random walk, save, reload, and compare at the sampled
  // times.
  Rng rng(3);
  RandomWalkBandwidth::Config cfg;
  cfg.horizon_sec = 900.0;
  cfg.period_sec = 300.0;
  RandomWalkBandwidth original(3, cfg, rng);
  std::stringstream buffer;
  save_bandwidth_trace(buffer, original, 3, 900.0, 300.0);
  std::string error;
  const TraceBandwidth reloaded = load_bandwidth_trace(buffer, &error);
  ASSERT_EQ(error, "");
  for (double t : {0.0, 150.0, 300.0, 899.0}) {
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 3; ++j) {
        if (i == j) continue;
        EXPECT_NEAR(reloaded.factor(SiteId(i), SiteId(j), t),
                    original.factor(SiteId(i), SiteId(j), t), 1e-4)
            << "link " << i << "->" << j << " at t=" << t;
      }
    }
  }
}

TEST(TraceIoTest, TraceDrivesNetworkCapacity) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(1), 100.0, 0.25);
  Network net(Topology::make_uniform(2, 1, 80.0, 10.0),
              std::make_shared<TraceBandwidth>(trace));
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 50.0), 20.0);
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 150.0), 20.0);
}

TEST(WanMonitorTest, NoiseIsSmoothedByEwma) {
  Network net = make_net(2, 1, 100.0, 10.0);
  WanMonitor::Config cfg;
  cfg.probe_interval_sec = 1.0;
  cfg.noise_stddev = 0.10;
  cfg.ewma_alpha = 0.3;
  WanMonitor monitor(net, cfg, Rng(7));
  for (double t = 0.0; t < 50.0; t += 1.0) monitor.tick(t);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 100.0, 15.0);
}

}  // namespace
}  // namespace wasp::net
