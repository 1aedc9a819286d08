// 0-ULP equivalence between the fast (vectorization-annotated) engine
// kernels and their scalar reference twins, plus a whole-simulation check
// that EngineConfig::use_fast_kernels cannot change a single bit of any
// tick metric. This is the enforcement half of the determinism contract
// documented in src/engine/kernels.h.
#include "engine/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "physical/physical_plan.h"
#include "query/logical_plan.h"

namespace wasp::engine {
namespace {

using physical::PhysicalPlan;
using physical::StagePlacement;
using query::LogicalOperator;
using query::LogicalPlan;
using query::OperatorKind;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Bitwise comparison: 0 ULP means the representations are equal, which is
// stricter than operator== (it also distinguishes -0.0 from +0.0).
void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i]), bits(b[i])) << "element " << i << ": " << a[i]
                                      << " vs " << b[i];
  }
}

// Adversarial magnitudes: subnormals, huge values, negative zero, and the
// ordinary range all mixed together. Vectorization must not change any of
// them by even the last bit.
std::vector<double> random_doubles(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) {
    switch (rng.uniform_int(0, 4)) {
      case 0: x = rng.uniform(0.0, 1e6); break;
      case 1: x = rng.uniform(-1e-8, 1e-8); break;
      case 2: x = rng.uniform(0.0, 1.0) * 1e300; break;
      case 3: x = rng.uniform(0.0, 1.0) * 5e-324; break;
      default: x = -0.0; break;
    }
  }
  return v;
}

TEST(KernelEquivalence, ResetChannelTickMatchesScalarBitwise) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 257));
    const std::size_t num_stages = 8;
    std::vector<std::int32_t> to_stage(n);
    for (auto& s : to_stage) {
      s = static_cast<std::int32_t>(rng.uniform_int(0, num_stages - 1));
    }
    std::vector<char> suspended(num_stages);
    for (auto& s : suspended) s = rng.uniform() < 0.5 ? 1 : 0;
    const auto prev0 = random_doubles(rng, n);
    const auto del0 = random_doubles(rng, n);
    const auto off0 = random_doubles(rng, n);

    auto prev_a = prev0, del_a = del0, off_a = off0;
    auto prev_b = prev0, del_b = del0, off_b = off0;
    kernels::reset_channel_tick_scalar(n, to_stage.data(), suspended.data(),
                                       prev_a.data(), del_a.data(),
                                       off_a.data());
    kernels::reset_channel_tick(n, to_stage.data(), suspended.data(),
                                prev_b.data(), del_b.data(), off_b.data());
    expect_bitwise_equal(prev_a, prev_b);
    expect_bitwise_equal(del_a, del_b);
    expect_bitwise_equal(off_a, off_b);
  }
}

TEST(KernelEquivalence, FlowDemandMbpsMatchesScalarBitwise) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 257));
    const auto queue = random_doubles(rng, n);
    auto event_bytes = random_doubles(rng, n);
    for (auto& b : event_bytes) b = std::abs(b);
    const double dt = rng.uniform(0.25, 4.0);

    std::vector<double> out_a(n, -1.0), out_b(n, -1.0);
    kernels::flow_demand_mbps_scalar(n, queue.data(), event_bytes.data(), dt,
                                     out_a.data());
    kernels::flow_demand_mbps(n, queue.data(), event_bytes.data(), dt,
                              out_b.data());
    expect_bitwise_equal(out_a, out_b);
  }
}

TEST(KernelEquivalence, ResetStageTickMatchesScalarBitwise) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 129));
    auto p_a = random_doubles(rng, n), p_b = p_a;
    auto e_a = random_doubles(rng, n), e_b = e_a;
    auto a_a = random_doubles(rng, n), a_b = a_a;
    std::vector<char> bp_a(n, 1), bp_b(n, 1);
    kernels::reset_stage_tick_scalar(n, p_a.data(), e_a.data(), a_a.data(),
                                     bp_a.data());
    kernels::reset_stage_tick(n, p_b.data(), e_b.data(), a_b.data(),
                              bp_b.data());
    expect_bitwise_equal(p_a, p_b);
    expect_bitwise_equal(e_a, e_b);
    expect_bitwise_equal(a_a, a_b);
    EXPECT_EQ(0, std::memcmp(bp_a.data(), bp_b.data(), n));
  }
}

TEST(KernelEquivalence, GroupCapacityRowMatchesScalarBitwise) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 257));
    std::vector<std::int32_t> tasks(n);
    for (auto& t : tasks) t = static_cast<std::int32_t>(rng.uniform_int(0, 5));
    std::vector<char> failed(n);
    for (auto& f : failed) f = rng.uniform() < 0.3 ? 1 : 0;
    auto straggler = random_doubles(rng, n);
    for (auto& s : straggler) s = std::abs(s);
    const double eps = rng.uniform(0.0, 1e4);

    std::vector<double> out_a(n, -1.0), out_b(n, -1.0);
    kernels::group_capacity_row_scalar(n, tasks.data(), eps, failed.data(),
                                       straggler.data(), out_a.data());
    kernels::group_capacity_row(n, tasks.data(), eps, failed.data(),
                                straggler.data(), out_b.data());
    expect_bitwise_equal(out_a, out_b);
  }
}

// ---------------------------------------------------------------------------
// Chunked execution: every kernel is elementwise, so running it on an
// arbitrary partition of [0, n) through offset pointers must be bit-identical
// to one whole-range call (the engine applies the capacity-row kernel one
// stage row of the gid array at a time).
// ---------------------------------------------------------------------------

// Random chunk boundaries: 0 = b0 < b1 < ... < bk = n, adversarially uneven.
std::vector<std::size_t> random_chunks(Rng& rng, std::size_t n) {
  std::vector<std::size_t> bounds{0};
  while (bounds.back() < n) {
    const auto step = static_cast<std::size_t>(rng.uniform_int(1, 97));
    bounds.push_back(std::min(n, bounds.back() + step));
  }
  return bounds;
}

TEST(KernelEquivalence, ChunkedResetChannelTickMatchesWholeBitwise) {
  Rng rng(47);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 1025));
    const std::size_t num_stages = 8;
    std::vector<std::int32_t> to_stage(n);
    for (auto& s : to_stage) {
      s = static_cast<std::int32_t>(rng.uniform_int(0, num_stages - 1));
    }
    std::vector<char> suspended(num_stages);
    for (auto& s : suspended) s = rng.uniform() < 0.5 ? 1 : 0;
    const auto prev0 = random_doubles(rng, n);
    const auto del0 = random_doubles(rng, n);
    const auto off0 = random_doubles(rng, n);

    auto prev_a = prev0, del_a = del0, off_a = off0;
    kernels::reset_channel_tick(n, to_stage.data(), suspended.data(),
                                prev_a.data(), del_a.data(), off_a.data());

    auto prev_b = prev0, del_b = del0, off_b = off0;
    const auto bounds = random_chunks(rng, n);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      const std::size_t b = bounds[k], e = bounds[k + 1];
      kernels::reset_channel_tick(e - b, to_stage.data() + b,
                                  suspended.data(), prev_b.data() + b,
                                  del_b.data() + b, off_b.data() + b);
    }
    expect_bitwise_equal(prev_a, prev_b);
    expect_bitwise_equal(del_a, del_b);
    expect_bitwise_equal(off_a, off_b);
  }
}

TEST(KernelEquivalence, ChunkedFlowDemandMatchesWholeBitwise) {
  Rng rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 1025));
    const auto queue = random_doubles(rng, n);
    auto event_bytes = random_doubles(rng, n);
    for (auto& b : event_bytes) b = std::abs(b);
    const double dt = rng.uniform(0.25, 4.0);

    std::vector<double> out_a(n, -1.0), out_b(n, -2.0);
    kernels::flow_demand_mbps(n, queue.data(), event_bytes.data(), dt,
                              out_a.data());
    const auto bounds = random_chunks(rng, n);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      const std::size_t b = bounds[k], e = bounds[k + 1];
      kernels::flow_demand_mbps(e - b, queue.data() + b,
                                event_bytes.data() + b, dt, out_b.data() + b);
    }
    expect_bitwise_equal(out_a, out_b);
  }
}

TEST(KernelEquivalence, ChunkedGroupCapacityRowMatchesWholeBitwise) {
  Rng rng(59);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 1025));
    std::vector<std::int32_t> tasks(n);
    for (auto& t : tasks) t = static_cast<std::int32_t>(rng.uniform_int(0, 5));
    std::vector<char> failed(n);
    for (auto& f : failed) f = rng.uniform() < 0.3 ? 1 : 0;
    auto straggler = random_doubles(rng, n);
    for (auto& s : straggler) s = std::abs(s);
    const double eps = rng.uniform(0.0, 1e4);

    std::vector<double> out_a(n, -1.0), out_b(n, -2.0);
    kernels::group_capacity_row(n, tasks.data(), eps, failed.data(),
                                straggler.data(), out_a.data());
    const auto bounds = random_chunks(rng, n);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      const std::size_t b = bounds[k], e = bounds[k + 1];
      kernels::group_capacity_row(e - b, tasks.data() + b, eps,
                                  failed.data() + b, straggler.data() + b,
                                  out_b.data() + b);
    }
    expect_bitwise_equal(out_a, out_b);
  }
}

// ---------------------------------------------------------------------------
// Whole-simulation equivalence: two engines over the same scenario, one with
// fast kernels and one on the scalar reference path, must agree on every
// metric of every tick to the bit.
// ---------------------------------------------------------------------------

struct SimPair {
  // src (site 0) -> map (sites 1..2) -> sink (site 2).
  SimPair(bool fast, double map_capacity)
      : network(net::Topology::make_uniform(3, 4, 200.0, 10.0),
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
    map.selectivity = 0.8;
    map.output_event_bytes = 125.0;
    map.events_per_sec_per_slot = map_capacity;
    map_id = plan.add_operator(std::move(map));

    LogicalOperator sink;
    sink.name = "sink";
    sink.kind = OperatorKind::kSink;
    sink.events_per_sec_per_slot = 1e6;
    sink.pinned_sites = {SiteId(2)};
    sink_id = plan.add_operator(std::move(sink));

    plan.connect(src_id, map_id);
    plan.connect(map_id, sink_id);

    physical.add_stage(src_id, StagePlacement{.per_site = {1, 0, 0}});
    physical.add_stage(map_id, StagePlacement{.per_site = {0, 1, 1}});
    physical.add_stage(sink_id, StagePlacement{.per_site = {0, 0, 1}});

    EngineConfig config;
    config.use_fast_kernels = fast;
    engine = std::make_unique<Engine>(plan, physical, network, config);
  }

  net::Network network;
  LogicalPlan plan;
  PhysicalPlan physical;
  OperatorId src_id, map_id, sink_id;
  std::unique_ptr<Engine> engine;
};

void expect_tick_bitwise_equal(const Engine& a, const Engine& b,
                               const std::vector<OperatorId>& ops, double t) {
  const auto& ma = a.last_tick();
  const auto& mb = b.last_tick();
  EXPECT_EQ(bits(ma.generated_eps), bits(mb.generated_eps)) << "t=" << t;
  EXPECT_EQ(bits(ma.admitted_eps), bits(mb.admitted_eps)) << "t=" << t;
  EXPECT_EQ(bits(ma.dropped_eps), bits(mb.dropped_eps)) << "t=" << t;
  EXPECT_EQ(bits(ma.sink_eps), bits(mb.sink_eps)) << "t=" << t;
  EXPECT_EQ(bits(ma.delay_sec), bits(mb.delay_sec)) << "t=" << t;
  EXPECT_EQ(bits(ma.processing_ratio), bits(mb.processing_ratio)) << "t=" << t;
  for (const auto op : ops) {
    const auto oa = a.op_metrics(op);
    const auto ob = b.op_metrics(op);
    EXPECT_EQ(bits(oa.processed_eps), bits(ob.processed_eps)) << "t=" << t;
    EXPECT_EQ(bits(oa.emitted_eps), bits(ob.emitted_eps)) << "t=" << t;
    EXPECT_EQ(bits(oa.arrived_eps), bits(ob.arrived_eps)) << "t=" << t;
    EXPECT_EQ(bits(oa.input_queue_events), bits(ob.input_queue_events))
        << "t=" << t;
    EXPECT_EQ(bits(oa.channel_backlog_events), bits(ob.channel_backlog_events))
        << "t=" << t;
    EXPECT_EQ(oa.backpressured, ob.backpressured) << "t=" << t;
  }
}

TEST(KernelEquivalence, WholeSimulationFastVsScalarBitIdentical) {
  // Undersized map + thin links + mid-run skew/placement/suspension churn:
  // exercises delivery, backpressure, degrade accounting, and re-planning on
  // both kernel paths.
  SimPair fast(true, 9'000.0);
  SimPair ref(false, 9'000.0);
  const std::vector<OperatorId> ops = {fast.src_id, fast.map_id, fast.sink_id};

  for (double t = 1.0; t <= 120.0; t += 1.0) {
    // Deterministic sawtooth workload crossing the capacity boundary.
    const double rate = 6'000.0 + 1'500.0 * static_cast<double>(
                                               static_cast<int>(t) % 8);
    for (SimPair* s : {&fast, &ref}) {
      if (t == 30.0) s->engine->set_partition_skew(s->map_id, 3.0);
      if (t == 50.0) {
        s->engine->apply_placement(s->map_id,
                                   StagePlacement{.per_site = {1, 1, 1}});
      }
      if (t == 70.0) s->engine->suspend_stage(s->map_id);
      if (t == 75.0) s->engine->resume_stage(s->map_id);
      if (t == 90.0) s->engine->set_partition_skew(s->map_id, 1.0);
      s->engine->set_source_rate(s->src_id, SiteId(0), rate);
      s->network.step(t, 1.0);
      s->engine->tick(t);
    }
    expect_tick_bitwise_equal(*fast.engine, *ref.engine, ops, t);
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
}

}  // namespace
}  // namespace wasp::engine
