// Micro-benchmarks (google-benchmark) for the performance-critical
// substrates: the simplex LP solver, the branch & bound ILP (placement-sized
// instances), the min-max migration LP, and the engine tick.
//
// These are not paper figures; they document that the control-plane
// optimizations are cheap enough to run inside a 1 Hz simulation loop (and,
// in the prototype's terms, inside a 40 s monitoring interval).
#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "microengine/micro_engine.h"
#include "ilp/branch_and_bound.h"
#include "lp/simplex.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "physical/physical_plan.h"
#include "physical/scheduler.h"
#include "query/planner.h"
#include "runtime/scenario.h"
#include "state/migration.h"
#include "workload/queries.h"

namespace {

using namespace wasp;

lp::Problem make_dense_lp(int n) {
  Rng rng(42);
  lp::Problem p(lp::Sense::kMinimize);
  for (int i = 0; i < n; ++i) p.add_variable(rng.uniform(-1.0, 1.0), 0.0, 10.0);
  for (int r = 0; r < n; ++r) {
    std::vector<double> coeffs(n);
    for (auto& c : coeffs) c = rng.uniform(-1.0, 1.0);
    p.add_dense_constraint(coeffs, lp::RowType::kLe, rng.uniform(1.0, 5.0));
  }
  return p;
}

void BM_SimplexDense(benchmark::State& state) {
  const lp::Problem p = make_dense_lp(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p));
  }
}
BENCHMARK(BM_SimplexDense)->Arg(8)->Arg(16)->Arg(32);

void BM_SimplexDenseReference(benchmark::State& state) {
  // The pre-optimization pricing rule: reduced costs recomputed from the
  // basis on every pivot (O(m·n) per column selection).
  const lp::Problem p = make_dense_lp(static_cast<int>(state.range(0)));
  lp::SimplexOptions opts;
  opts.pricing = lp::SimplexOptions::Pricing::kRescan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p, opts));
  }
}
BENCHMARK(BM_SimplexDenseReference)->Arg(8)->Arg(16)->Arg(32);

class RandomView final : public physical::NetworkView {
 public:
  RandomView(std::size_t n, Rng& rng) : n_(n) {
    bw_.resize(n * n);
    lat_.resize(n * n);
    slots_.resize(n);
    for (auto& b : bw_) b = rng.uniform(5.0, 200.0);
    for (auto& l : lat_) l = rng.uniform(5.0, 300.0);
    for (auto& s : slots_) s = static_cast<int>(rng.uniform_int(2, 8));
  }
  std::size_t num_sites() const override { return n_; }
  double available_mbps(SiteId f, SiteId t) const override {
    return bw_[static_cast<std::size_t>(f.value()) * n_ +
               static_cast<std::size_t>(t.value())];
  }
  double latency_ms(SiteId f, SiteId t) const override {
    return lat_[static_cast<std::size_t>(f.value()) * n_ +
                static_cast<std::size_t>(t.value())];
  }
  int available_slots(SiteId s) const override {
    return slots_[static_cast<std::size_t>(s.value())];
  }

 private:
  std::size_t n_;
  std::vector<double> bw_, lat_;
  std::vector<int> slots_;
};

physical::StageContext make_placement_ctx(std::size_t m, Rng& rng) {
  physical::StageContext ctx;
  ctx.parallelism = 3;
  for (int u = 0; u < 4; ++u) {
    ctx.upstream.push_back(physical::TrafficEndpoint{
        SiteId(rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)),
        rng.uniform(1'000.0, 20'000.0), 120.0});
  }
  return ctx;
}

void BM_PlacementIlp(benchmark::State& state) {
  // A placement-shaped ILP: m sites, Eq. 1-5 structure, probed repeatedly
  // within one decision epoch -- the adaptation policy's access pattern
  // (p-sweeps and candidate plans re-probe identical stage contexts). The
  // optimized stack serves repeats from the per-epoch placement cache.
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const RandomView view(m, rng);
  const physical::StageContext ctx = make_placement_ctx(m, rng);
  physical::Scheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.place_stage(ctx, view));
  }
}
BENCHMARK(BM_PlacementIlp)->Arg(8)->Arg(16);

void BM_PlacementIlpCold(benchmark::State& state) {
  // Same ILP with a fresh epoch per iteration: every probe misses the cache,
  // so this is the raw optimized solver stack (maintained-row simplex +
  // copy-free B&B) plus the cache-key overhead.
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const RandomView view(m, rng);
  const physical::StageContext ctx = make_placement_ctx(m, rng);
  physical::Scheduler scheduler;
  for (auto _ : state) {
    scheduler.begin_epoch();
    benchmark::DoNotOptimize(scheduler.place_stage(ctx, view));
  }
}
BENCHMARK(BM_PlacementIlpCold)->Arg(8)->Arg(16);

void BM_PlacementIlpReference(benchmark::State& state) {
  // Same ILP through the pre-optimization stack: rescan pricing and
  // copy-per-node branch & bound (the seed implementation, kept behind
  // Scheduler::Config::use_reference_solvers).
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const RandomView view(m, rng);
  const physical::StageContext ctx = make_placement_ctx(m, rng);
  physical::Scheduler scheduler(
      physical::Scheduler::Config{.use_reference_solvers = true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.place_stage(ctx, view));
  }
}
BENCHMARK(BM_PlacementIlpReference)->Arg(8)->Arg(16);

// ---------------------------------------------------------------------------
// Planet-scale placement suite (DESIGN.md §14): how the solver stack scales
// from the paper's 16-site testbed to hundreds of edge sites, and what the
// warm-started re-plan path buys on localized changes.
// ---------------------------------------------------------------------------

// Bandwidth-perturbing wrapper: scales every link of the base view by a
// per-epoch factor. Changes the placement-cache key (endpoint bandwidths are
// part of it) without touching the ILP's structure, which is exactly the
// re-plan-after-network-drift access pattern the warm-basis path serves.
class ScaledView final : public physical::NetworkView {
 public:
  explicit ScaledView(const physical::NetworkView& base) : base_(base) {}
  void set_bw_scale(double s) { scale_ = s; }
  std::size_t num_sites() const override { return base_.num_sites(); }
  double available_mbps(SiteId f, SiteId t) const override {
    return base_.available_mbps(f, t) * scale_;
  }
  double latency_ms(SiteId f, SiteId t) const override {
    return base_.latency_ms(f, t);
  }
  int available_slots(SiteId s) const override {
    return base_.available_slots(s);
  }

 private:
  const physical::NetworkView& base_;
  double scale_ = 1.0;
};

void BM_PlacementScale(benchmark::State& state) {
  // Cold single-stage placement as the site count grows 16 -> 64 -> 256.
  // Below Scheduler::Config::direct_solve_min_sites this is the legacy exact
  // B&B; above it the folded ILP's exact greedy direct solve. The CI perf
  // gate asserts the 16 -> 256 growth stays sub-quadratic.
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const RandomView view(m, rng);
  const physical::StageContext ctx = make_placement_ctx(m, rng);
  physical::Scheduler scheduler;
  for (auto _ : state) {
    scheduler.begin_epoch();
    scheduler.begin_epoch();  // two rotations: defeat the cross-epoch cache
    benchmark::DoNotOptimize(scheduler.place_stage(ctx, view));
  }
}
BENCHMARK(BM_PlacementScale)->Arg(16)->Arg(64)->Arg(256);

// Warm-vs-cold re-plan pair at 256 sites: an 8-stage plan re-placed every
// epoch after a *localized* change (one stage's upstream rate moved, the
// other seven untouched) -- the planet-scale re-plan access pattern that
// region decomposition produces. The warm variant runs the scale stack as
// shipped: untouched stages are served by the cross-epoch placement cache
// and the changed stage re-enters the budgeted branch & bound from the
// previous epoch's captured root basis. The cold variant disables both and
// re-solves all eight stages from scratch each epoch. Both force the
// branch & bound path (the folded ILP's direct greedy solve would bypass
// the solver whose warm start is being measured). BENCH_solvers.json pairs
// them into the warm-speedup gate (>= 5x, DESIGN.md §14).
void run_placement_replan(benchmark::State& state, bool warm) {
  const std::size_t m = 256;
  constexpr int kStages = 8;
  Rng rng(7);
  const RandomView view(m, rng);
  std::vector<physical::StageContext> stages;
  for (int k = 0; k < kStages; ++k) stages.push_back(make_placement_ctx(m, rng));
  const double base_rate = stages[0].upstream[0].events_per_sec;
  physical::Scheduler::Config config;
  config.force_branch_and_bound = true;
  config.warm_start = warm;
  config.cross_epoch_cache = warm;
  physical::Scheduler scheduler(config);
  int epoch = 0;
  for (auto _ : state) {
    scheduler.begin_epoch();
    // Alternate the perturbed stage's rate so its cache key always differs
    // from the previous epoch's (the two-generation cache holds exactly one
    // prior epoch): the changed stage must genuinely re-solve.
    stages[0].upstream[0].events_per_sec =
        base_rate * (epoch++ % 2 == 0 ? 1.0 : 1.01);
    double total = 0.0;
    for (const physical::StageContext& ctx : stages) {
      const auto placed = scheduler.place_stage(ctx, view);
      if (placed.has_value()) total += placed->objective;
    }
    benchmark::DoNotOptimize(total);
  }
}

void BM_PlacementReplanWarm(benchmark::State& state) {
  run_placement_replan(state, /*warm=*/true);
}
BENCHMARK(BM_PlacementReplanWarm)->Arg(256);

void BM_PlacementReplanCold(benchmark::State& state) {
  run_placement_replan(state, /*warm=*/false);
}
BENCHMARK(BM_PlacementReplanCold)->Arg(256);

// ---------------------------------------------------------------------------
// Fig-scale decision-epoch suite: the §8.2 16-site testbed, all four
// benchmark queries, each placed end-to-end at parallelism sweeps 1..3 with
// scale-out fallback -- the work one adaptation epoch does. The fast variant
// runs the optimized solvers plus the per-epoch placement cache (p-sweep and
// per-candidate-plan dedup); the reference variant is the seed stack.
// ---------------------------------------------------------------------------

class TopologyView final : public physical::NetworkView {
 public:
  explicit TopologyView(const net::Topology& topo) : topo_(topo) {}
  std::size_t num_sites() const override { return topo_.num_sites(); }
  double available_mbps(SiteId from, SiteId to) const override {
    return topo_.base_bandwidth(from, to);
  }
  double latency_ms(SiteId from, SiteId to) const override {
    return topo_.latency_ms(from, to);
  }
  int available_slots(SiteId site) const override {
    return topo_.site(site).slots;
  }

 private:
  const net::Topology& topo_;
};

struct FigScaleSuite {
  struct Case {
    workload::QuerySpec spec;
    std::unordered_map<OperatorId, query::OperatorRates> rates;
    double eps_per_source = 0.0;
  };

  FigScaleSuite() {
    Rng rng(7);
    topo = net::Topology::make_paper_testbed(rng);
    const runtime::Roles r = runtime::roles_of(topo);
    const std::vector<SiteId> four(r.edges.begin(), r.edges.begin() + 4);
    auto add = [&](workload::QuerySpec spec, double eps) {
      std::unordered_map<OperatorId, double> src;
      for (OperatorId s : spec.sources) src[s] = eps;
      Case c{std::move(spec), {}, eps};
      c.rates = c.spec.plan.estimate_rates(src);
      cases.push_back(std::move(c));
    };
    add(workload::make_ysb_campaign(r.edges, r.sink), 5'000.0);
    add(workload::make_topk_topics(r.east, r.west, r.sink), 3'000.0);
    add(workload::make_events_of_interest(r.edges, r.sink), 8'000.0);
    add(workload::make_four_source_join(four, r.sink, true), 2'000.0);
  }

  // One decision epoch, mirroring the adaptation policy's probe pattern:
  // (a) a p-sweep placing every query at uniform parallelism 1..3, then
  // (b) per-operator scale-out candidates, each re-placing the plan with a
  // single operator's parallelism bumped. Candidates repeat every stage
  // probe outside the bumped operator's downstream cone, so the per-epoch
  // placement cache dedups them; the reference stack re-solves each one.
  double run_epoch(const physical::Scheduler& scheduler,
                   const physical::NetworkView& view) const {
    scheduler.begin_epoch();
    double total = 0.0;
    for (const Case& c : cases) {
      std::unordered_map<OperatorId, int> parallelism;
      for (std::size_t id = 0; id < c.spec.plan.num_operators(); ++id) {
        parallelism[OperatorId(static_cast<std::int64_t>(id))] = 1;
      }
      for (int p = 1; p <= 3; ++p) {
        for (auto& [op, par] : parallelism) par = p;
        const auto placed = physical::place_plan(c.spec.plan, c.rates,
                                                 parallelism, view, scheduler,
                                                 /*max_parallelism_fallback=*/4);
        if (placed.has_value()) total += placed->objective;
      }
      for (auto& [op, par] : parallelism) par = 1;
      for (std::size_t id = 0; id < c.spec.plan.num_operators(); ++id) {
        const OperatorId op(static_cast<std::int64_t>(id));
        if (!c.spec.plan.op(op).pinned_sites.empty()) continue;
        parallelism[op] = 2;  // scale-out candidate: bump one operator
        const auto placed = physical::place_plan(c.spec.plan, c.rates,
                                                 parallelism, view, scheduler,
                                                 /*max_parallelism_fallback=*/4);
        if (placed.has_value()) total += placed->objective;
        parallelism[op] = 1;
      }
      // Re-plan pricing (try_replan): every planner-enumerated candidate
      // plan is placed against the same view. Candidates share operator
      // sub-plans, so their stage ILPs repeat across candidates.
      for (const query::LogicalPlan& cand : planner.enumerate(c.spec.plan)) {
        std::unordered_map<OperatorId, double> src;
        for (OperatorId s : cand.sources()) src[s] = c.eps_per_source;
        const auto cand_rates = cand.estimate_rates(src);
        std::unordered_map<OperatorId, int> cand_par;
        for (std::size_t id = 0; id < cand.num_operators(); ++id) {
          cand_par[OperatorId(static_cast<std::int64_t>(id))] = 1;
        }
        const auto placed = physical::place_plan(cand, cand_rates, cand_par,
                                                 view, scheduler,
                                                 /*max_parallelism_fallback=*/4);
        if (placed.has_value()) total += placed->objective;
      }
    }
    return total;
  }

  query::QueryPlanner planner;

  net::Topology topo;
  std::vector<Case> cases;
};

void BM_FigScaleEpoch(benchmark::State& state) {
  const FigScaleSuite suite;
  const TopologyView view(suite.topo);
  const physical::Scheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(suite.run_epoch(scheduler, view));
  }
}
BENCHMARK(BM_FigScaleEpoch);

void BM_FigScaleEpochReference(benchmark::State& state) {
  const FigScaleSuite suite;
  const TopologyView view(suite.topo);
  const physical::Scheduler scheduler(
      physical::Scheduler::Config{.use_reference_solvers = true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(suite.run_epoch(scheduler, view));
  }
}
BENCHMARK(BM_FigScaleEpochReference);

void BM_MigrationMinMaxLp(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  net::Topology topo = net::Topology::make_uniform(
      static_cast<int>(2 * n), 4, 100.0, 20.0);
  net::Network network(topo, std::make_shared<net::ConstantBandwidth>());

  class TruthView final : public physical::NetworkView {
   public:
    explicit TruthView(const net::Network& network) : network_(network) {}
    std::size_t num_sites() const override {
      return network_.topology().num_sites();
    }
    double available_mbps(SiteId f, SiteId t) const override {
      return network_.capacity(f, t, 0.0);
    }
    double latency_ms(SiteId f, SiteId t) const override {
      return network_.latency_ms(f, t);
    }
    int available_slots(SiteId) const override { return 8; }

   private:
    const net::Network& network_;
  } view(network);

  std::vector<state::StateSource> sources;
  std::vector<state::StateDestination> dests;
  for (std::size_t i = 0; i < n; ++i) {
    sources.push_back({SiteId(static_cast<std::int64_t>(i)),
                       rng.uniform(10.0, 200.0)});
  }
  double total = 0.0;
  for (const auto& s : sources) total += s.state_mb;
  for (std::size_t j = 0; j < n; ++j) {
    dests.push_back({SiteId(static_cast<std::int64_t>(n + j)),
                     total / static_cast<double>(n)});
  }
  state::MigrationPlanner planner(state::MigrationStrategy::kNetworkAware,
                                  Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(sources, dests, view));
  }
}
BENCHMARK(BM_MigrationMinMaxLp)->Arg(2)->Arg(4)->Arg(8)->Arg(32);

// Shared body of the engine-tick benchmarks: top-k query over the given
// topology with sources split east/west, hub placement at the sink site.
void run_engine_tick_topk(benchmark::State& state, const net::Topology& topo,
                          const std::vector<SiteId>& east,
                          const std::vector<SiteId>& west, SiteId sink) {
  net::Network network(topo, std::make_shared<net::ConstantBandwidth>());
  auto spec = workload::make_topk_topics(east, west, sink);
  physical::PhysicalPlan physical;
  // Simple hub placement for the micro-benchmark.
  for (OperatorId id : spec.plan.topological_order()) {
    const auto& op = spec.plan.op(id);
    physical::StagePlacement placement;
    placement.per_site.assign(topo.num_sites(), 0);
    if (!op.pinned_sites.empty()) {
      for (SiteId s : op.pinned_sites) {
        ++placement.per_site[static_cast<std::size_t>(s.value())];
      }
    } else {
      placement.per_site[static_cast<std::size_t>(sink.value())] = 1;
    }
    physical.add_stage(id, placement);
  }
  engine::Engine engine(spec.plan, physical, network, engine::EngineConfig{});
  for (OperatorId src : spec.sources) {
    for (SiteId s : spec.plan.op(src).pinned_sites) {
      engine.set_source_rate(src, s, 10'000.0);
    }
  }
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    network.step(t, 1.0);
    engine.tick(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(t));
}

void BM_EngineTickTopk(benchmark::State& state) {
  Rng rng(7);
  net::Topology topo = net::Topology::make_paper_testbed(rng);
  const runtime::Roles roles = runtime::roles_of(topo);
  run_engine_tick_topk(state, topo, roles.east, roles.west, roles.sink);
}
BENCHMARK(BM_EngineTickTopk);

// Scaling variant: uniform topology at 16/64/256 sites, one source per
// non-hub site. Tick cost is dominated by the per-(stage, site) group and
// per-channel loops, so this tracks how the SoA data layout behaves as the
// site count (and with it the channel count) grows.
void BM_EngineTickTopkScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  net::Topology topo = net::Topology::make_uniform(n, 4, 500.0, 20.0);
  const SiteId sink = SiteId(0);
  std::vector<SiteId> east, west;
  for (int i = 1; i < n; ++i) {
    (i % 2 != 0 ? east : west).push_back(SiteId(i));
  }
  run_engine_tick_topk(state, topo, east, west, sink);
}
BENCHMARK(BM_EngineTickTopkScale)->Arg(16)->Arg(64)->Arg(256);

void BM_MicroEngineRecords(benchmark::State& state) {
  // Per-record DES throughput: how many simulated records per second of
  // wall time the validation engine sustains on a 3-stage pipeline.
  query::LogicalPlan plan;
  query::LogicalOperator src;
  src.name = "src";
  src.kind = query::OperatorKind::kSource;
  src.events_per_sec_per_slot = 1e6;
  src.pinned_sites = {SiteId(0)};
  const OperatorId s = plan.add_operator(std::move(src));
  query::LogicalOperator map;
  map.name = "map";
  map.kind = query::OperatorKind::kMap;
  map.events_per_sec_per_slot = 50'000.0;
  const OperatorId m = plan.add_operator(std::move(map));
  query::LogicalOperator sink;
  sink.name = "sink";
  sink.kind = query::OperatorKind::kSink;
  sink.events_per_sec_per_slot = 1e6;
  sink.pinned_sites = {SiteId(2)};
  const OperatorId k = plan.add_operator(std::move(sink));
  plan.connect(s, m);
  plan.connect(m, k);
  physical::PhysicalPlan physical;
  physical.add_stage(s, physical::StagePlacement{.per_site = {1, 0, 0}});
  physical.add_stage(m, physical::StagePlacement{.per_site = {0, 1, 0}});
  physical.add_stage(k, physical::StagePlacement{.per_site = {0, 0, 1}});
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);

  std::uint64_t records = 0;
  for (auto _ : state) {
    micro::MicroConfig config;
    config.horizon_sec = 10.0;
    micro::MicroEngine engine(plan, physical, topo, config);
    engine.set_source_rate(s, SiteId(0), 5'000.0);
    const auto results = engine.run();
    records += results.generated;
    benchmark::DoNotOptimize(results.sink_eps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_MicroEngineRecords);

// ---------------------------------------------------------------------------
// JSON emission: `--bench-json=PATH` writes BENCH_solvers.json (schema
// documented in DESIGN.md) -- per-benchmark ns/op plus fast-vs-reference
// speedups, paired by stripping the "Reference" suffix from benchmark names.
// ---------------------------------------------------------------------------

class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      ns_per_op_[run.benchmark_name()] = run.GetAdjustedRealTime();
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::map<std::string, double>& ns_per_op() const {
    return ns_per_op_;
  }

 private:
  std::map<std::string, double> ns_per_op_;  // name -> ns per iteration
};

void write_bench_json(const std::string& path,
                      const std::map<std::string, double>& ns_per_op) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"wasp-bench-solvers-v1\",\n  \"benchmarks\": [\n";
  bool first = true;
  for (const auto& [name, ns] : ns_per_op) {
    out << (first ? "" : ",\n") << "    {\"name\": \"" << name
        << "\", \"ns_per_op\": " << ns << "}";
    first = false;
  }
  out << "\n  ],\n  \"speedups\": [\n";
  first = true;
  for (const auto& [name, ref_ns] : ns_per_op) {
    const auto pos = name.find("Reference");
    if (pos == std::string::npos) continue;
    std::string fast = name;
    fast.erase(pos, std::string("Reference").size());
    const auto it = ns_per_op.find(fast);
    if (it == ns_per_op.end() || it->second <= 0.0) continue;
    out << (first ? "" : ",\n") << "    {\"name\": \"" << fast
        << "\", \"fast_ns_per_op\": " << it->second
        << ", \"reference_ns_per_op\": " << ref_ns
        << ", \"speedup\": " << ref_ns / it->second << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--bench-json=";
    if (arg.rfind(prefix, 0) == 0) {
      json_path = arg.substr(prefix.size());
    } else {
      args.push_back(argv[i]);
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    write_bench_json(json_path, reporter.ns_per_op());
  }
  return 0;
}
