#include "runtime/scenario.h"

#include <fstream>

#include "common/rng.h"
#include "faults/fault_schedule.h"
#include "net/bandwidth_model.h"
#include "net/topology_spec.h"
#include "net/trace_io.h"
#include "workload/trace_io.h"

namespace wasp::runtime {
namespace {

struct QueryKind {
  const char* name;
  workload::QuerySpec (*make)(const Roles& roles);
};

const QueryKind kQueries[] = {
    {"topk",
     [](const Roles& r) {
       return workload::make_topk_topics(r.east, r.west, r.sink);
     }},
    {"ysb",
     [](const Roles& r) {
       return workload::make_ysb_campaign(r.edges, r.sink);
     }},
    {"interest",
     [](const Roles& r) {
       return workload::make_events_of_interest(r.edges, r.sink);
     }},
    {"join",
     [](const Roles& r) {
       return workload::make_four_source_join(r.dcs, r.sink, true);
     }},
};

const QueryKind* find_query(const std::string& name) {
  for (const QueryKind& kind : kQueries) {
    if (name == kind.name) return &kind;
  }
  return nullptr;
}

}  // namespace

Roles roles_of(const net::Topology& topology) {
  Roles roles;
  for (const auto& site : topology.sites()) {
    if (site.type == net::SiteType::kEdge) {
      roles.edges.push_back(site.id);
    } else {
      roles.dcs.push_back(site.id);
      if (!roles.sink.valid()) roles.sink = site.id;
    }
  }
  if (roles.edges.empty()) {
    for (const auto& site : topology.sites()) {
      if (site.id != roles.sink) roles.edges.push_back(site.id);
    }
  }
  auto& east = roles.east;
  auto& west = roles.west;
  for (SiteId s : roles.edges) {
    (east.size() <= west.size() ? east : west).push_back(s);
  }
  return roles;
}

bool is_query(const std::string& name) { return find_query(name) != nullptr; }

std::optional<workload::QuerySpec> make_query(const std::string& name,
                                              const Roles& roles) {
  const QueryKind* kind = find_query(name);
  if (kind == nullptr) return std::nullopt;
  return kind->make(roles);
}

std::optional<ScenarioRun> ScenarioRun::build(const Scenario& s,
                                              const std::string& trace_path,
                                              ScenarioError* error) {
  auto fail = [error](int exit_code, std::string message) {
    *error = {exit_code, std::move(message)};
    return std::nullopt;
  };
  constexpr int kUsage = 2, kIo = 1;
  ScenarioRun run;
  run.scenario = s;

  // --- substrate -----------------------------------------------------------
  net::TopologySpec topo_spec;  // Kind::kPaper
  if (!s.topology.empty()) {
    std::string spec_error;
    const auto parsed = net::TopologySpec::parse(s.topology, &spec_error);
    if (!parsed.has_value()) return fail(kUsage, "bad topology: " + spec_error);
    topo_spec = *parsed;
  }
  Rng rng(s.seed);
  net::Topology topo = topo_spec.build(rng);

  std::shared_ptr<const net::BandwidthModel> bw_model =
      std::make_shared<net::ConstantBandwidth>();
  if (s.bandwidth == "live") {
    Rng bw_rng(s.seed + 1);
    net::RandomWalkBandwidth::Config cfg;
    cfg.horizon_sec = s.duration_sec;
    cfg.min_factor = 0.51;
    cfg.max_factor = 2.36;
    bw_model = std::make_shared<net::RandomWalkBandwidth>(topo.num_sites(),
                                                          cfg, bw_rng);
  } else if (!s.bandwidth.empty()) {
    std::ifstream in(s.bandwidth);
    if (!in) return fail(kIo, "cannot open trace file '" + s.bandwidth + "'");
    std::string load_error;
    auto trace = std::make_shared<net::TraceBandwidth>(
        net::load_bandwidth_trace(in, &load_error));
    if (!load_error.empty()) return fail(kIo, load_error);
    bw_model = std::move(trace);
  }
  if (!s.bandwidth_steps.empty()) {
    bw_model = std::make_shared<net::ComposedBandwidth>(
        bw_model, std::make_shared<net::SteppedBandwidth>(s.bandwidth_steps));
  }

  // --- query -----------------------------------------------------------------
  auto query = make_query(s.query, roles_of(topo));
  if (!query.has_value()) {
    return fail(kUsage, "unknown query '" + s.query + "'");
  }
  run.network = std::make_unique<net::Network>(std::move(topo), bw_model);

  // --- workload ------------------------------------------------------------
  if (s.workload == "live") {
    Rng wl_rng(s.seed + 2);
    workload::RandomWalkWorkload::Config cfg;
    cfg.horizon_sec = s.duration_sec;
    auto live = std::make_unique<workload::RandomWalkWorkload>(cfg, wl_rng);
    set_base_rates(live.get(), *query, s.rate_eps);
    run.pattern = std::move(live);
  } else if (!s.workload.empty()) {
    std::ifstream in(s.workload);
    if (!in) {
      return fail(kIo, "cannot open workload trace '" + s.workload + "'");
    }
    std::string load_error;
    auto trace = std::make_unique<workload::TraceWorkload>(
        workload::load_workload_trace(in, &load_error));
    if (!load_error.empty()) return fail(kIo, load_error);
    for (OperatorId src : query->sources) {
      trace->bind_source(src, query->plan.op(src).name);
    }
    run.pattern = std::move(trace);
  } else {
    auto stepped = std::make_unique<workload::SteppedWorkload>();
    set_base_rates(stepped.get(), *query, s.rate_eps);
    for (const auto& [t, factor] : s.workload_steps) {
      stepped->add_step(t, factor);
    }
    run.pattern = std::move(stepped);
  }

  // --- system --------------------------------------------------------------
  SystemConfig config;
  config.mode = s.mode;
  config.slo_sec = s.slo_sec;
  config.scheduler.alpha = s.alpha;
  config.seed = s.seed;
  config.standby_replicas = s.standby_replicas;
  config.profile = s.profile;
  config.profile_every = s.profile_every;
  if (topo_spec.kind == net::TopologySpec::Kind::kEdgeHierarchy) {
    // Planet-scale runs: localized site failures re-solve only the affected
    // failure domain's region (DESIGN.md §14). The domains come from the
    // generator; WaspSystem forwards them to the policy automatically.
    config.policy.region_decomposition = true;
  }
  if (!s.slo_spec.empty()) {
    std::string spec_error;
    const auto spec = SloSpec::parse(s.slo_spec, &spec_error);
    if (!spec.has_value()) return fail(kUsage, "bad slo spec: " + spec_error);
    config.slo = *spec;
  }
  if (!trace_path.empty()) {
    run.trace_sink = std::make_shared<obs::FileSink>(trace_path);
    if (!run.trace_sink->ok()) {
      return fail(kIo, "cannot open trace output '" + trace_path + "'");
    }
    config.trace_sink = run.trace_sink;
  }
  run.system = std::make_unique<WaspSystem>(*run.network, std::move(*query),
                                            *run.pattern, config);
  WaspSystem& system = *run.system;

  // Scripted chaos: the injector applies link faults on the Network directly
  // and drives site/straggler/stall faults through the system's injection
  // API. The control plane only ever learns of them via heartbeats.
  if (!s.fault_schedule.empty()) {
    faults::FaultSchedule schedule;
    std::string parse_error;
    if (!faults::FaultSchedule::parse_file(s.fault_schedule, &schedule,
                                           &parse_error)) {
      return fail(kIo, parse_error);
    }
    if (!schedule.fits(run.network->topology().num_sites(), &parse_error)) {
      return fail(kUsage, s.fault_schedule + ": " + parse_error);
    }
    run.injector = std::make_unique<faults::FaultInjector>(
        *run.network, std::move(schedule), Rng(s.seed ^ 0xFA17));
    faults::FaultInjector::Hooks hooks;
    hooks.crash_site = [&system](SiteId site) { system.fail_sites({site}); };
    hooks.restore_site = [&system](SiteId site) {
      system.restore_sites({site});
    };
    hooks.set_straggler = [&system](SiteId site, double f) {
      system.mutable_engine().set_straggler(site, f);
    };
    hooks.stall_control = [&system](double sec) {
      system.stall_control_for(sec);
    };
    run.injector->set_hooks(std::move(hooks));
    run.injector->set_trace(&system.trace());
  }
  return run;
}

void ScenarioRun::run(const std::function<bool()>& stop) {
  const double tick = system->config().tick_sec;
  auto run_to = [&](double until, faults::FaultInjector* faults) {
    while (!(stop && stop()) && system->now() + tick <= until + 1e-9) {
      if (faults != nullptr) faults->tick(system->now());
      system->step();
    }
  };
  if (scenario.failure.has_value()) {
    const auto [at, down_for] = *scenario.failure;
    run_to(at, nullptr);
    system->fail_all_sites();
    run_to(at + down_for, nullptr);
    system->restore_all_sites();
  }
  run_to(scenario.duration_sec, injector.get());
  if (trace_sink != nullptr) trace_sink->flush();
}

}  // namespace wasp::runtime
