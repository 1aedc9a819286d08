// wasp_sim: command-line scenario runner.
//
// Drives any of the benchmark queries under configurable dynamics and
// adaptation modes, printing either a human-readable summary or a CSV
// time series -- the general-purpose front door to the simulator.
//
// Examples:
//   wasp_sim                                      # Top-K, full WASP, defaults
//   wasp_sim --query=ysb --mode=degrade --slo=5
//   wasp_sim --workload-step=300:2 --bandwidth-step=900:0.5 --duration=1500
//   wasp_sim --live-bandwidth --live-workload --fail=540:60 --csv
//   wasp_sim --trace=bandwidth.csv                # replay a measured trace
//
// Run `wasp_sim --help` for the full flag list.
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/table.h"
#include "faults/fault_injector.h"
#include "faults/fault_schedule.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/topology_spec.h"
#include "net/trace_io.h"
#include "workload/trace_io.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace {

using namespace wasp;

// SIGINT/SIGTERM land here; the run loops stop at the next tick boundary and
// fall through the normal finish path (flush the FileSink, final profile
// event, metrics dump, report), so an interrupted run still produces a
// `wasp_trace validate`-clean trace.
volatile std::sig_atomic_t g_interrupted = 0;

void handle_stop_signal(int /*signum*/) { g_interrupted = 1; }

struct Options {
  std::string query = "topk";
  std::string mode = "wasp";
  double duration = 900.0;
  double rate = 10'000.0;
  std::uint64_t seed = 7;
  std::string topology;  // --topology spec; empty = paper testbed / --sites
  int sites = 0;    // 0 = the 16-site paper testbed
  int threads = 1;  // intra-run worker threads
  int standby_replicas = 0;  // hot standbys per protected stage
  double slo = 10.0;
  std::string slo_spec;  // --slo=key=value,... (watchdog form)
  double alpha = 0.8;
  bool live_bandwidth = false;
  bool live_workload = false;
  bool csv = false;
  bool verbose = false;
  bool profile = false;
  int profile_every = 60;
  std::string trace_file;
  std::string workload_trace_file;
  std::string trace_out;
  std::string metrics_out;
  std::string bench_out;
  std::string fault_schedule_file;
  std::vector<std::pair<double, double>> workload_steps;
  std::vector<std::pair<double, double>> bandwidth_steps;
  std::optional<std::pair<double, double>> failure;  // (t, duration)
};

void print_usage() {
  std::cout <<
      R"(wasp_sim -- wide-area adaptive stream processing scenario runner

  --query=topk|ysb|interest|join   query to deploy (default topk)
  --mode=wasp|no-adapt|degrade|re-assign|scale|re-plan|hybrid
                                   adaptation mode (default wasp)
  --duration=SECONDS               simulated runtime (default 900)
  --rate=EPS                       base events/s per source site (default 10000)
  --seed=N                         master seed (default 7)
  --sites=N                        run on a uniform N-site clique (4 slots,
                                   500 Mbps, 20 ms) instead of the 16-site
                                   paper testbed; site 0 hosts the sink, the
                                   rest feed sources (scale experiments)
  --topology=SPEC                  generated topology (DESIGN.md §14):
                                     paper            16-site paper testbed
                                     uniform:sites=N,slots=S,bw=MBPS,lat=MS
                                     edge:sites=200,regions=8,core=4,
                                          regional=1,core-slots=16,
                                          regional-slots=8,edge-slots=2-4,
                                          domains-per-region=1
                                   every key optional; ';' also separates
                                   pairs. The edge hierarchy is seeded by
                                   --seed (same seed, same topology) and
                                   auto-enables region-decomposed failure
                                   recovery. Mutually exclusive with --sites
  --threads=N                      intra-run worker threads sharing one run's
                                   tick (default 1). Results and traces are
                                   bit-identical for any N; combine with a
                                   sweep's --jobs so jobs x threads stays
                                   within the machine's cores
  --standby-replicas=N             hot-standby replicas per protected stateful
                                   stage (default 0 = replan-only recovery).
                                   Replicas are placed in distinct failure
                                   domains, kept warm by periodic delta syncs
                                   over the shared WAN, and promoted -- no
                                   solver on the hot path -- when a primary
                                   site is confirmed failed (DESIGN.md §12)
  --slo=SECONDS                    degrade/hybrid SLO (default 10)
  --slo=SPEC                       declarative SLO watchdog instead: comma-
                                   separated bounds evaluated per tick over a
                                   sliding window, e.g.
                                   --slo=delay_p99=5s,ratio_min=0.9,window=30s
                                   (keys: delay_p99 delay_p95 delay_max
                                   ratio_min window). Violation episodes
                                   appear as slo_violation trace spans and
                                   slo.* metrics.
  --alpha=X                        bandwidth utilization threshold (default 0.8)
  --workload-step=T:FACTOR         scale the workload by FACTOR at time T
                                   (repeatable)
  --bandwidth-step=T:FACTOR        scale every link by FACTOR at time T
                                   (repeatable)
  --live-bandwidth                 random-walk bandwidth (factors 0.51-2.36)
  --live-workload                  random-walk workload (factors 0.8-2.4)
  --trace=FILE                     replay a bandwidth-trace CSV
                                   (time_sec,from_site,to_site,factor)
  --workload-trace=FILE            replay a workload-trace CSV
                                   (time_sec,source_name,site,events_per_sec)
  --fail=T:DURATION                revoke all compute at T for DURATION seconds
  --fault-schedule=FILE            replay a scripted chaos schedule (crash /
                                   restore / partition / heal / flap /
                                   straggler / stall lines; see DESIGN.md §8)
  --trace-out=FILE                 write the structured observability trace
                                   (schema-versioned JSONL) to FILE
  --profile                        always-on phase profiler (DESIGN.md §13):
                                   per-tick phase timings and thread-pool
                                   stats, printed as a table at exit and --
                                   with --trace-out -- emitted as periodic
                                   `profile` trace events for `wasp_trace
                                   profile`. Pure observer: results and
                                   traces stay bit-identical (timing fields
                                   are wall_*-prefixed and diff-exempt)
  --profile-every=N                emit a profile event every N ticks
                                   (default 60; implies --profile)
  --metrics=FILE                   write the final metrics-registry snapshot
                                   (flat JSON object) to FILE
  --bench-out=FILE                 write a wall-clock benchmark JSON (wall_ms,
                                   ticks, ticks_per_sec) to FILE
  --csv                            print t,delay_s,ratio,parallelism_x as CSV
  --verbose                        narrate adaptation decisions
  --help                           this text
)";
}

bool parse_pair(const std::string& value, std::pair<double, double>* out) {
  const auto colon = value.find(':');
  if (colon == std::string::npos) return false;
  try {
    out->first = std::stod(value.substr(0, colon));
    out->second = std::stod(value.substr(colon + 1));
  } catch (...) {
    return false;
  }
  return true;
}

bool parse_args(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    } else if (auto v = value_of("--query")) {
      opts->query = *v;
    } else if (auto v = value_of("--mode")) {
      opts->mode = *v;
    } else if (auto v = value_of("--duration")) {
      opts->duration = std::stod(*v);
    } else if (auto v = value_of("--rate")) {
      opts->rate = std::stod(*v);
    } else if (auto v = value_of("--seed")) {
      opts->seed = std::stoull(*v);
    } else if (auto v = value_of("--topology")) {
      opts->topology = *v;
    } else if (auto v = value_of("--sites")) {
      opts->sites = std::stoi(*v);
      if (opts->sites < 2) {
        std::cerr << "--sites needs at least 2 (sink + a source site)\n";
        return false;
      }
    } else if (auto v = value_of("--threads")) {
      opts->threads = std::stoi(*v);
      if (opts->threads < 1) {
        std::cerr << "--threads must be >= 1\n";
        return false;
      }
    } else if (auto v = value_of("--standby-replicas")) {
      opts->standby_replicas = std::stoi(*v);
      if (opts->standby_replicas < 0) {
        std::cerr << "--standby-replicas must be >= 0\n";
        return false;
      }
    } else if (auto v = value_of("--slo")) {
      // Two forms: a plain number is the legacy degrade/hybrid SLO seconds;
      // anything with '=' is a declarative watchdog spec.
      if (v->find('=') != std::string::npos) {
        opts->slo_spec = *v;
      } else {
        opts->slo = std::stod(*v);
      }
    } else if (auto v = value_of("--alpha")) {
      opts->alpha = std::stod(*v);
    } else if (auto v = value_of("--trace")) {
      opts->trace_file = *v;
    } else if (auto v = value_of("--workload-trace")) {
      opts->workload_trace_file = *v;
    } else if (auto v = value_of("--trace-out")) {
      opts->trace_out = *v;
    } else if (auto v = value_of("--metrics")) {
      opts->metrics_out = *v;
    } else if (auto v = value_of("--bench-out")) {
      opts->bench_out = *v;
    } else if (auto v = value_of("--fault-schedule")) {
      opts->fault_schedule_file = *v;
    } else if (auto v = value_of("--workload-step")) {
      std::pair<double, double> step;
      if (!parse_pair(*v, &step)) return false;
      opts->workload_steps.push_back(step);
    } else if (auto v = value_of("--bandwidth-step")) {
      std::pair<double, double> step;
      if (!parse_pair(*v, &step)) return false;
      opts->bandwidth_steps.push_back(step);
    } else if (auto v = value_of("--fail")) {
      std::pair<double, double> f;
      if (!parse_pair(*v, &f)) return false;
      opts->failure = f;
    } else if (auto v = value_of("--profile-every")) {
      opts->profile_every = std::stoi(*v);
      if (opts->profile_every < 1) {
        std::cerr << "--profile-every must be >= 1\n";
        return false;
      }
      opts->profile = true;
    } else if (arg == "--profile") {
      opts->profile = true;
    } else if (arg == "--live-bandwidth") {
      opts->live_bandwidth = true;
    } else if (arg == "--live-workload") {
      opts->live_workload = true;
    } else if (arg == "--csv") {
      opts->csv = true;
    } else if (arg == "--verbose") {
      opts->verbose = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return true;
}

std::optional<runtime::AdaptationMode> mode_of(const std::string& name) {
  if (name == "wasp") return runtime::AdaptationMode::kWasp;
  if (name == "no-adapt") return runtime::AdaptationMode::kNoAdapt;
  if (name == "degrade") return runtime::AdaptationMode::kDegrade;
  if (name == "re-assign") return runtime::AdaptationMode::kReassignOnly;
  if (name == "scale") return runtime::AdaptationMode::kScaleOnly;
  if (name == "re-plan") return runtime::AdaptationMode::kReplanOnly;
  if (name == "hybrid") return runtime::AdaptationMode::kHybrid;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, &opts)) {
    print_usage();
    return 2;
  }
  const auto mode = mode_of(opts.mode);
  if (!mode.has_value()) {
    std::cerr << "unknown mode '" << opts.mode << "'\n";
    return 2;
  }
  if (opts.verbose) set_log_level(LogLevel::kInfo);

  // --- substrate -----------------------------------------------------------
  if (!opts.topology.empty() && opts.sites > 0) {
    std::cerr << "--topology and --sites are mutually exclusive\n";
    return 2;
  }
  std::optional<net::TopologySpec> topo_spec;
  if (!opts.topology.empty()) {
    std::string error;
    topo_spec = net::TopologySpec::parse(opts.topology, &error);
    if (!topo_spec.has_value()) {
      std::cerr << "bad --topology spec: " << error << "\n";
      return 2;
    }
  }
  Rng rng(opts.seed);
  net::Topology topo =
      topo_spec.has_value()
          ? topo_spec->build(rng)
          : (opts.sites > 0
                 ? net::Topology::make_uniform(opts.sites, 4, 500.0, 20.0)
                 : net::Topology::make_paper_testbed(rng));

  std::shared_ptr<const net::BandwidthModel> bw_model =
      std::make_shared<net::ConstantBandwidth>();
  if (!opts.trace_file.empty()) {
    std::ifstream in(opts.trace_file);
    if (!in) {
      std::cerr << "cannot open trace file '" << opts.trace_file << "'\n";
      return 1;
    }
    std::string error;
    auto trace = std::make_shared<net::TraceBandwidth>(
        net::load_bandwidth_trace(in, &error));
    if (!error.empty()) {
      std::cerr << error << "\n";
      return 1;
    }
    bw_model = std::move(trace);
  } else if (opts.live_bandwidth) {
    Rng bw_rng(opts.seed + 1);
    net::RandomWalkBandwidth::Config cfg;
    cfg.horizon_sec = opts.duration;
    cfg.min_factor = 0.51;
    cfg.max_factor = 2.36;
    bw_model = std::make_shared<net::RandomWalkBandwidth>(topo.num_sites(),
                                                          cfg, bw_rng);
  }
  if (!opts.bandwidth_steps.empty()) {
    bw_model = std::make_shared<net::ComposedBandwidth>(
        bw_model,
        std::make_shared<net::SteppedBandwidth>(opts.bandwidth_steps));
  }
  net::Network network(topo, bw_model);

  std::vector<SiteId> east, west, edges, dcs;
  SiteId sink;
  const bool uniform_roles =
      opts.sites > 0 || (topo_spec.has_value() &&
                         topo_spec->kind == net::TopologySpec::Kind::kUniform);
  if (uniform_roles) {
    // Uniform clique (scale experiments): site 0 is the sink hub, every
    // other site feeds sources, split east/west by parity.
    sink = topo.sites().front().id;
    for (const auto& site : topo.sites()) {
      dcs.push_back(site.id);
      if (site.id == sink) continue;
      edges.push_back(site.id);
      (site.id.value() % 2 != 0 ? east : west).push_back(site.id);
    }
  } else {
    // Role selection by site type generalizes from the paper testbed to the
    // edge hierarchy: every edge site feeds sources (split east/west), the
    // first DC (core-0 in the hierarchy) hosts the sink.
    for (const auto& site : topo.sites()) {
      if (site.type == net::SiteType::kEdge) {
        (east.size() <= west.size() ? east : west).push_back(site.id);
        edges.push_back(site.id);
      } else {
        dcs.push_back(site.id);
        if (!sink.valid()) sink = site.id;
      }
    }
  }

  // --- query ----------------------------------------------------------------
  workload::QuerySpec query = [&] {
    if (opts.query == "ysb") return workload::make_ysb_campaign(edges, sink);
    if (opts.query == "interest") {
      return workload::make_events_of_interest(edges, sink);
    }
    if (opts.query == "join") {
      return workload::make_four_source_join(dcs, sink, true);
    }
    return workload::make_topk_topics(east, west, sink);
  }();

  // --- workload ---------------------------------------------------------------
  std::unique_ptr<workload::WorkloadPattern> pattern;
  if (!opts.workload_trace_file.empty()) {
    std::ifstream in(opts.workload_trace_file);
    if (!in) {
      std::cerr << "cannot open workload trace '" << opts.workload_trace_file
                << "'\n";
      return 1;
    }
    std::string error;
    auto trace = std::make_unique<workload::TraceWorkload>(
        workload::load_workload_trace(in, &error));
    if (!error.empty()) {
      std::cerr << error << "\n";
      return 1;
    }
    for (OperatorId src : query.sources) {
      trace->bind_source(src, query.plan.op(src).name);
    }
    pattern = std::move(trace);
  } else if (opts.live_workload) {
    Rng wl_rng(opts.seed + 2);
    workload::RandomWalkWorkload::Config cfg;
    cfg.horizon_sec = opts.duration;
    auto live = std::make_unique<workload::RandomWalkWorkload>(cfg, wl_rng);
    for (OperatorId src : query.sources) {
      for (SiteId s : query.plan.op(src).pinned_sites) {
        live->set_base_rate(src, s, opts.rate);
      }
    }
    pattern = std::move(live);
  } else {
    auto stepped = std::make_unique<workload::SteppedWorkload>();
    for (OperatorId src : query.sources) {
      for (SiteId s : query.plan.op(src).pinned_sites) {
        stepped->set_base_rate(src, s, opts.rate);
      }
    }
    for (const auto& [t, factor] : opts.workload_steps) {
      stepped->add_step(t, factor);
    }
    pattern = std::move(stepped);
  }

  // --- run ----------------------------------------------------------------------
  runtime::SystemConfig config;
  config.mode = *mode;
  config.slo_sec = opts.slo;
  config.scheduler.alpha = opts.alpha;
  config.seed = opts.seed;
  config.threads = opts.threads;
  config.standby_replicas = opts.standby_replicas;
  config.profile = opts.profile;
  config.profile_every = opts.profile_every;
  if (topo_spec.has_value() &&
      topo_spec->kind == net::TopologySpec::Kind::kEdgeHierarchy) {
    // Planet-scale runs: localized site failures re-solve only the affected
    // failure domain's region (DESIGN.md §14). The domains come from the
    // generator; WaspSystem forwards them to the policy automatically.
    config.policy.region_decomposition = true;
  }
  if (!opts.slo_spec.empty()) {
    std::string error;
    const auto spec = runtime::SloSpec::parse(opts.slo_spec, &error);
    if (!spec.has_value()) {
      std::cerr << "bad --slo spec: " << error << "\n";
      return 2;
    }
    config.slo = *spec;
  }
  std::shared_ptr<obs::FileSink> trace_sink;
  if (!opts.trace_out.empty()) {
    trace_sink = std::make_shared<obs::FileSink>(opts.trace_out);
    if (!trace_sink->ok()) {
      std::cerr << "cannot open trace output '" << opts.trace_out << "'\n";
      return 1;
    }
    config.trace_sink = trace_sink;
  }
  runtime::WaspSystem system(network, std::move(query), *pattern, config);

  // Scripted chaos: the injector applies link faults on the Network directly
  // and drives site/straggler/stall faults through the system's injection
  // API. The control plane only ever learns of them via heartbeats.
  std::unique_ptr<faults::FaultInjector> injector;
  if (!opts.fault_schedule_file.empty()) {
    faults::FaultSchedule schedule;
    std::string error;
    if (!faults::FaultSchedule::parse_file(opts.fault_schedule_file, &schedule,
                                           &error)) {
      std::cerr << error << "\n";
      return 1;
    }
    injector = std::make_unique<faults::FaultInjector>(
        network, std::move(schedule), Rng(opts.seed ^ 0xFA17));
    faults::FaultInjector::Hooks hooks;
    hooks.crash_site = [&system](SiteId s) { system.fail_sites({s}); };
    hooks.restore_site = [&system](SiteId s) { system.restore_sites({s}); };
    hooks.set_straggler = [&system](SiteId s, double f) {
      system.mutable_engine().set_straggler(s, f);
    };
    hooks.stall_control = [&system](double sec) {
      system.stall_control_for(sec);
    };
    injector->set_hooks(std::move(hooks));
    injector->set_trace(&system.trace());
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // Tick-at-a-time run loop (instead of run_until) so SIGINT/SIGTERM can
  // stop at a tick boundary and still reach the normal finish path below.
  auto run_to = [&](double until) {
    while (g_interrupted == 0 &&
           system.now() + config.tick_sec <= until + 1e-9) {
      system.step();
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  if (opts.failure.has_value()) {
    run_to(opts.failure->first);
    system.fail_all_sites();
    run_to(opts.failure->first + opts.failure->second);
    system.restore_all_sites();
  }
  if (injector != nullptr) {
    while (g_interrupted == 0 &&
           system.now() + config.tick_sec <= opts.duration + 1e-9) {
      injector->tick(system.now());
      system.step();
    }
  } else {
    run_to(opts.duration);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  if (trace_sink != nullptr) trace_sink->flush();

  if (!opts.bench_out.empty()) {
    std::ofstream bench(opts.bench_out);
    if (!bench) {
      std::cerr << "cannot open bench output '" << opts.bench_out << "'\n";
      return 1;
    }
    // 1 Hz simulation loop; now() counts executed ticks even when a signal
    // stopped the run early.
    const double ticks = system.now();
    bench << "{\n  \"schema\": \"wasp-bench-e2e-v1\",\n"
          << "  \"query\": \"" << opts.query << "\",\n"
          << "  \"mode\": \"" << opts.mode << "\",\n"
          << "  \"duration_sim_sec\": " << opts.duration << ",\n"
          << "  \"rate_eps_per_site\": " << opts.rate << ",\n"
          << "  \"seed\": " << opts.seed << ",\n"
          << "  \"topology\": \""
          << (topo_spec.has_value() ? topo_spec->to_string()
                                    : (opts.sites > 0 ? "uniform" : "paper"))
          << "\",\n"
          << "  \"sites\": " << topo.num_sites() << ",\n"
          << "  \"threads\": " << opts.threads << ",\n"
          << "  \"wall_ms\": " << wall_ms << ",\n"
          << "  \"ticks\": " << ticks << ",\n"
          << "  \"ticks_per_sec\": " << (wall_ms > 0.0 ? ticks * 1e3 / wall_ms
                                                       : 0.0)
          << "\n}\n";
  }

  // Profiler gauges enter the registry only here, after the run: the
  // registry contents stay bit-identical with profiling on or off for the
  // whole simulation (the pure-observer contract, DESIGN.md §13).
  if (opts.profile) system.export_profiler_metrics();

  if (!opts.metrics_out.empty()) {
    std::ofstream metrics(opts.metrics_out);
    if (!metrics) {
      std::cerr << "cannot open metrics output '" << opts.metrics_out << "'\n";
      return 1;
    }
    metrics << "{\n";
    const auto snap = system.metrics().snapshot();
    for (std::size_t i = 0; i < snap.size(); ++i) {
      metrics << "  \"" << snap[i].first << "\": " << snap[i].second
              << (i + 1 < snap.size() ? ",\n" : "\n");
    }
    metrics << "}\n";
  }

  // --- report ---------------------------------------------------------------------
  const auto& rec = system.recorder();
  if (opts.csv) {
    std::cout << "t,delay_s,ratio,parallelism_x\n";
    for (std::size_t i = 0; i < rec.delay().points().size(); ++i) {
      const auto& [t, delay] = rec.delay().points()[i];
      std::cout << t << ',' << delay << ',' << rec.ratio().points()[i].second
                << ',' << rec.parallelism().points()[i].second << '\n';
    }
    return 0;
  }

  std::cout << "query=" << opts.query << " mode=" << opts.mode
            << " duration=" << opts.duration << "s rate=" << opts.rate
            << " ev/s/site seed=" << opts.seed << "\n\n";
  TextTable table({"metric", "value"});
  table.add_row({"avg delay (s)",
                 TextTable::fmt(rec.delay().mean_over(0.0, opts.duration), 3)});
  table.add_row(
      {"p95 delay (s)", TextTable::fmt(rec.delay_histogram().percentile(95), 3)});
  table.add_row(
      {"p99 delay (s)", TextTable::fmt(rec.delay_histogram().percentile(99), 3)});
  table.add_row({"processed (%)",
                 TextTable::fmt(100.0 * rec.processed_fraction(), 2)});
  table.add_row({"dropped events", TextTable::fmt(rec.total_dropped(), 0)});
  table.add_row({"adaptations", std::to_string(rec.events().size())});
  table.print(std::cout);
  if (const auto* watchdog = system.slo_watchdog()) {
    // One parseable line (mirrors the chaos: line) for scripts and CI.
    std::cout << "\nslo: spec=" << watchdog->spec().to_string()
              << " violations=" << watchdog->violations()
              << " violation_seconds=" << watchdog->violation_seconds()
              << " in_violation=" << (watchdog->in_violation() ? 1 : 0)
              << "\n";
  }
  if (g_interrupted != 0) {
    std::cout << "\n[interrupted at t=" << system.now()
              << "s; trace, metrics and report cover the completed ticks]\n";
  }
  if (opts.profile) {
    const auto& accums = system.profiler().accums();
    const auto& step =
        accums[static_cast<std::size_t>(obs::Phase::kStep)];
    std::cout << "\nprofile (" << step.calls << " ticks, "
              << TextTable::fmt(static_cast<double>(step.total_ns) / 1e6, 1)
              << " ms measured):\n";
    TextTable profile_table({"phase", "calls", "total ms", "self ms", "self %"});
    for (std::size_t p = 0; p < accums.size(); ++p) {
      const auto& a = accums[p];
      if (a.calls == 0) continue;
      const double self_pct =
          step.total_ns > 0
              ? 100.0 * static_cast<double>(a.self_ns) /
                    static_cast<double>(step.total_ns)
              : 0.0;
      profile_table.add_row(
          {obs::phase_name(static_cast<obs::Phase>(p)),
           std::to_string(a.calls),
           TextTable::fmt(static_cast<double>(a.total_ns) / 1e6, 2),
           TextTable::fmt(static_cast<double>(a.self_ns) / 1e6, 2),
           TextTable::fmt(self_pct, 1)});
    }
    profile_table.print(std::cout);
  }
  if (!rec.events().empty()) {
    std::cout << "\nadaptations:\n";
    for (const auto& e : rec.events()) {
      std::cout << "  t=" << e.decided_at << "s " << e.kind << " ("
                << e.reason << "), ";
      if (e.aborted()) {
        std::cout << "ABORTED at t=" << e.aborted_at << " (" << e.abort_reason
                  << "), attempt " << e.attempt << "\n";
      } else {
        std::cout << "transition " << e.transition_sec() << "s, migrated "
                  << e.migrated_mb << " MB\n";
      }
    }
  }
  if (injector != nullptr) {
    std::size_t aborted = 0, abandoned = 0, promotions = 0;
    for (const auto& e : rec.events()) {
      if (e.aborted()) ++aborted;
    }
    for (const auto& e : rec.recovery_events()) {
      if (e.kind == "abandon") ++abandoned;
      if (e.kind == "failover") ++promotions;
    }
    // One parseable line the chaos-smoke CI job asserts on.
    std::cout << "\nchaos: recovery_events=" << rec.recovery_events().size()
              << " orphaned_bulk_flows=" << system.orphaned_bulk_flows()
              << " aborted_transitions=" << aborted
              << " abandoned=" << abandoned
              << " faults_injected=" << injector->applied()
              << " standby_promotions=" << promotions << "\n";
    if (!rec.recovery_events().empty()) {
      std::cout << "recovery log:\n";
      for (const auto& e : rec.recovery_events()) {
        std::cout << "  t=" << e.t << "s " << e.kind;
        if (e.site >= 0) std::cout << " site=" << e.site;
        if (e.op >= 0) std::cout << " op=" << e.op;
        if (e.attempt > 0) std::cout << " attempt=" << e.attempt;
        if (e.backoff_sec > 0.0) std::cout << " backoff=" << e.backoff_sec;
        if (!e.detail.empty()) std::cout << " (" << e.detail << ")";
        std::cout << "\n";
      }
    }
  }
  return 0;
}
