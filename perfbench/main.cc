// wasp_perfbench: one benchmark run of one workload (see run.py, which
// builds this binary and is the command to use).
//
//   wasp_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// A run builds the workload's input sets from --seed, runs input set 0 once
// untimed (warm-up), then cycles through the input sets with
// SystemConfig::profile off until --seconds have passed and every set has
// run (set 0 twice), and finally runs set 0 once more with the phase
// profiler on. End-to-end metrics come from the timed runs, per-layer
// metrics from the profiled run. Every run's correctness checks are counted;
// the last stdout line is one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exit code 2 on bad
// arguments.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Percentile;
using perfbench::RunOutcome;
using wasp::obs::Phase;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Options* opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts->workload = value;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opts->seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opts->trace = value == "1" ? 1 : 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opts->workload.empty();
}

// Peak resident set of this process image (VmHWM). Unlike getrusage's
// ru_maxrss it does not inherit the launcher's footprint across exec.
double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;  // 0 when the value is not a sample statistic
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-36s %16.6g %-10s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: wasp_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(opts.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 opts.workload.c_str());
    for (const auto& w : perfbench::workloads()) {
      std::fprintf(stderr, " %s", std::string(w.name).c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const int sets = spec->input_sets;
  auto run = [&](int set, bool profile, perfbench::LatencyHistogram* ticks) {
    return perfbench::execute(*spec, perfbench::input_seed(opts.seed, set),
                              profile, ticks);
  };

  perfbench::Checks checks;
  std::vector<std::optional<RunOutcome>> first(sets);
  auto record = [&](int set, RunOutcome outcome) {
    checks.merge(outcome.checks);
    if (first[set].has_value()) {
      checks.expect(outcome.digest == first[set]->digest,
                    "input set " + std::to_string(set) +
                        ": a second run with the same seed has the same "
                        "results digest");
    } else {
      first[set] = std::move(outcome);
    }
  };

  record(0, run(0, false, nullptr));  // warm-up

  perfbench::LatencyHistogram tick_ns;
  std::vector<double> setup_s, topology_ms, network_ms, deploy_ms;
  std::vector<double> set0_ticks_per_s;  // baseline of the profiled run
  double timed_loop_s = 0.0;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  for (int rep = 1; rep <= sets || elapsed() < opts.seconds; ++rep) {
    const int set = rep % sets;
    RunOutcome outcome = run(set, false, &tick_ns);
    timed_loop_s += outcome.loop_s;
    if (set == 0) set0_ticks_per_s.push_back(outcome.ticks / outcome.loop_s);
    setup_s.push_back(outcome.setup_s());
    topology_ms.push_back(outcome.topology_s * 1e3);
    network_ms.push_back(outcome.network_s * 1e3);
    deploy_ms.push_back(outcome.deploy_s * 1e3);
    record(set, std::move(outcome));
  }

  const RunOutcome prof = run(0, true, nullptr);
  checks.merge(prof.checks);
  checks.expect(prof.digest == first[0]->digest,
                "the profiled run's results digest equals the end-to-end "
                "run's");

  const double peak_rss_mb = peak_rss_kb() / 1024.0;

  // Simulated outputs and trace volume are deterministic per input set:
  // report their median over the sets.
  auto over_sets = [&](const std::function<double(const RunOutcome&)>& f) {
    std::vector<double> values;
    for (const auto& o : first) values.push_back(f(*o));
    return perfbench::percentile(std::move(values), 50);
  };
  // Over the whole timed loop: total ticks over total tick-loop seconds.
  const Percentile tps = {static_cast<double>(tick_ns.count()) / timed_loop_s,
                          tick_ns.count()};
  const Percentile setup = perfbench::percentile(setup_s, 50);
  const Percentile p50 = tick_ns.percentile_us(50);
  const Percentile p99 = tick_ns.percentile_us(99);
  const Percentile processed = over_sets(
      [](const RunOutcome& o) { return 100.0 * o.processed_fraction; });

  const std::vector<Metric> end_to_end = {
      {"ticks_per_s", tps.value, "ticks/s", tps.samples},
      {"setup_s", setup.value, "s", setup.samples},
      {"peak_rss_mb", peak_rss_mb, "MB", 0},
      {"sim_processed_pct", processed.value, "%", processed.samples},
  };

  // Per-layer metrics: phase self time from the profiled run.
  const auto& phases = prof.phases;
  const auto& step = phases[static_cast<std::size_t>(Phase::kStep)];
  auto self_us_per_tick = [&](Phase p) {
    return static_cast<double>(phases[static_cast<std::size_t>(p)].self_ns) /
           1e3 / prof.ticks;
  };
  auto calls = [&](Phase p) {
    return static_cast<double>(phases[static_cast<std::size_t>(p)].calls);
  };
  auto self_us_per_call = [&](Phase p) {
    const auto& a = phases[static_cast<std::size_t>(p)];
    return a.calls > 0 ? static_cast<double>(a.self_ns) / 1e3 /
                             static_cast<double>(a.calls)
                       : 0.0;
  };
  const double coverage_pct =
      step.total_ns > 0 ? 100.0 * (1.0 - static_cast<double>(step.self_ns) /
                                             static_cast<double>(step.total_ns))
                        : 0.0;
  const Percentile set0_tps = perfbench::percentile(set0_ticks_per_s, 50);
  const double prof_tps = prof.ticks / prof.loop_s;
  const double overhead_pct = 100.0 * (set0_tps.value - prof_tps) /
                              set0_tps.value;
  const Percentile trace_bytes = over_sets([](const RunOutcome& o) {
    return static_cast<double>(o.trace.bytes) / o.ticks;
  });
  const Percentile trace_events = over_sets([](const RunOutcome& o) {
    return static_cast<double>(o.trace.events) / o.ticks;
  });
  const Percentile link_alloc_pct = over_sets([](const RunOutcome& o) {
    return o.trace.bytes > 0 ? 100.0 * static_cast<double>(o.link_alloc_bytes) /
                                   static_cast<double>(o.trace.bytes)
                             : 0.0;
  });
  const Percentile delay_p95 =
      over_sets([](const RunOutcome& o) { return o.delay_p95_s.value; });
  const Percentile topo = perfbench::percentile(topology_ms, 50);
  const Percentile netw = perfbench::percentile(network_ms, 50);
  const Percentile deploy = perfbench::percentile(deploy_ms, 50);

  const std::vector<Metric> per_layer = {
      {"engine.reset_us_per_tick", self_us_per_tick(Phase::kEngineReset),
       "us/tick", 0},
      {"engine.stage_us_per_tick", self_us_per_tick(Phase::kEngineStage),
       "us/tick", 0},
      {"engine.channel_us_per_tick", self_us_per_tick(Phase::kEngineChannel),
       "us/tick", 0},
      {"engine.checkpoint_us_per_tick",
       self_us_per_tick(Phase::kEngineCheckpoint), "us/tick", 0},
      {"engine.delay_us_per_tick", self_us_per_tick(Phase::kEngineDelay),
       "us/tick", 0},
      {"net.waterfill_us_per_tick", self_us_per_tick(Phase::kWaterfill),
       "us/tick", 0},
      {"net.flows", static_cast<double>(prof.flows), "count", 0},
      {"engine.tasks", static_cast<double>(prof.tasks), "count", 0},
      {"obs.emit_us_per_tick", self_us_per_tick(Phase::kEngineEmit),
       "us/tick", 0},
      // Nested in engine.emit and waterfill, whose events reach the sink.
      {"obs.sink_us_per_tick",
       static_cast<double>(prof.sink_ns) / 1e3 / prof.ticks,
       "us/tick", 0},
      {"obs.trace_events_per_tick", trace_events.value, "events/tick",
       trace_events.samples},
      {"obs.trace_bytes_per_tick", trace_bytes.value, "B/tick",
       trace_bytes.samples},
      {"obs.link_alloc_bytes_pct", link_alloc_pct.value, "%",
       link_alloc_pct.samples},
      {"adapt.monitor_us_per_tick", self_us_per_tick(Phase::kMonitorExtract),
       "us/tick", 0},
      {"adapt.policy_us_per_call", self_us_per_call(Phase::kPolicyDecide),
       "us/call", 0},
      {"adapt.policy_calls", calls(Phase::kPolicyDecide), "count", 0},
      {"physical.placement_us_per_solve",
       self_us_per_call(Phase::kSolverPlacement), "us/solve", 0},
      {"physical.placement_solves", calls(Phase::kSolverPlacement), "count",
       0},
      {"state.migration_us_per_solve",
       self_us_per_call(Phase::kSolverMigration), "us/solve", 0},
      {"state.migration_solves", calls(Phase::kSolverMigration), "count", 0},
      {"setup.topology_ms", topo.value, "ms", topo.samples},
      {"setup.network_ms", netw.value, "ms", netw.samples},
      {"setup.deploy_ms", deploy.value, "ms", deploy.samples},
      {"workload.apply_us_per_tick", self_us_per_tick(Phase::kWorkload),
       "us/tick", 0},
      {"runtime.control_self_us_per_tick", self_us_per_tick(Phase::kControl),
       "us/tick", 0},
      {"runtime.record_us_per_tick", self_us_per_tick(Phase::kRecord),
       "us/tick", 0},
      {"runtime.tick_p50_us", p50.value, "us", p50.samples},
      {"runtime.tick_p99_us", p99.value, "us", p99.samples},
      {"runtime.adaptations", static_cast<double>(prof.adaptations), "count",
       0},
      {"resilience.standby_sync_us_per_tick",
       self_us_per_tick(Phase::kStandbySync), "us/tick", 0},
      {"resilience.completed_syncs", static_cast<double>(prof.completed_syncs),
       "count", 0},
      {"resilience.promotions", prof.promotions, "count", 0},
      {"faults.inject_us_per_tick",
       static_cast<double>(prof.inject_ns) / 1e3 / prof.ticks,
       "us/tick", 0},
      {"faults.recovery_events", static_cast<double>(prof.recovery_events),
       "count", 0},
      {"state.transition_aborts", prof.transition_aborts, "count", 0},
      {"state.transition_retries", prof.transition_retries, "count", 0},
      {"state.migrated_mb", prof.migrated_mb, "MB", 0},
      {"sim.delay_p95_s", delay_p95.value, "s", delay_p95.samples},
      {"profile.coverage_pct", coverage_pct, "%", 0},
      {"profile.overhead_pct", overhead_pct, "%", 0},
  };

  bool finite = true;
  for (const auto* list : {&end_to_end, &per_layer}) {
    for (const auto& m : *list) finite = finite && std::isfinite(m.value);
  }
  checks.expect(finite, "every reported metric is finite");

  std::printf("host: cores=%u cpu=\"%s\" threads=1\n",
              std::thread::hardware_concurrency(), cpu_model().c_str());
  std::printf(
      "workload: %s seed=%llu input_sets=%d ticks_per_run=%d timed_runs=%zu "
      "timed_ticks=%llu\n",
      std::string(spec->name).c_str(),
      static_cast<unsigned long long>(opts.seed), sets, spec->ticks,
      setup_s.size(), static_cast<unsigned long long>(tick_ns.count()));
  print_table("end-to-end (profiling off; n = samples behind the statistic):",
              end_to_end);
  print_table("per-layer (profiled run of input set 0 unless n is shown):",
              per_layer);
  std::printf("checks: attempted=%d failed=%d\n", checks.attempted,
              checks.failed);
  for (const auto& f : checks.failures) std::printf("  FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  const auto& reported = opts.trace == 1 ? per_layer : end_to_end;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const auto& m = reported[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
