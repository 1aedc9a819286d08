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
#include <fstream>
#include <iostream>
#include <string>

#include "common/log.h"
#include "common/table.h"
#include "obs/profiler.h"
#include "runtime/flags.h"
#include "runtime/scenario.h"

namespace {

using namespace wasp;

// SIGINT/SIGTERM land here; the run loop stops at the next tick boundary and
// falls through the normal finish path (flush the FileSink, final profile
// event, metrics dump, report), so an interrupted run still produces a
// `wasp_trace validate`-clean trace.
volatile std::sig_atomic_t g_interrupted = 0;

void handle_stop_signal(int /*signum*/) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
  runtime::Scenario scenario;
  std::string trace_out, metrics_out, bench_out;
  bool csv = false;
  bool verbose = false;
  runtime::FlagTable flags(
      "wasp_sim -- wide-area adaptive stream processing scenario runner");
  flags.add_scenario(&scenario);
  auto store = [](std::string* field) {
    return [field](const std::string& v) { *field = v; };
  };
  flags.add({"--trace-out", "FILE",
             "write the structured observability trace\n"
             "(schema-versioned JSONL) to FILE",
             store(&trace_out)});
  flags.add({"--metrics", "FILE",
             "write the final metrics-registry snapshot\n"
             "(flat JSON object) to FILE",
             store(&metrics_out)});
  flags.add({"--bench-out", "FILE",
             "write a wall-clock benchmark JSON (wall_ms,\n"
             "ticks, ticks_per_sec) to FILE",
             store(&bench_out)});
  flags.add({"--csv", "", "print t,delay_s,ratio,parallelism_x as CSV",
             [&csv](const std::string&) { csv = true; }});
  flags.add({"--verbose", "", "narrate adaptation decisions",
             [&verbose](const std::string&) { verbose = true; }});
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  if (verbose) set_log_level(LogLevel::kInfo);

  runtime::ScenarioError error;
  auto run = runtime::ScenarioRun::build(scenario, trace_out, &error);
  if (!run.has_value()) {
    std::cerr << error.message << "\n";
    return error.exit_code;
  }
  runtime::WaspSystem& system = *run->system;

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  const auto wall_start = std::chrono::steady_clock::now();
  run->run([] { return g_interrupted != 0; });
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  if (!bench_out.empty()) {
    std::ofstream bench(bench_out);
    if (!bench) {
      std::cerr << "cannot open bench output '" << bench_out << "'\n";
      return 1;
    }
    // 1 Hz simulation loop; now() counts executed ticks even when a signal
    // stopped the run early.
    const double ticks = system.now();
    bench << "{\n  \"schema\": \"wasp-bench-e2e-v1\",\n"
          << "  \"query\": \"" << scenario.query << "\",\n"
          << "  \"mode\": \"" << runtime::to_string(scenario.mode) << "\",\n"
          << "  \"duration_sim_sec\": " << scenario.duration_sec << ",\n"
          << "  \"rate_eps_per_site\": " << scenario.rate_eps << ",\n"
          << "  \"seed\": " << scenario.seed << ",\n"
          << "  \"topology\": \""
          << (scenario.topology.empty() ? "paper" : scenario.topology)
          << "\",\n"
          << "  \"sites\": " << run->network->topology().num_sites() << ",\n"
          << "  \"wall_ms\": " << wall_ms << ",\n"
          << "  \"ticks\": " << ticks << ",\n"
          << "  \"ticks_per_sec\": " << (wall_ms > 0.0 ? ticks * 1e3 / wall_ms
                                                       : 0.0)
          << "\n}\n";
  }

  // Profiler gauges enter the registry only here, after the run: the
  // registry contents stay bit-identical with profiling on or off for the
  // whole simulation (the pure-observer contract, DESIGN.md §13).
  if (scenario.profile) system.export_profiler_metrics();

  if (!metrics_out.empty()) {
    std::ofstream metrics(metrics_out);
    if (!metrics) {
      std::cerr << "cannot open metrics output '" << metrics_out << "'\n";
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
  if (csv) {
    std::cout << "t,delay_s,ratio,parallelism_x\n";
    for (std::size_t i = 0; i < rec.delay().points().size(); ++i) {
      const auto& [t, delay] = rec.delay().points()[i];
      std::cout << t << ',' << delay << ',' << rec.ratio().points()[i].second
                << ',' << rec.parallelism().points()[i].second << '\n';
    }
    return 0;
  }

  std::cout << "query=" << scenario.query << " mode=" << runtime::to_string(scenario.mode)
            << " duration=" << scenario.duration_sec << "s rate=" << scenario.rate_eps
            << " ev/s/site seed=" << scenario.seed << "\n\n";
  TextTable table({"metric", "value"});
  table.add_row({"avg delay (s)",
                 TextTable::fmt(rec.delay().mean_over(0.0, scenario.duration_sec), 3)});
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
  if (scenario.profile) {
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
  if (const auto* injector = run->injector.get()) {
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
