// wasp_sweep: deterministic parallel sweep runner.
//
// Expands a declarative grid over seeds / policies / queries / traces /
// fault schedules into independent WaspSystem runs, executes them across N
// worker threads (shared-nothing: every run owns its whole world), and
// merges the per-cell summaries into one ordered JSONL stream plus a
// human-readable table. The merged output is byte-identical for --jobs 1
// and --jobs N (DESIGN.md §9); wall-clock numbers go to stderr and the
// optional --bench-out JSON only.
//
// Examples:
//   wasp_sweep --grid seeds=1..32 policy=wasp,static --jobs=8 --out=sweep.jsonl
//   wasp_sweep --grid fault=examples/*.fsched seeds=1..4 --duration=300
//   wasp_sweep --sweep-file=grids/fig09.sweep --jobs=4
//   wasp_sweep --grid seeds=1..32 --bench-out=BENCH_sweep.json   # serial-vs-
//       parallel speedup benchmark; also asserts the merged outputs match
//
// Run `wasp_sweep --help` for the full flag list.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/table.h"
#include "exec/parallel.h"
#include "exec/sweep.h"
#include "runtime/flags.h"

namespace {

using namespace wasp;

struct Options {
  exec::GridSpec grid;
  exec::SweepDefaults defaults;
  int jobs = exec::hardware_workers();
  std::string out = "sweep.jsonl";
  std::string trace_dir;
  std::string bench_out;
  bool quiet = false;
};

runtime::FlagTable sweep_flags(Options* opts) {
  runtime::FlagTable flags(
      "wasp_sweep -- deterministic parallel sweep over WaspSystem runs",
      "The merged stream is one \"sweep_grid\" header line plus one "
      "\"sweep_cell\" line\nper cell (obs trace-event encoding, seq = cell "
      "index + 1); `wasp_trace\nvalidate|diff` accept it. Wall-clock timings "
      "never enter the merged stream.\n");
  auto require = [](bool ok, const std::string& error) {
    if (!ok) throw std::invalid_argument(error);
  };
  flags.add({"--grid", "AXIS...",
             "grid axes, written name=value[,value...]; every\n"
             "following argument not starting with '-' is one.\n"
             "An axis applies each value through the flag of\n"
             "the same name: seeds (--seed; a..b ranges), policy\n"
             "(--mode), query, duration, rate, alpha, slo,\n"
             "trace (globs), fault (--fault-schedule; globs),\n"
             "workload-step, bandwidth-step ('+'-joined T:F),\n"
             "topology (';' between spec params). Cells are the\n"
             "cartesian product, last axis fastest",
             [opts, require](const std::string& v) {
               std::string error;
               require(opts->grid.parse_arg(v, &error), error);
             },
             "", /*greedy=*/true});
  flags.add({"--sweep-file", "FILE",
             "read axes from FILE (one per line, # comments)",
             [opts, require](const std::string& v) {
               std::string error;
               require(opts->grid.parse_file(v, &error), error);
             }});
  flags.add({"--jobs", "N",
             "runs executed in parallel, one thread each\n"
             "(N >= 1, default: hardware cores; results are\n"
             "byte-identical for any N)",
             [opts](const std::string& v) {
               opts->jobs = parse_number<int>(v);
               if (opts->jobs < 1) throw std::invalid_argument("must be >= 1");
             }});
  flags.add({"--out", "FILE",
             "merged JSONL (default sweep.jsonl; \"-\" = stdout)",
             [opts](const std::string& v) { opts->out = v; }});
  flags.add({"--trace-dir", "DIR",
             "per-run observability traces DIR/run_<cell>.jsonl",
             [opts](const std::string& v) { opts->trace_dir = v; }});
  flags.add({"--seed", "N",
             "base seed forked per cell when no seeds axis\n(default 42)",
             [opts](const std::string& v) {
               opts->defaults.base_seed = parse_number<std::uint64_t>(v);
             }});
  flags.add_scenario(&opts->defaults.scenario,
                     {"mode", "query", "duration", "rate", "alpha", "slo",
                      "profile", "profile-every"});
  flags.add({"--bench-out", "FILE",
             "run the grid with --jobs workers AND serially,\n"
             "assert the merged outputs are byte-identical,\n"
             "and write a speedup JSON (wasp-bench-sweep-v1)",
             [opts](const std::string& v) { opts->bench_out = v; }});
  flags.add({"--quiet", "", "suppress the summary table and progress lines",
             [opts](const std::string&) { opts->quiet = true; }});
  return flags;
}

std::string labels_of(const exec::RunSpec& spec) {
  std::string out;
  for (const auto& [axis, value] : spec.labels) {
    if (!out.empty()) out += ' ';
    out += axis + "=" + value;
  }
  if (out.empty()) return std::string("-");
  return out;
}

void print_summary(const std::vector<exec::RunResult>& results) {
  TextTable table({"cell", "config", "seed", "p50(s)", "p95(s)", "p99(s)",
                   "ratio", "proc%", "adapt", "recov(s)"});
  for (const exec::RunResult& r : results) {
    if (!r.ok) {
      table.add_row({std::to_string(r.spec.index), labels_of(r.spec),
                     std::to_string(r.spec.scenario.seed),
                     "ERROR: " + r.error});
      continue;
    }
    table.add_row({std::to_string(r.spec.index), labels_of(r.spec),
                   std::to_string(r.spec.scenario.seed),
                   TextTable::fmt(r.delay_p50_sec, 3),
                   TextTable::fmt(r.delay_p95_sec, 3),
                   TextTable::fmt(r.delay_p99_sec, 3),
                   TextTable::fmt(r.ratio_mean, 3),
                   TextTable::fmt(r.processed_pct, 2),
                   std::to_string(r.adaptations),
                   TextTable::fmt(r.recovery_sec, 1)});
  }
  table.print(std::cout);
}

// Runs the whole grid once; wall time out-param.
std::vector<exec::RunResult> run_grid(const std::vector<exec::RunSpec>& cells,
                                      const Options& opts, int jobs,
                                      double* wall_ms) {
  exec::SweepOptions sweep_opts;
  sweep_opts.jobs = jobs;
  sweep_opts.trace_dir = opts.trace_dir;
  if (!opts.quiet) {
    std::size_t done = 0;
    const std::size_t total = cells.size();
    sweep_opts.on_cell_done = [&done, total](const exec::RunResult& r) {
      ++done;
      std::cerr << "sweep: " << done << "/" << total << " cell "
                << r.spec.index << " (" << labels_of(r.spec) << ") "
                << (r.ok ? "" : "FAILED ") << static_cast<long>(r.wall_ms)
                << " ms\n";
    };
  }
  const auto start = std::chrono::steady_clock::now();
  auto results = exec::run_sweep(cells, sweep_opts);
  *wall_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (const auto rc = sweep_flags(&opts).parse(argc, argv)) return *rc;

  std::string error;
  const auto cells = exec::expand_grid(opts.grid, opts.defaults, &error);
  if (!cells.has_value()) {
    std::cerr << error << "\n";
    return 2;
  }
  if (cells->empty()) {
    std::cerr << "empty grid (see --help)\n";
    return 2;
  }

  double wall_ms = 0.0;
  const auto results = run_grid(*cells, opts, opts.jobs, &wall_ms);
  const std::string merged =
      exec::merged_jsonl(opts.grid, opts.defaults, results);

  // The speedup benchmark re-runs the identical grid serially and insists on
  // byte-identical merged output -- the determinism contract, enforced on
  // every benchmark run.
  if (!opts.bench_out.empty()) {
    double serial_wall_ms = 0.0;
    Options serial_opts = opts;
    serial_opts.trace_dir.clear();  // don't overwrite the parallel run's traces
    const auto serial_results =
        run_grid(*cells, serial_opts, /*jobs=*/1, &serial_wall_ms);
    const std::string serial_merged =
        exec::merged_jsonl(opts.grid, opts.defaults, serial_results);
    if (serial_merged != merged) {
      std::cerr << "DETERMINISM VIOLATION: --jobs " << opts.jobs
                << " merged output differs from --jobs 1\n";
      return 1;
    }
    std::ofstream bench(opts.bench_out);
    if (!bench) {
      std::cerr << "cannot open bench output '" << opts.bench_out << "'\n";
      return 1;
    }
    const double speedup =
        wall_ms > 0.0 ? serial_wall_ms / wall_ms : 0.0;
    bench << "{\n  \"schema\": \"wasp-bench-sweep-v1\",\n"
          << "  \"grid\": \"" << opts.grid.to_string() << "\",\n"
          << "  \"cells\": " << cells->size() << ",\n"
          << "  \"jobs\": " << opts.jobs << ",\n"
          << "  \"hardware_cores\": " << exec::hardware_workers()
          << ",\n"
          << "  \"serial_wall_ms\": " << serial_wall_ms << ",\n"
          << "  \"parallel_wall_ms\": " << wall_ms << ",\n"
          << "  \"speedup\": " << speedup << ",\n"
          << "  \"deterministic\": true\n}\n";
    std::cerr << "sweep bench: " << cells->size() << " cells, jobs="
              << opts.jobs << ": serial " << static_cast<long>(serial_wall_ms)
              << " ms, parallel " << static_cast<long>(wall_ms)
              << " ms, speedup " << speedup << "x (merged outputs identical)\n";
  }

  if (opts.out == "-") {
    std::cout << merged;
  } else {
    std::ofstream out(opts.out);
    if (!out) {
      std::cerr << "cannot open output '" << opts.out << "'\n";
      return 1;
    }
    out << merged;
  }

  if (!opts.quiet) print_summary(results);
  std::cerr << "sweep: " << cells->size() << " cells, jobs=" << opts.jobs
            << ", wall " << static_cast<long>(wall_ms)
            << " ms (timings are not part of the merged output)\n";

  for (const exec::RunResult& r : results) {
    if (!r.ok) return 1;
  }
  return 0;
}
