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
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/table.h"
#include "exec/parallel.h"
#include "exec/sweep.h"

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
  bool profile = false;
  int profile_every = 60;
};

void print_usage() {
  std::cout <<
      R"(wasp_sweep -- deterministic parallel sweep over WaspSystem runs

  --grid AXIS [AXIS...]     grid axes; every following non-flag argument is
                            one axis, written name=value[,value...]:
                              seeds=1..32         integer list and/or ranges
                              policy=wasp,static  also: no-adapt degrade
                                                  re-assign scale re-plan hybrid
                              query=topk,ysb      also: interest join
                              trace=FILE|live     bandwidth trace CSV (globs ok)
                              fault=FILE          fault schedule (globs ok)
                              duration=N rate=N alpha=X slo=N
                              workload-step=T:F[+T:F...]
                              bandwidth-step=T:F[+T:F...]
                              topology=paper,edge:sites=64;regions=4
                                                  TopologySpec strings
                                                  (DESIGN.md §14); use ';'
                                                  between spec params, ','
                                                  separates axis values
                            cells = cartesian product, last axis fastest
  --sweep-file=FILE         read axes from FILE (one per line, # comments)
  --jobs=N                  runs executed in parallel, one thread each
                            (N >= 1, default: hardware cores; results are
                            byte-identical for any N)
  --out=FILE                merged JSONL (default sweep.jsonl; "-" = stdout)
  --trace-dir=DIR           per-run observability traces DIR/run_<cell>.jsonl
  --profile                 always-on phase profiler: each traced cell emits
                            periodic `profile` events (pure observer; the
                            merged stream is bit-identical either way)
  --profile-every=N         profile-event cadence in ticks (default 60;
                            implies --profile)
  --seed=N                  base seed forked per cell when no seeds axis
                            (default 42)
  --mode=M --query=Q --duration=N --rate=N --alpha=X --slo=N
                            defaults for cells no axis overrides
  --bench-out=FILE          run the grid with --jobs workers AND serially,
                            assert the merged outputs are byte-identical, and
                            write a speedup JSON (wasp-bench-sweep-v1)
  --quiet                   suppress the summary table and progress lines
  --help                    this text

The merged stream is one "sweep_grid" header line plus one "sweep_cell" line
per cell (obs trace-event encoding, seq = cell index + 1); `wasp_trace
validate|diff` accept it. Wall-clock timings never enter the merged stream.
)";
}

bool parse_args(int argc, char** argv, Options* opts) {
  bool in_grid = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    std::string error;
    if (arg.rfind("--", 0) == 0) in_grid = false;
    try {
      if (arg == "--help" || arg == "-h") {
        print_usage();
        std::exit(0);
      } else if (arg == "--grid") {
        in_grid = true;
      } else if (in_grid) {
        if (!opts->grid.parse_arg(arg, &error)) {
          std::cerr << error << "\n";
          return false;
        }
      } else if (auto v = value_of("--sweep-file")) {
        if (!opts->grid.parse_file(*v, &error)) {
          std::cerr << error << "\n";
          return false;
        }
      } else if (auto v = value_of("--jobs")) {
        opts->jobs = parse_number<int>(*v);
        if (opts->jobs < 1) {
          std::cerr << "--jobs must be >= 1\n";
          return false;
        }
      } else if (auto v = value_of("--out")) {
        opts->out = *v;
      } else if (auto v = value_of("--trace-dir")) {
        opts->trace_dir = *v;
      } else if (auto v = value_of("--bench-out")) {
        opts->bench_out = *v;
      } else if (auto v = value_of("--seed")) {
        opts->defaults.base_seed = parse_number<std::uint64_t>(*v);
      } else if (auto v = value_of("--mode")) {
        opts->defaults.mode = *v;
      } else if (auto v = value_of("--query")) {
        opts->defaults.query = *v;
      } else if (auto v = value_of("--duration")) {
        opts->defaults.duration_sec = parse_number<double>(*v);
      } else if (auto v = value_of("--rate")) {
        opts->defaults.rate_eps = parse_number<double>(*v);
      } else if (auto v = value_of("--alpha")) {
        opts->defaults.alpha = parse_number<double>(*v);
      } else if (auto v = value_of("--slo")) {
        opts->defaults.slo_sec = parse_number<double>(*v);
      } else if (auto v = value_of("--profile-every")) {
        opts->profile_every = std::max(1, parse_number<int>(*v));
        opts->profile = true;
      } else if (arg == "--profile") {
        opts->profile = true;
      } else if (arg == "--quiet") {
        opts->quiet = true;
      } else {
        std::cerr << "unknown argument: " << arg << " (see --help)\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "invalid value in " << arg << "\n";
      return false;
    }
  }
  return true;
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
                     std::to_string(r.spec.seed), "ERROR: " + r.error});
      continue;
    }
    table.add_row({std::to_string(r.spec.index), labels_of(r.spec),
                   std::to_string(r.spec.seed),
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
  sweep_opts.profile = opts.profile;
  sweep_opts.profile_every = opts.profile_every;
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
  if (!parse_args(argc, argv, &opts)) return 2;

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
