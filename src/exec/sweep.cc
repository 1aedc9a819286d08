#include "exec/sweep.h"

#include <fnmatch.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/parse.h"
#include "exec/parallel.h"
#include "runtime/flags.h"

namespace wasp::exec {
namespace {

// Grid axis -> the scenario flag row its values go through. The row name
// is also accepted as an alias of the axis.
const std::pair<const char*, const char*> kAxes[] = {
    {"seeds", "seed"},          {"policy", "mode"}, {"query", "query"},
    {"duration", "duration"},   {"rate", "rate"},   {"alpha", "alpha"},
    {"slo", "slo"},             {"trace", "trace"}, {"fault", "fault-schedule"},
    {"topology", "topology"},   {"workload-step", "workload-step"},
    {"bandwidth-step", "bandwidth-step"}};

std::string canonical_axis(const std::string& name) {
  for (const auto& [axis, row] : kAxes) {
    if (name == row) return axis;
  }
  return name;
}

const char* row_of(const std::string& axis) {
  for (const auto& [name, row] : kAxes) {
    if (axis == name) return row;
  }
  return nullptr;
}

bool has_glob_chars(const std::string& value) {
  return value.find_first_of("*?[") != std::string::npos;
}

// Shell-style glob over one directory level, sorted by path so the axis
// order (hence cell numbering) is stable across filesystems.
bool expand_glob(const std::string& pattern, std::vector<std::string>* out,
                 std::string* error) {
  namespace fs = std::filesystem;
  const auto slash = pattern.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : pattern.substr(0, slash);
  const std::string name_pattern =
      slash == std::string::npos ? pattern : pattern.substr(slash + 1);
  std::vector<std::string> matches;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (fnmatch(name_pattern.c_str(), name.c_str(), 0) == 0) {
      matches.push_back(slash == std::string::npos ? name : dir + "/" + name);
    }
  }
  if (ec) {
    *error = "glob '" + pattern + "': cannot read directory '" + dir + "'";
    return false;
  }
  if (matches.empty()) {
    *error = "glob '" + pattern + "' matched no files";
    return false;
  }
  std::sort(matches.begin(), matches.end());
  out->insert(out->end(), matches.begin(), matches.end());
  return true;
}

// Splits an axis value string into its ordered values: a comma list whose
// items may be "a..b" integer ranges (seeds only) or globs (file axes only).
bool expand_values(const std::string& axis, const std::string& text,
                   std::vector<std::string>* out, std::string* error) {
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto dots = item.find("..");
    if (axis == "seeds" && dots != std::string::npos) {
      std::uint64_t lo = 0, hi = 0;
      if (!try_parse_number(item.substr(0, dots), &lo) ||
          !try_parse_number(item.substr(dots + 2), &hi) || lo > hi) {
        *error = "bad seed range '" + item + "' (want a..b with a <= b)";
        return false;
      }
      for (std::uint64_t s = lo; s <= hi; ++s) out->push_back(std::to_string(s));
    } else if ((axis == "trace" || axis == "fault") && has_glob_chars(item)) {
      if (!expand_glob(item, out, error)) return false;
    } else {
      out->push_back(item);
    }
  }
  if (out->empty()) {
    *error = "axis '" + axis + "' has no values";
    return false;
  }
  return true;
}

}  // namespace

bool GridSpec::parse_arg(const std::string& arg, std::string* error) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    *error = "bad grid axis '" + arg + "' (want name=value[,value...])";
    return false;
  }
  GridAxis axis;
  axis.name = canonical_axis(arg.substr(0, eq));
  if (row_of(axis.name) == nullptr) {
    *error = "unknown grid axis '" + axis.name + "'";
    return false;
  }
  if (!expand_values(axis.name, arg.substr(eq + 1), &axis.values, error)) {
    return false;
  }
  for (GridAxis& existing : axes) {
    if (existing.name == axis.name) {
      existing.values = std::move(axis.values);
      return true;
    }
  }
  axes.push_back(std::move(axis));
  return true;
}

bool GridSpec::parse_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open sweep file '" + path + "'";
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const auto end = line.find_last_not_of(" \t\r");
    if (!parse_arg(line.substr(start, end - start + 1), error)) {
      *error = path + ":" + std::to_string(lineno) + ": " + *error;
      return false;
    }
  }
  return true;
}

std::size_t GridSpec::num_cells() const {
  std::size_t n = 1;
  for (const GridAxis& axis : axes) n *= axis.values.size();
  return n;
}

std::string GridSpec::to_string() const {
  std::string out;
  for (const GridAxis& axis : axes) {
    if (!out.empty()) out += ' ';
    out += axis.name + "=";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += ',';
      out += axis.values[i];
    }
  }
  return out;
}

std::optional<std::vector<RunSpec>> expand_grid(const GridSpec& grid,
                                                const SweepDefaults& defaults,
                                                std::string* error) {
  RunSpec base;
  base.seed_forked = true;
  base.scenario = defaults.scenario;

  const std::size_t n = grid.num_cells();
  std::vector<RunSpec> cells;
  cells.reserve(n);
  for (std::size_t index = 0; index < n; ++index) {
    RunSpec cell = base;
    cell.index = index;
    // Row-major decode: the last axis varies fastest.
    std::size_t remainder = index;
    std::size_t stride = n;
    for (const GridAxis& axis : grid.axes) {
      stride /= axis.values.size();
      const std::size_t pick = remainder / stride;
      remainder %= stride;
      const std::string& value = axis.values[pick];
      try {
        runtime::set_scenario_flag(&cell.scenario, row_of(axis.name), value);
      } catch (const std::exception& e) {
        *error = "cell " + std::to_string(index) + ": invalid value in " +
                 axis.name + "=" + value + ": " + e.what();
        return std::nullopt;
      }
      if (axis.name == "seeds") cell.seed_forked = false;
      cell.labels.emplace_back(axis.name, value);
    }
    // Seed forking by cell index (never by scheduling order) when the grid
    // does not pin seeds explicitly.
    if (cell.seed_forked) {
      cell.scenario.seed = fork_seed(defaults.base_seed, index);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

RunResult run_one(const RunSpec& spec, const std::string& trace_path) {
  RunResult result;
  result.spec = spec;
  const auto wall_start = std::chrono::steady_clock::now();
  runtime::ScenarioError error;
  auto run = runtime::ScenarioRun::build(spec.scenario, trace_path, &error);
  if (!run.has_value()) {
    result.error = error.message;
    return result;
  }
  run->run();

  // ---- summarize ---------------------------------------------------------
  const double duration = spec.scenario.duration_sec;
  const auto& rec = run->system->recorder();
  result.ok = true;
  result.delay_mean_sec = rec.delay().mean_over(0.0, duration);
  result.delay_p50_sec = rec.delay_histogram().percentile(50);
  result.delay_p95_sec = rec.delay_histogram().percentile(95);
  result.delay_p99_sec = rec.delay_histogram().percentile(99);
  result.ratio_mean = rec.ratio().mean_over(0.0, duration);
  result.processed_pct = 100.0 * rec.processed_fraction();
  result.dropped_events = rec.total_dropped();
  result.adaptations = rec.events().size();
  for (const auto& event : rec.events()) {
    if (event.aborted()) ++result.aborted_transitions;
  }
  result.recovery_events = rec.recovery_events().size();
  double first_confirm = -1.0, last_stabilized = -1.0;
  for (const auto& event : rec.recovery_events()) {
    if (event.kind == "confirm_failure" && first_confirm < 0.0) {
      first_confirm = event.t;
    }
    if (event.kind == "stabilized") last_stabilized = event.t;
  }
  if (first_confirm >= 0.0 && last_stabilized >= first_confirm) {
    result.recovery_sec = last_stabilized - first_confirm;
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

obs::TraceEvent RunResult::to_trace_event() const {
  obs::TraceEvent event;
  event.seq = spec.index + 1;  // seq 0 is the sweep_grid header
  event.t = 0.0;
  event.type = "sweep_cell";
  for (const auto& [axis, value] : spec.labels) {
    event.strs.emplace_back(axis, value);
  }
  const runtime::Scenario& s = spec.scenario;
  event.strs.emplace_back("mode", runtime::to_string(s.mode));
  event.strs.emplace_back("query", s.query);
  if (!s.bandwidth.empty()) {
    event.strs.emplace_back("bandwidth_trace", s.bandwidth);
  }
  if (!s.fault_schedule.empty()) {
    event.strs.emplace_back("fault_schedule", s.fault_schedule);
  }
  event.strs.emplace_back("seed_forked", spec.seed_forked ? "true" : "false");
  if (!ok) event.strs.emplace_back("error", error);
  event.nums.emplace_back("cell", static_cast<double>(spec.index));
  event.nums.emplace_back("seed", static_cast<double>(s.seed));
  event.nums.emplace_back("duration_sec", s.duration_sec);
  event.nums.emplace_back("rate_eps", s.rate_eps);
  event.nums.emplace_back("alpha", s.alpha);
  event.nums.emplace_back("slo_sec", s.slo_sec);
  event.nums.emplace_back("ok", ok ? 1.0 : 0.0);
  if (ok) {
    event.nums.emplace_back("delay_mean_sec", delay_mean_sec);
    event.nums.emplace_back("delay_p50_sec", delay_p50_sec);
    event.nums.emplace_back("delay_p95_sec", delay_p95_sec);
    event.nums.emplace_back("delay_p99_sec", delay_p99_sec);
    event.nums.emplace_back("ratio_mean", ratio_mean);
    event.nums.emplace_back("processed_pct", processed_pct);
    event.nums.emplace_back("dropped_events", dropped_events);
    event.nums.emplace_back("adaptations", static_cast<double>(adaptations));
    event.nums.emplace_back("aborted_transitions",
                            static_cast<double>(aborted_transitions));
    event.nums.emplace_back("recovery_events",
                            static_cast<double>(recovery_events));
    event.nums.emplace_back("recovery_sec", recovery_sec);
  }
  return event;
}

std::vector<RunResult> run_sweep(const std::vector<RunSpec>& cells,
                                 const SweepOptions& opts) {
  std::vector<RunResult> results(cells.size());
  std::mutex progress_mu;
  parallel_for(opts.jobs, cells.size(), [&](std::size_t i) {
    std::string trace_path;
    if (!opts.trace_dir.empty()) {
      trace_path =
          opts.trace_dir + "/run_" + std::to_string(cells[i].index) + ".jsonl";
    }
    results[i] = run_one(cells[i], trace_path);
    if (opts.on_cell_done) {
      std::lock_guard<std::mutex> lock(progress_mu);
      opts.on_cell_done(results[i]);
    }
  });
  return results;
}

std::string merged_jsonl(const GridSpec& grid, const SweepDefaults& defaults,
                         const std::vector<RunResult>& results) {
  obs::TraceEvent header;
  header.seq = 0;
  header.t = 0.0;
  header.type = "sweep_grid";
  header.strs.emplace_back("grid", grid.to_string());
  const runtime::Scenario& s = defaults.scenario;
  header.strs.emplace_back("default_mode", runtime::to_string(s.mode));
  header.strs.emplace_back("default_query", s.query);
  header.nums.emplace_back("cells", static_cast<double>(results.size()));
  header.nums.emplace_back("base_seed",
                           static_cast<double>(defaults.base_seed));
  header.nums.emplace_back("default_duration_sec", s.duration_sec);
  header.nums.emplace_back("default_rate_eps", s.rate_eps);
  header.nums.emplace_back("default_alpha", s.alpha);
  header.nums.emplace_back("default_slo_sec", s.slo_sec);

  std::string out = obs::to_json_line(header);
  out.push_back('\n');
  for (const RunResult& result : results) {
    out += obs::to_json_line(result.to_trace_event());
    out.push_back('\n');
  }
  return out;
}

}  // namespace wasp::exec
