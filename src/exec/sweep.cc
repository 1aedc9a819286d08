#include "exec/sweep.h"

#include <fnmatch.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/rng.h"
#include "exec/parallel.h"
#include "faults/fault_injector.h"
#include "faults/fault_schedule.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/topology_spec.h"
#include "net/trace_io.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::exec {
namespace {

const char* kAxisNames[] = {"seeds",    "policy",        "query",
                            "duration", "rate",          "alpha",
                            "slo",      "trace",         "fault",
                            "workload-step", "bandwidth-step", "topology"};

std::string canonical_axis(const std::string& name) {
  if (name == "seed") return "seeds";
  if (name == "mode") return "policy";
  if (name == "fault-schedule") return "fault";
  return name;
}

bool known_axis(const std::string& name) {
  for (const char* known : kAxisNames) {
    if (name == known) return true;
  }
  return false;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  try {
    std::size_t pos = 0;
    *out = std::stoull(text, &pos);
    return pos == text.size();
  } catch (...) {
    return false;
  }
}

bool parse_double(const std::string& text, double* out) {
  try {
    std::size_t pos = 0;
    *out = std::stod(text, &pos);
    return pos == text.size();
  } catch (...) {
    return false;
  }
}

// "T:F" pairs joined by '+': "300:2+600:1".
bool parse_steps(const std::string& text,
                 std::vector<std::pair<double, double>>* out) {
  out->clear();
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, '+')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) return false;
    std::pair<double, double> step;
    if (!parse_double(item.substr(0, colon), &step.first) ||
        !parse_double(item.substr(colon + 1), &step.second)) {
      return false;
    }
    out->push_back(step);
  }
  return !out->empty();
}

bool mode_valid(const std::string& name) {
  return name == "wasp" || name == "static" || name == "no-adapt" ||
         name == "degrade" || name == "re-assign" || name == "scale" ||
         name == "re-plan" || name == "hybrid";
}

std::optional<runtime::AdaptationMode> mode_of(const std::string& name) {
  if (name == "wasp") return runtime::AdaptationMode::kWasp;
  if (name == "static" || name == "no-adapt") {
    return runtime::AdaptationMode::kNoAdapt;
  }
  if (name == "degrade") return runtime::AdaptationMode::kDegrade;
  if (name == "re-assign") return runtime::AdaptationMode::kReassignOnly;
  if (name == "scale") return runtime::AdaptationMode::kScaleOnly;
  if (name == "re-plan") return runtime::AdaptationMode::kReplanOnly;
  if (name == "hybrid") return runtime::AdaptationMode::kHybrid;
  return std::nullopt;
}

bool query_valid(const std::string& name) {
  return name == "topk" || name == "ysb" || name == "interest" ||
         name == "join";
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
      if (!parse_u64(item.substr(0, dots), &lo) ||
          !parse_u64(item.substr(dots + 2), &hi) || lo > hi) {
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

// Applies one axis value to the cell; false with *error on a bad value.
bool apply_axis(const std::string& axis, const std::string& value,
                RunSpec* spec, std::string* error) {
  if (axis == "seeds") {
    if (!parse_u64(value, &spec->seed)) {
      *error = "bad seed '" + value + "'";
      return false;
    }
    spec->seed_forked = false;
    return true;
  }
  if (axis == "policy") {
    if (!mode_valid(value)) {
      *error = "unknown policy '" + value + "'";
      return false;
    }
    spec->mode = value == "static" ? "no-adapt" : value;
    return true;
  }
  if (axis == "query") {
    if (!query_valid(value)) {
      *error = "unknown query '" + value + "'";
      return false;
    }
    spec->query = value;
    return true;
  }
  if (axis == "duration") return parse_double(value, &spec->duration_sec) ||
                                 (*error = "bad duration '" + value + "'",
                                  false);
  if (axis == "rate") return parse_double(value, &spec->rate_eps) ||
                             (*error = "bad rate '" + value + "'", false);
  if (axis == "alpha") return parse_double(value, &spec->alpha) ||
                              (*error = "bad alpha '" + value + "'", false);
  if (axis == "slo") return parse_double(value, &spec->slo_sec) ||
                            (*error = "bad slo '" + value + "'", false);
  if (axis == "trace") {
    spec->bandwidth_trace = value == "none" ? "" : value;
    return true;
  }
  if (axis == "fault") {
    spec->fault_schedule = value == "none" ? "" : value;
    return true;
  }
  if (axis == "workload-step") {
    if (!parse_steps(value, &spec->workload_steps)) {
      *error = "bad workload-step '" + value + "' (want T:F, '+'-joined)";
      return false;
    }
    return true;
  }
  if (axis == "bandwidth-step") {
    if (!parse_steps(value, &spec->bandwidth_steps)) {
      *error = "bad bandwidth-step '" + value + "' (want T:F, '+'-joined)";
      return false;
    }
    return true;
  }
  if (axis == "topology") {
    // Specs use ';' between params ("edge:sites=64;regions=4") because ','
    // separates axis values. "paper" resets to the default testbed.
    std::string parse_error;
    const auto topo = net::TopologySpec::parse(value, &parse_error);
    if (!topo.has_value()) {
      *error = "bad topology '" + value + "': " + parse_error;
      return false;
    }
    spec->topology = topo->kind == net::TopologySpec::Kind::kPaper
                         ? std::string{}
                         : topo->to_string();
    return true;
  }
  *error = "unknown axis '" + axis + "'";
  return false;
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
  if (!known_axis(axis.name)) {
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
  base.seed = defaults.base_seed;
  base.seed_forked = true;
  base.mode = defaults.mode;
  base.query = defaults.query;
  base.duration_sec = defaults.duration_sec;
  base.rate_eps = defaults.rate_eps;
  base.alpha = defaults.alpha;
  base.slo_sec = defaults.slo_sec;

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
      if (!apply_axis(axis.name, value, &cell, error)) {
        *error = "cell " + std::to_string(index) + ": " + *error;
        return std::nullopt;
      }
      cell.labels.emplace_back(axis.name, value);
    }
    // Seed forking by cell index (never by scheduling order) when the grid
    // does not pin seeds explicitly.
    if (cell.seed_forked) cell.seed = fork_seed(defaults.base_seed, index);
    cells.push_back(std::move(cell));
  }
  return cells;
}

RunResult run_one(const RunSpec& spec, const std::string& trace_path,
                  bool profile, int profile_every) {
  RunResult result;
  result.spec = spec;
  const auto wall_start = std::chrono::steady_clock::now();
  auto fail = [&](const std::string& why) {
    result.ok = false;
    result.error = why;
    return result;
  };

  // ---- private, shared-nothing run context -------------------------------
  Rng rng(spec.seed);
  net::TopologySpec topo_spec;  // Kind::kPaper
  if (!spec.topology.empty()) {
    std::string spec_error;
    const auto parsed = net::TopologySpec::parse(spec.topology, &spec_error);
    if (!parsed.has_value()) return fail("bad topology: " + spec_error);
    topo_spec = *parsed;
  }
  net::Topology topo = topo_spec.build(rng);

  std::shared_ptr<const net::BandwidthModel> bw_model =
      std::make_shared<net::ConstantBandwidth>();
  if (spec.bandwidth_trace == "live") {
    Rng bw_rng(spec.seed + 1);
    net::RandomWalkBandwidth::Config cfg;
    cfg.horizon_sec = spec.duration_sec;
    cfg.min_factor = 0.51;
    cfg.max_factor = 2.36;
    bw_model = std::make_shared<net::RandomWalkBandwidth>(topo.num_sites(),
                                                          cfg, bw_rng);
  } else if (!spec.bandwidth_trace.empty()) {
    std::ifstream in(spec.bandwidth_trace);
    if (!in) return fail("cannot open trace '" + spec.bandwidth_trace + "'");
    std::string error;
    auto trace = std::make_shared<net::TraceBandwidth>(
        net::load_bandwidth_trace(in, &error));
    if (!error.empty()) return fail(error);
    bw_model = std::move(trace);
  }
  if (!spec.bandwidth_steps.empty()) {
    bw_model = std::make_shared<net::ComposedBandwidth>(
        bw_model, std::make_shared<net::SteppedBandwidth>(spec.bandwidth_steps));
  }
  net::Network network(topo, bw_model);

  std::vector<SiteId> east, west, edges, dcs;
  SiteId sink;
  for (const auto& site : topo.sites()) {
    if (site.type == net::SiteType::kEdge) {
      (east.size() <= west.size() ? east : west).push_back(site.id);
      edges.push_back(site.id);
    } else {
      dcs.push_back(site.id);
      if (!sink.valid()) sink = site.id;
    }
  }
  if (edges.empty()) {
    // Uniform topologies have no edge tier; every non-sink site feeds sources
    // (the wasp_sim hub layout) so the queries still have inputs.
    for (const auto& site : topo.sites()) {
      if (site.id == sink) continue;
      (east.size() <= west.size() ? east : west).push_back(site.id);
      edges.push_back(site.id);
    }
  }

  workload::QuerySpec query = [&] {
    if (spec.query == "ysb") return workload::make_ysb_campaign(edges, sink);
    if (spec.query == "interest") {
      return workload::make_events_of_interest(edges, sink);
    }
    if (spec.query == "join") {
      return workload::make_four_source_join(dcs, sink, true);
    }
    return workload::make_topk_topics(east, west, sink);
  }();

  workload::SteppedWorkload pattern;
  for (OperatorId src : query.sources) {
    for (SiteId s : query.plan.op(src).pinned_sites) {
      pattern.set_base_rate(src, s, spec.rate_eps);
    }
  }
  for (const auto& [t, factor] : spec.workload_steps) {
    pattern.add_step(t, factor);
  }

  runtime::SystemConfig config;
  const auto mode = mode_of(spec.mode);
  if (!mode.has_value()) return fail("unknown mode '" + spec.mode + "'");
  config.mode = *mode;
  config.slo_sec = spec.slo_sec;
  config.scheduler.alpha = spec.alpha;
  config.seed = spec.seed;
  if (topo_spec.kind == net::TopologySpec::Kind::kEdgeHierarchy) {
    // Planet-scale cells re-plan per failure domain (DESIGN.md §14) so a
    // localized failure never re-solves the whole placement.
    config.policy.region_decomposition = true;
  }
  config.profile = profile;
  config.profile_every = std::max(1, profile_every);
  std::shared_ptr<obs::FileSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_shared<obs::FileSink>(trace_path);
    if (!trace_sink->ok()) {
      return fail("cannot open trace output '" + trace_path + "'");
    }
    config.trace_sink = trace_sink;
  }
  runtime::WaspSystem system(network, std::move(query), pattern, config);

  std::unique_ptr<faults::FaultInjector> injector;
  if (!spec.fault_schedule.empty()) {
    faults::FaultSchedule schedule;
    std::string error;
    if (!faults::FaultSchedule::parse_file(spec.fault_schedule, &schedule,
                                           &error)) {
      return fail(error);
    }
    injector = std::make_unique<faults::FaultInjector>(
        network, std::move(schedule), Rng(spec.seed ^ 0xFA17));
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

  // ---- run ---------------------------------------------------------------
  if (injector != nullptr) {
    while (system.now() + config.tick_sec <= spec.duration_sec + 1e-9) {
      injector->tick(system.now());
      system.step();
    }
  } else {
    system.run_until(spec.duration_sec);
  }
  if (trace_sink != nullptr) trace_sink->flush();

  // ---- summarize ---------------------------------------------------------
  const auto& rec = system.recorder();
  result.ok = true;
  result.delay_mean_sec = rec.delay().mean_over(0.0, spec.duration_sec);
  result.delay_p50_sec = rec.delay_histogram().percentile(50);
  result.delay_p95_sec = rec.delay_histogram().percentile(95);
  result.delay_p99_sec = rec.delay_histogram().percentile(99);
  result.ratio_mean = rec.ratio().mean_over(0.0, spec.duration_sec);
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
  event.strs.emplace_back("mode", spec.mode);
  event.strs.emplace_back("query", spec.query);
  if (!spec.bandwidth_trace.empty()) {
    event.strs.emplace_back("bandwidth_trace", spec.bandwidth_trace);
  }
  if (!spec.fault_schedule.empty()) {
    event.strs.emplace_back("fault_schedule", spec.fault_schedule);
  }
  event.strs.emplace_back("seed_forked", spec.seed_forked ? "true" : "false");
  if (!ok) event.strs.emplace_back("error", error);
  event.nums.emplace_back("cell", static_cast<double>(spec.index));
  event.nums.emplace_back("seed", static_cast<double>(spec.seed));
  event.nums.emplace_back("duration_sec", spec.duration_sec);
  event.nums.emplace_back("rate_eps", spec.rate_eps);
  event.nums.emplace_back("alpha", spec.alpha);
  event.nums.emplace_back("slo_sec", spec.slo_sec);
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
    results[i] =
        run_one(cells[i], trace_path, opts.profile, opts.profile_every);
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
  header.strs.emplace_back("default_mode", defaults.mode);
  header.strs.emplace_back("default_query", defaults.query);
  header.nums.emplace_back("cells", static_cast<double>(results.size()));
  header.nums.emplace_back("base_seed",
                           static_cast<double>(defaults.base_seed));
  header.nums.emplace_back("default_duration_sec", defaults.duration_sec);
  header.nums.emplace_back("default_rate_eps", defaults.rate_eps);
  header.nums.emplace_back("default_alpha", defaults.alpha);
  header.nums.emplace_back("default_slo_sec", defaults.slo_sec);

  std::string out = obs::to_json_line(header);
  out.push_back('\n');
  for (const RunResult& result : results) {
    out += obs::to_json_line(result.to_trace_event());
    out.push_back('\n');
  }
  return out;
}

}  // namespace wasp::exec
