// Shared command-line options for the bench drivers.
//
// Every driver is a zero-argument reproduction of one paper figure; the
// runtime knobs they share are where (whether) to write the structured
// observability trace and the final metrics snapshot, plus how many worker
// threads to fan the driver's independent simulation runs across:
//
//   fig11_live_environment --jobs=4 --trace-out=fig11.jsonl --metrics=fig11.metrics.jsonl
//
// Parallel drivers follow the sweep determinism contract (DESIGN.md §9):
// each run is shared-nothing (its own Testbed/WaspSystem), runs write only
// to per-index result slots, and all printing / metrics writing happens
// after the fan-in, walking the runs in their declaration order -- so the
// stdout tables and the --metrics file are byte-identical for any --jobs.
//
// Tracing composes with --jobs via sink_for(label): at --jobs=1 every traced
// run shares the single --trace-out sink (the historical layout); at
// --jobs>1 each label gets a private file ("fig09.jsonl" ->
// "fig09.<label>.jsonl") so concurrent runs never interleave, mixing
// neither lines nor seq streams.
//
// Drivers pass the sink into runtime::SystemConfig::trace_sink (null when
// the flag is absent, which disables tracing entirely), collect
// `system.metrics().snapshot()` into their per-run slot, call
// `opts.write_metrics(label, snapshot)` per run after the fan-in, and call
// `opts.flush()` before exiting.
#pragma once

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "net/topology_spec.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/flags.h"

namespace wasp::bench {

// Process-wide topology for the bench Testbed: the paper's 16-site testbed
// unless BenchOptions::parse saw `--topology=SPEC` (DESIGN.md §14). A
// process-wide default -- rather than threading a spec through every
// driver's Testbed constructions -- keeps the figure drivers' bodies
// untouched while still letting each one re-run at planet scale.
inline net::TopologySpec& default_topology_spec() {
  static net::TopologySpec spec;  // Kind::kPaper
  return spec;
}

struct BenchOptions {
  std::shared_ptr<obs::FileSink> sink;  // null unless --trace-out was given
  std::string trace_out;
  std::string metrics_out;  // empty unless --metrics was given
  int jobs = 1;             // worker threads for the driver's independent runs
  // Only the --topology and --profile rows of the scenario table apply.
  runtime::Scenario scenario;

  // Copies the profiler knobs into a run's SystemConfig; drivers call this
  // on every config they build so `--profile` covers all of a driver's runs.
  template <typename SystemConfigT>
  void apply_profile(SystemConfigT* config) const {
    config->profile = scenario.profile;
    config->profile_every = scenario.profile_every;
  }

  // Parses argv; exits 2 on an unknown flag or a malformed value, 1 on an
  // unopenable file.
  static BenchOptions parse(int argc, char** argv) {
    BenchOptions opts;
    runtime::FlagTable flags(std::string(argv[0]) +
                             " -- reproduces one paper figure or table");
    flags.add({"--jobs", "N",
               "fan independent runs across N worker threads\n"
               "(N >= 1; results identical for any N)",
               [&opts](const std::string& v) {
                 opts.jobs = parse_number<int>(v);
                 if (opts.jobs < 1) throw std::invalid_argument("must be >= 1");
               }});
    flags.add({"--trace-out", "FILE",
               "write the observability trace (JSONL) to FILE;\n"
               "with --jobs>1 each traced run gets FILE with\n"
               "its label inserted before the extension",
               [&opts](const std::string& v) { opts.trace_out = v; }});
    flags.add({"--metrics", "FILE",
               "write per-run metrics snapshots (JSONL) to FILE",
               [&opts](const std::string& v) { opts.metrics_out = v; }});
    flags.add_scenario(&opts.scenario,
                       {"topology", "profile", "profile-every"});
    if (const auto rc = flags.parse(argc, argv)) std::exit(*rc);
    default_topology_spec() =
        *net::TopologySpec::parse(opts.scenario.topology.empty()
                                      ? "paper"
                                      : opts.scenario.topology);
    // The shared sink exists only in the single-file --jobs=1 layout; at
    // --jobs>1 every traced run opens its own per-label file in sink_for()
    // (which also reports unopenable paths), so opening FILE here would
    // just leave an empty stray file.
    if (!opts.trace_out.empty() && opts.jobs <= 1) {
      opts.sink = std::make_shared<obs::FileSink>(opts.trace_out);
      if (!opts.sink->ok()) {
        std::cerr << "cannot open trace output '" << opts.trace_out << "'\n";
        std::exit(1);
      }
    }
    if (!opts.metrics_out.empty()) {
      // Truncate up front so write_metrics can append one line per run.
      std::ofstream out(opts.metrics_out, std::ios::trunc);
      if (!out) {
        std::cerr << "cannot open metrics output '" << opts.metrics_out
                  << "'\n";
        std::exit(1);
      }
    }
    return opts;
  }

  // The trace sink a run labelled `label` should use: null when tracing is
  // off; the shared --trace-out sink at --jobs=1 (historical single-file
  // layout); a private per-label file at --jobs>1 so concurrently running
  // emitters never share a sink. Call once per run, before the run starts.
  [[nodiscard]] std::shared_ptr<obs::FileSink> sink_for(
      std::string_view label) const {
    if (trace_out.empty()) return nullptr;
    if (jobs <= 1) return sink;
    std::string tag;
    for (char c : label) {
      tag.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
    }
    const auto dot = trace_out.rfind('.');
    const std::string path =
        dot == std::string::npos
            ? trace_out + "." + tag
            : trace_out.substr(0, dot) + "." + tag + trace_out.substr(dot);
    auto private_sink = std::make_shared<obs::FileSink>(path);
    if (!private_sink->ok()) {
      std::cerr << "cannot open trace output '" << path << "'\n";
      std::exit(1);
    }
    return private_sink;
  }

  // Appends one flat JSON object {"run":"<label>", "<metric>":value, ...}
  // to the --metrics file; a no-op when the flag is absent. Parallel drivers
  // collect snapshots during the fan-out and call this after the fan-in, in
  // run-declaration order, so the file is identical for any --jobs.
  void write_metrics(
      std::string_view label,
      const std::vector<std::pair<std::string, double>>& snapshot) const {
    if (metrics_out.empty()) return;
    std::ofstream out(metrics_out, std::ios::app);
    out << "{\"run\":\"" << label << '"';
    for (const auto& [name, value] : snapshot) {
      out << ",\"" << name << "\":" << value;
    }
    out << "}\n";
  }

  void write_metrics(std::string_view label,
                     const obs::MetricsRegistry& registry) const {
    write_metrics(label, registry.snapshot());
  }

  void flush() const {
    if (sink != nullptr) sink->flush();
  }
};

}  // namespace wasp::bench
