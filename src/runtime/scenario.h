// Scenario: the one description of a simulated run, and the one builder.
//
// WASP's evaluation (§8) is a matrix: query x adaptation mode x bandwidth /
// workload dynamics x failures x topology. A Scenario is one cell of it --
// a plain struct of a run's inputs, filled by the flag table (flags.h) in
// `wasp_sim`, by grid axes in `wasp_sweep` (src/exec), or by hand in tests.
// ScenarioRun::build() turns it into a world (topology, network, query,
// workload pattern, WaspSystem, fault injector) and run() drives it to the
// horizon. Every tool builds and runs through this one path (DESIGN.md
// "One scenario, one flag table").
//
// RNG derivation is fixed: the topology and the system use `seed`, the
// live bandwidth walk `seed + 1`, the live workload walk `seed + 2`, the
// fault injector `seed ^ 0xFA17`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "faults/fault_injector.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::runtime {

struct Scenario {
  std::uint64_t seed = 7;
  AdaptationMode mode = AdaptationMode::kWasp;
  std::string query = "topk";  // a make_query() name
  double duration_sec = 900.0;
  double rate_eps = 10'000.0;  // base events/s per source site
  double alpha = 0.8;          // bandwidth utilization threshold
  double slo_sec = 10.0;       // degrade/hybrid SLO
  std::string slo_spec;        // declarative watchdog spec; empty = none
  std::string topology;        // canonical TopologySpec; empty = paper testbed
  std::string bandwidth;       // "" constant | "live" random walk | CSV path
  std::string workload;        // "" stepped | "live" random walk | CSV path
  std::vector<std::pair<double, double>> workload_steps;   // (t, factor)
  std::vector<std::pair<double, double>> bandwidth_steps;  // (t, factor)
  std::optional<std::pair<double, double>> failure;  // (t, duration): all down
  std::string fault_schedule;  // fault-schedule file; empty = none
  int standby_replicas = 0;
  bool profile = false;
  int profile_every = 60;
};

// Which sites play which part in a query: edge sites feed sources (split
// east/west alternately), the first data center hosts the sink. A topology
// without edge sites (a uniform clique) falls back to every non-sink site
// as a source site.
struct Roles {
  std::vector<SiteId> east, west, edges, dcs;
  SiteId sink;
};
[[nodiscard]] Roles roles_of(const net::Topology& topology);

// The query names: topk | ysb | interest | join. make_query() returns
// nullopt for any other name.
[[nodiscard]] bool is_query(const std::string& name);
[[nodiscard]] std::optional<workload::QuerySpec> make_query(
    const std::string& name, const Roles& roles);

// Sets `eps` events/s on every pinned site of every source of `query`.
template <typename Pattern>
void set_base_rates(Pattern* pattern, const workload::QuerySpec& query,
                    double eps) {
  for (OperatorId src : query.sources) {
    for (SiteId s : query.plan.op(src).pinned_sites) {
      pattern->set_base_rate(src, s, eps);
    }
  }
}

struct ScenarioError {
  int exit_code = 2;  // 2: the scenario cannot run as asked; 1: a file error
  std::string message;
};

// A built scenario. The system references the network and the pattern and
// the injector's hooks reference the system, all through stable heap
// addresses, so a ScenarioRun may be moved but its members must stay put.
struct ScenarioRun {
  // Builds the world `scenario` describes, tracing to a private FileSink at
  // `trace_path` when it is non-empty. nullopt with *error set on a bad spec
  // or an unreadable / unwritable file.
  static std::optional<ScenarioRun> build(const Scenario& scenario,
                                          const std::string& trace_path,
                                          ScenarioError* error);

  // Runs to the horizon: the --fail window first (when set), then injector
  // ticks interleaved with steps. `stop`, checked before every tick, ends the
  // run early at a tick boundary. Flushes the trace sink when done.
  void run(const std::function<bool()>& stop = nullptr);

  Scenario scenario;
  std::shared_ptr<obs::FileSink> trace_sink;  // null when not tracing
  std::unique_ptr<net::Network> network;
  std::unique_ptr<workload::WorkloadPattern> pattern;
  std::unique_ptr<WaspSystem> system;
  std::unique_ptr<faults::FaultInjector> injector;  // null: no fault schedule
};

}  // namespace wasp::runtime
