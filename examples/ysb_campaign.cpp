// YSB Advertising Campaign example: accuracy vs latency under overload.
//
// Runs the Yahoo! Streaming Benchmark query (filter -> campaign map -> 10 s
// windowed count per campaign) on the 16-site testbed, doubles the workload
// mid-run, and contrasts the two ways out of the overload:
//   - Degrade: shed events older than the 10 s SLO (bounded delay, lossy),
//   - WASP:    re-optimize execution and resources (lossless).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/ysb_campaign
#include <iostream>
#include <memory>

#include "common/rng.h"
#include "common/table.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/scenario.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace {

struct Outcome {
  double peak_delay = 0.0;
  double p95_delay = 0.0;
  double processed_pct = 0.0;
  std::size_t adaptations = 0;
};

Outcome run(wasp::runtime::AdaptationMode mode) {
  using namespace wasp;

  Rng rng(11);
  net::Topology topo = net::Topology::make_paper_testbed(rng);
  net::Network network(topo, std::make_shared<net::ConstantBandwidth>());

  const runtime::Roles roles = runtime::roles_of(topo);
  workload::QuerySpec query =
      workload::make_ysb_campaign(roles.edges, roles.sink);
  workload::SteppedWorkload pattern;
  runtime::set_base_rates(&pattern, query, 10'000.0);
  pattern.add_step(200.0, 2.5);  // sustained overload
  pattern.add_step(700.0, 1.0);

  runtime::SystemConfig config;
  config.mode = mode;
  config.slo_sec = 10.0;
  runtime::WaspSystem system(network, std::move(query), pattern, config);
  system.run_until(900.0);

  const auto& rec = system.recorder();
  Outcome out;
  for (const auto& [t, v] : rec.delay().points()) {
    out.peak_delay = std::max(out.peak_delay, v);
  }
  out.p95_delay = rec.delay_histogram().percentile(95);
  out.processed_pct = 100.0 * rec.processed_fraction();
  out.adaptations = rec.events().size();
  return out;
}

}  // namespace

int main() {
  using namespace wasp;

  std::cout << "YSB Advertising Campaign: 10k ev/s per edge site, x2.5 surge "
               "during t=[200, 700)\n\n";
  TextTable table({"mode", "peak delay (s)", "p95 delay (s)",
                   "processed (%)", "adaptations"});
  for (auto mode :
       {runtime::AdaptationMode::kNoAdapt, runtime::AdaptationMode::kDegrade,
        runtime::AdaptationMode::kWasp}) {
    const Outcome o = run(mode);
    table.add_row({to_string(mode), TextTable::fmt(o.peak_delay, 1),
                   TextTable::fmt(o.p95_delay, 2),
                   TextTable::fmt(o.processed_pct, 1),
                   std::to_string(o.adaptations)});
  }
  table.print(std::cout);
  std::cout << "\nDegrade bounds the delay near the SLO by discarding late "
               "events; WASP keeps every event by re-optimizing the "
               "deployment instead.\n";
  return 0;
}
