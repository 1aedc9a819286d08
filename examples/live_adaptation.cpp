// Live adaptation example: random WAN and workload dynamics plus a failure,
// with WASP's decisions narrated as they happen (the §8.6 scenario as an
// interactive walkthrough).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/live_adaptation
#include <iostream>
#include <memory>

#include "common/log.h"
#include "common/rng.h"
#include "common/table.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/scenario.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

int main() {
  using namespace wasp;
  set_log_level(LogLevel::kInfo);  // narrate adaptation decisions

  // Bandwidth rides a trace-like random walk (factors 0.51-2.36, re-drawn
  // every 5 minutes), workload another one (0.8-2.4).
  Rng bw_rng(41);
  net::RandomWalkBandwidth::Config bw_cfg;
  bw_cfg.horizon_sec = 1800.0;
  bw_cfg.period_sec = 300.0;
  bw_cfg.min_factor = 0.51;
  bw_cfg.max_factor = 2.36;
  Rng topo_rng(7);
  net::Topology topo = net::Topology::make_paper_testbed(topo_rng);
  net::Network network(
      topo, std::make_shared<net::RandomWalkBandwidth>(topo.num_sites(),
                                                       bw_cfg, bw_rng));

  const runtime::Roles roles = runtime::roles_of(topo);
  workload::QuerySpec query =
      workload::make_topk_topics(roles.east, roles.west, roles.sink);

  Rng wl_rng(43);
  workload::RandomWalkWorkload::Config wl_cfg;
  wl_cfg.horizon_sec = 1800.0;
  workload::RandomWalkWorkload pattern(wl_cfg, wl_rng);
  runtime::set_base_rates(&pattern, query, 10'000.0);

  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  runtime::WaspSystem system(network, std::move(query), pattern, config);

  std::cout << "running to t=540 under live dynamics...\n";
  system.run_until(540.0);
  std::cout << "t=540: FAILURE -- all compute revoked for 60 s\n";
  system.fail_all_sites();
  system.run_until(600.0);
  std::cout << "t=600: sites restored; watch WASP drain the backlog\n";
  system.restore_all_sites();
  system.run_until(1800.0);

  const auto& rec = system.recorder();
  TextTable table({"window", "avg delay (s)", "parallelism x"});
  for (double t0 = 0.0; t0 < 1800.0; t0 += 300.0) {
    table.add_row({TextTable::fmt(t0, 0) + "-" + TextTable::fmt(t0 + 300, 0),
                   TextTable::fmt(rec.delay().mean_over(t0, t0 + 300.0), 2),
                   TextTable::fmt(
                       rec.parallelism().mean_over(t0, t0 + 300.0), 2)});
  }
  table.print(std::cout);

  std::cout << "\nAdaptation log:\n";
  for (const auto& e : rec.events()) {
    std::cout << "  t=" << e.decided_at << "s " << e.kind << " ("
              << e.reason << "); transition " << e.transition_sec()
              << "s, migrated " << e.migrated_mb << " MB\n";
  }
  std::cout << "\nProcessed " << 100.0 * rec.processed_fraction()
            << "% of all generated events.\n";
  return 0;
}
