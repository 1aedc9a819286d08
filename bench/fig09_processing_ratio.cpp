// Figure 9: processing ratio under workload and bandwidth dynamics, for all
// three queries and {No Adapt, Degrade, Re-opt}.
//
// Same runs as Figure 8; the processing ratio is the query's processing
// rate over the aggregated source rate (§8.3) -- 1 means keeping up, < 1
// constrained (or shedding, for Degrade), > 1 draining queued events.
//
// The 9 runs (3 queries x 3 modes) are independent shared-nothing
// simulations; --jobs=N fans them across N workers (exec::parallel_for)
// with output identical to the serial run.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "bench_options.h"
#include "exec/parallel.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the Re-opt runs; the baselines run untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const runtime::AdaptationMode kModes[] = {
      runtime::AdaptationMode::kNoAdapt, runtime::AdaptationMode::kDegrade,
      runtime::AdaptationMode::kWasp};
  const char* kModeNames[] = {"NoAdapt", "Degrade", "Re-opt"};
  const Query kQueries[] = {Query::kYsb, Query::kTopk,
                            Query::kEventsOfInterest};

  // One cell per (query, mode); each run fills only its own slot and all
  // printing happens after the fan-in, so --jobs does not change the output.
  struct Cell {
    TimeSeries ratio;
    std::vector<std::pair<std::string, double>> metrics;  // Re-opt runs only
  };
  std::vector<Cell> cells(9);
  exec::parallel_for(opts.jobs, cells.size(), [&](std::size_t i) {
    const Query q = kQueries[i / 3];
    const int m = static_cast<int>(i % 3);
    Testbed bed(std::make_shared<net::SteppedBandwidth>(
        std::vector<std::pair<double, double>>{{900.0, 0.5}, {1200.0, 1.0}}));
    auto spec = make_query(bed, q);
    auto pattern = uniform_rates(spec, 10'000.0);
    pattern.add_step(300.0, 2.0);
    pattern.add_step(600.0, 1.0);
    runtime::SystemConfig config;
    opts.apply_profile(&config);
    config.mode = kModes[m];
    config.slo_sec = 10.0;
    if (kModes[m] == runtime::AdaptationMode::kWasp) {
      config.trace_sink = opts.sink_for(query_name(q));
    }
    runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(1500.0);
    if (kModes[m] == runtime::AdaptationMode::kWasp) {
      cells[i].metrics = system.metrics().snapshot();
    }
    cells[i].ratio =
        bucketed(system.recorder().ratio(), 50.0, kModeNames[m]);
  });

  for (std::size_t qi = 0; qi < 3; ++qi) {
    const Query q = kQueries[qi];
    print_section(std::cout,
                  std::string("Figure 9: processing ratio over time -- ") +
                      query_name(q));
    std::vector<TimeSeries> series;
    for (int m = 0; m < 3; ++m) series.push_back(cells[qi * 3 + m].ratio);
    print_series(std::cout, "t(s)", series, 3);
    opts.write_metrics(std::string(query_name(q)) + "/Re-opt",
                       cells[qi * 3 + 2].metrics);
  }
  opts.flush();

  expected_shape(
      "NoAdapt and Degrade drop to ~0.8-0.9 during the constrained windows; "
      "NoAdapt rebounds above 1 afterwards (consuming queued events) while "
      "Degrade returns to 1 (dropped events are gone). Re-opt dips only "
      "momentarily during state-migration transitions and otherwise holds "
      "~1 (no events lost)");
  return 0;
}
