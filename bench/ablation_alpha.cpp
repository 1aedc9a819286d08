// Ablation: the bandwidth-utilization threshold α (paper §4.1).
//
// WASP reserves (1-α) of each link as headroom against mis-estimation,
// workload jitter, and transition catch-up. §4.1 argues setting α too high
// makes the system unstable (mis-estimates bite) while too low wastes the
// optimization. This bench sweeps α over the §8.4 workload-surge scenario
// and reports delay, adaptations taken, and resource usage -- the ablation
// DESIGN.md calls out.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "bench_options.h"
#include "exec/parallel.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  const BenchOptions opts = BenchOptions::parse(argc, argv);

  print_section(std::cout,
                "Ablation: bandwidth utilization threshold alpha "
                "(Top-K, workload x2 at t=300 + bandwidth x0.6 at t=450)");
  TextTable table({"alpha", "avg delay 300-900 (s)", "p95 delay (s)",
                   "steady delay 700-900 (s)", "adaptations",
                   "peak parallelism (x)"});
  // The 5 alpha runs are independent; --jobs=N fans them out shared-nothing
  // with per-index result slots, so the table is identical for any N.
  const std::vector<double> kAlphas = {0.5, 0.65, 0.8, 0.9, 0.99};
  struct Cell {
    std::vector<std::string> row;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::vector<Cell> cells(kAlphas.size());
  exec::parallel_for(opts.jobs, cells.size(), [&](std::size_t i) {
    const double alpha = kAlphas[i];
    Testbed bed(std::make_shared<net::SteppedBandwidth>(
        std::vector<std::pair<double, double>>{{450.0, 0.6}}));
    auto spec = make_query(bed, Query::kTopk);
    auto pattern = uniform_rates(spec, 10'000.0);
    pattern.add_step(300.0, 2.0);
    runtime::SystemConfig config;
    opts.apply_profile(&config);
    config.mode = runtime::AdaptationMode::kWasp;
    config.scheduler.alpha = alpha;
    config.trace_sink = opts.sink_for("alpha=" + TextTable::fmt(alpha, 2));
    runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(900.0);
    cells[i].metrics = system.metrics().snapshot();
    const auto& rec = system.recorder();
    double peak_par = 0.0;
    for (const auto& [t, v] : rec.parallelism().points()) {
      peak_par = std::max(peak_par, v);
    }
    cells[i].row = {TextTable::fmt(alpha, 2),
                    TextTable::fmt(rec.delay().mean_over(300.0, 900.0), 2),
                    TextTable::fmt(rec.delay_histogram().percentile(95), 2),
                    TextTable::fmt(rec.delay().mean_over(700.0, 900.0), 2),
                    std::to_string(rec.events().size()),
                    TextTable::fmt(peak_par, 2)};
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.add_row(cells[i].row);
    opts.write_metrics("alpha=" + TextTable::fmt(kAlphas[i], 2),
                       cells[i].metrics);
  }
  table.print(std::cout);
  opts.flush();

  expected_shape(
      "low alpha reserves aggressive headroom: it absorbs the dynamics with "
      "the least delay but grabs the most resources (highest peak "
      "parallelism). Raising alpha trades that safety margin for "
      "utilization -- placements sit closer to the feasibility edge and "
      "post-dynamic delays rise. (The paper's instability argument for "
      "alpha ~ 1 rests on real-WAN mis-estimation, which the simulator's "
      "mild 5% probe noise only partially reproduces, so the high-alpha "
      "column is noisier than a monotone trend.)");
  return 0;
}
