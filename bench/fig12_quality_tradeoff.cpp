// Figure 12: quality vs delay trade-offs in the live environment.
//
// From the §8.6 live runs: (a) the fraction of generated events each
// approach actually processed, and (b) the delay CDFs. WASP processes
// everything (at the cost of a longer delay tail during transitions);
// Degrade holds the delay down but sacrifices a significant share of the
// events (~24% in the paper's run).
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "bench_options.h"
#include "common/histogram.h"

namespace {

struct QualityRun {
  double processed_pct = 0.0;
  wasp::WeightedHistogram delay_hist;
};

QualityRun run_mode(wasp::runtime::AdaptationMode mode,
                    const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  Rng bw_rng(kSeed + 1);
  net::RandomWalkBandwidth::Config bw_cfg;
  bw_cfg.horizon_sec = 1800.0;
  bw_cfg.period_sec = 300.0;
  bw_cfg.min_factor = 0.51;
  bw_cfg.max_factor = 2.36;
  Testbed bed(std::make_shared<net::RandomWalkBandwidth>(
      static_cast<std::size_t>(default_topology_spec().expected_sites()),
      bw_cfg, bw_rng));

  auto spec = make_query(bed, Query::kTopk);
  Rng wl_rng(kSeed + 2);
  workload::RandomWalkWorkload::Config wl_cfg;
  wl_cfg.horizon_sec = 1800.0;
  workload::RandomWalkWorkload pattern(wl_cfg, wl_rng);
  runtime::set_base_rates(&pattern, spec, 10'000.0);

  runtime::SystemConfig config;
  opts.apply_profile(&config);
  config.mode = mode;
  config.slo_sec = 10.0;
  if (mode != runtime::AdaptationMode::kNoAdapt) {
    config.trace_sink = opts.sink;
  }
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(540.0);
  system.fail_all_sites();
  system.run_until(600.0);
  system.restore_all_sites();
  system.run_until(1800.0);
  opts.write_metrics(to_string(mode), system.metrics());

  QualityRun out;
  out.processed_pct = 100.0 * system.recorder().processed_fraction();
  out.delay_hist = system.recorder().delay_histogram();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the adaptive runs; NoAdapt runs untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const QualityRun noadapt =
      run_mode(runtime::AdaptationMode::kNoAdapt, opts);
  const QualityRun wasp_run = run_mode(runtime::AdaptationMode::kWasp, opts);
  const QualityRun degrade =
      run_mode(runtime::AdaptationMode::kDegrade, opts);
  opts.flush();

  print_section(std::cout, "Figure 12(a): average processed events (%)");
  {
    TextTable table({"technique", "processed events (%)"});
    table.add_row({"No Adapt", TextTable::fmt(noadapt.processed_pct, 1)});
    table.add_row({"WASP", TextTable::fmt(wasp_run.processed_pct, 1)});
    table.add_row({"Degrade", TextTable::fmt(degrade.processed_pct, 1)});
    table.print(std::cout);
  }

  print_section(std::cout, "Figure 12(b): delay distribution (CDF)");
  {
    TextTable table({"cdf", "NoAdapt delay(s)", "WASP delay(s)",
                     "Degrade delay(s)"});
    for (int pct = 10; pct <= 100; pct += 5) {
      table.add_row({TextTable::fmt(pct / 100.0, 2),
                     TextTable::fmt(noadapt.delay_hist.percentile(pct), 2),
                     TextTable::fmt(wasp_run.delay_hist.percentile(pct), 2),
                     TextTable::fmt(degrade.delay_hist.percentile(pct), 2)});
    }
    table.print(std::cout);
  }

  expected_shape(
      "WASP processes ~100% of the events; Degrade sacrifices a double-digit "
      "percentage (paper: ~24%) to hold its delay; NoAdapt eventually "
      "admits most events but at absurd delays. In the CDF, WASP tracks "
      "the low-delay region but has a longer tail than Degrade "
      "(monitoring + transition + post-failure catch-up), while NoAdapt's "
      "tail is orders of magnitude worse");
  return 0;
}
