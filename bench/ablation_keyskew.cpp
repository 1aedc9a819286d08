// Ablation: hot keys vs the balanced-partitioning assumption (paper §7).
//
// The paper assumes operators spread their output evenly over downstream
// tasks but notes the techniques "are not limited by this assumption". Here
// hot keys concentrate 3x weight on one of the aggregation's task sites.
// Under skew, adding tasks dilutes the hot share only sub-linearly, so WASP
// needs more aggressive scaling than the balanced DS2 estimate suggests --
// the bench shows it still converges, just with more steps/parallelism.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "bench_options.h"

namespace {

struct Outcome {
  double p95 = 0.0;
  double steady_delay = 0.0;
  double peak_parallelism = 0.0;
  std::size_t adaptations = 0;
};

Outcome run(wasp::runtime::AdaptationMode mode, double skew,
            const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  // Workload surge plus a bandwidth squeeze force the aggregations to scale
  // out -- the regime where partitioning balance matters (skew at p = 1 is
  // vacuous by definition).
  Testbed bed(std::make_shared<net::SteppedBandwidth>(
      std::vector<std::pair<double, double>>{{500.0, 0.55}}));
  auto spec = make_query(bed, Query::kTopk);
  auto pattern = uniform_rates(spec, 10'000.0);
  pattern.add_step(200.0, 2.0);
  runtime::SystemConfig config;
  opts.apply_profile(&config);
  config.mode = mode;
  if (mode != runtime::AdaptationMode::kNoAdapt) {
    config.trace_sink = opts.sink;
  }
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  if (skew != 1.0) {
    // Skew every hash-partitioned aggregation in the deployed plan.
    for (const auto& op : system.engine().logical().operators()) {
      if (op.kind == query::OperatorKind::kWindowAggregate ||
          op.kind == query::OperatorKind::kUnion) {
        system.mutable_engine().set_partition_skew(op.id, skew);
      }
    }
  }
  system.run_until(1000.0);
  opts.write_metrics(std::string(to_string(mode)) + "/skew=" +
                         TextTable::fmt(skew, 1),
                     system.metrics());

  Outcome out;
  out.p95 = system.recorder().delay_histogram().percentile(95);
  out.steady_delay = system.recorder().delay().mean_over(800.0, 1000.0);
  for (const auto& [t, v] : system.recorder().parallelism().points()) {
    out.peak_parallelism = std::max(out.peak_parallelism, v);
  }
  out.adaptations = system.recorder().events().size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the adaptive runs; NoAdapt runs untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  print_section(std::cout,
                "Ablation: key skew vs balanced partitioning "
                "(Top-K, x2 surge at t=200; 3x hot-site weight)");
  TextTable table({"mode", "skew", "p95 delay (s)", "steady delay (s)",
                   "peak parallelism (x)", "adaptations"});
  for (double skew : {1.0, 3.0}) {
    // Scale-only keeps the engine's operator ids stable (a re-plan would
    // rebuild the runtime and clear the injected skew).
    for (auto mode : {runtime::AdaptationMode::kNoAdapt,
                      runtime::AdaptationMode::kScaleOnly}) {
      const Outcome o = run(mode, skew, opts);
      table.add_row({to_string(mode), TextTable::fmt(skew, 1),
                     TextTable::fmt(o.p95, 2),
                     TextTable::fmt(o.steady_delay, 2),
                     TextTable::fmt(o.peak_parallelism, 2),
                     std::to_string(o.adaptations)});
    }
  }
  table.print(std::cout);
  opts.flush();

  expected_shape(
      "NoAdapt is identical under both skews (skew over a single task is "
      "vacuous, and it never scales out). Once the adaptive policy scales "
      "the aggregations, skew reshapes the load each new task receives and "
      "hence the adaptation path -- yet the system still converges orders "
      "of magnitude below NoAdapt, supporting §7's claim that the "
      "techniques are not limited to the balanced-partitioning assumption");
  return 0;
}
