// The repository benchmark's harness: its workloads, built only through the
// simulator's public API (net::Topology, net::Network, workload::make_topk_
// topics, runtime::WaspSystem, faults::FaultInjector), and the measuring and
// checking helpers that main.cc and harness_test.cc share. Nothing here is
// compiled into the simulator; every span is timed from outside the calls it
// wraps, and per-phase numbers come from the simulator's own profiler.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_schedule.h"
#include "net/topology.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/wasp_system.h"

namespace perfbench {

// ---- Workloads --------------------------------------------------------------

enum class WorkloadKind { kPaper16Live, kUniform256Steady, kPaper16ChaosTraced };

struct WorkloadSpec {
  std::string_view name;
  WorkloadKind kind;
  // Simulated seconds (1 s ticks) of one run.
  int ticks;
  // Distinct input sets, each derived from the workload seed, that the
  // timed loop cycles through. Results of one run depend heavily on its
  // random walks and fault draws; timing many input sets per benchmark run
  // keeps the medians steady from one workload seed to the next.
  int input_sets;
};

// The three workloads, in presentation order.
const std::vector<WorkloadSpec>& workloads();
// Null when no workload has that name.
const WorkloadSpec* find_workload(std::string_view name);

// Seed of input set `index` of a benchmark run seeded with `seed`.
std::uint64_t input_seed(std::uint64_t seed, int index);

// ---- Trace sink ---------------------------------------------------------------

// Serializes every event exactly as obs::FileSink does (to_json_line plus a
// newline), counts the bytes and events per event type, and discards the
// line: trace cost and volume measured at the sink boundary without disk I/O.
class CountingSink final : public wasp::obs::TraceSink {
 public:
  struct Tally {
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
  };

  // With `timed`, write() also accumulates its own wall time (busy_ns).
  explicit CountingSink(bool timed = false) : timed_(timed) {}

  void write(const wasp::obs::TraceEvent& event) override;

  [[nodiscard]] const Tally& total() const { return total_; }
  [[nodiscard]] const std::map<std::string, Tally, std::less<>>& by_type()
      const {
    return by_type_;
  }
  [[nodiscard]] std::uint64_t busy_ns() const { return busy_ns_; }

 private:
  bool timed_;
  Tally total_;
  std::map<std::string, Tally, std::less<>> by_type_;
  std::uint64_t busy_ns_ = 0;
};

// ---- Chaos schedule -------------------------------------------------------------

// Length of one generated fault cycle and the quiet tail after the last one.
inline constexpr double kChaosCycleSec = 900.0;
inline constexpr double kChaosTailSec = 300.0;

// A fault schedule in the faults::FaultSchedule text grammar: `cycles`
// back-to-back cycles, each with a flap, a crash/restore, a partition, a
// domain_down/domain_restore, a straggler onset/clear and a control stall,
// in that order and without overlap. Sites, domains, times and magnitudes
// are drawn from `seed`. The heartbeat coordinator and sink (the first data
// center) and its failure domain are never crashed; every fault clears
// within its cycle.
std::string chaos_schedule_text(const wasp::net::Topology& topology,
                                std::uint64_t seed, int cycles);

// True when every fault in `schedule` has cleared strictly before
// `horizon_sec`: each crash/domain_down is restored, each partition healed
// (explicitly or by its duration), each flap and stall over and each
// straggler cleared. Otherwise false with the first offender in *why.
bool faults_clear_by(const wasp::faults::FaultSchedule& schedule,
                     double horizon_sec, std::string* why);

// ---- Measuring --------------------------------------------------------------------

// A percentile together with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::uint64_t samples = 0;
};

// Exact percentile (linear interpolation between closest ranks) of
// `values`; {0, 0} when empty.
Percentile percentile(std::vector<double> values, double pct);

// Fixed-size log-bucketed histogram of per-tick wall times: 128 buckets per
// power of two (under 0.8% bucket width), so memory does not grow with run
// length and pooled percentiles over millions of ticks stay cheap.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(std::uint64_t ns);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  // Percentile in microseconds, interpolated inside the bucket.
  [[nodiscard]] Percentile percentile_us(double pct) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// FNV-1a digest of a run's results: the recorder's delay, ratio,
// parallelism and backlog series (time and value bits) and every
// MetricsRegistry::snapshot() entry.
std::uint64_t results_digest(const wasp::runtime::WaspSystem& system);

// Correctness checks, counted against the checks attempted.
struct Checks {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
  void merge(const Checks& other);
};

// ---- Running ------------------------------------------------------------------------

using PhaseTable =
    std::array<wasp::obs::PhaseAccum,
               static_cast<std::size_t>(wasp::obs::Phase::kCount)>;

// What one run of a workload produced and cost.
struct RunOutcome {
  // Wall seconds of the set-up spans, from topology generation to a
  // deployed WaspSystem (query planner and initial placement included).
  double topology_s = 0.0;
  double network_s = 0.0;
  double deploy_s = 0.0;
  double loop_s = 0.0;  // wall seconds of the tick loop
  int ticks = 0;

  std::uint64_t digest = 0;
  double processed_fraction = 0.0;
  Percentile delay_p95_s;

  // Work counts at the end of the run.
  std::size_t flows = 0;
  int tasks = 0;
  std::size_t adaptations = 0;
  std::size_t recovery_events = 0;
  double transition_aborts = 0.0;
  double transition_retries = 0.0;
  double migrated_mb = 0.0;
  std::size_t completed_syncs = 0;
  double promotions = 0.0;

  std::uint64_t inject_ns = 0;  // FaultInjector::tick span, chaos only
  CountingSink::Tally trace;    // events/bytes at the sink, traced only
  std::uint64_t link_alloc_bytes = 0;
  std::uint64_t sink_ns = 0;  // sink write time, profiled traced run only

  PhaseTable phases{};  // profiler totals, profiled run only
  Checks checks;

  [[nodiscard]] double setup_s() const {
    return topology_s + network_s + deploy_s;
  }
};

// Builds input set `seed` of the workload, deploys it and runs `spec.ticks`
// ticks. `profile` turns on SystemConfig::profile; `ticks_ns`, when
// non-null, receives the wall time of every tick (WaspSystem::step plus
// FaultInjector::tick where present). The run's own correctness checks are
// in the outcome.
RunOutcome execute(const WorkloadSpec& spec, std::uint64_t seed, bool profile,
                   LatencyHistogram* ticks_ns);

}  // namespace perfbench
