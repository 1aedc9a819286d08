// Tests of the benchmark harness itself: the results digest, the counting
// trace sink, the chaos schedule generator and the percentile helpers.
#include "harness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "net/topology.h"

namespace perfbench {
namespace {

WorkloadSpec short_spec(std::string_view name, int ticks) {
  WorkloadSpec spec = *find_workload(name);
  spec.ticks = ticks;
  return spec;
}

TEST(ResultsDigest, SameSeedSameDigestPerturbedRunDiffers) {
  const WorkloadSpec spec = short_spec("paper16-live", 600);
  const RunOutcome a = execute(spec, 11, false, nullptr);
  const RunOutcome b = execute(spec, 11, false, nullptr);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.checks.failed, 0);

  // Profiling is a pure observer: same digest.
  const RunOutcome profiled = execute(spec, 11, true, nullptr);
  EXPECT_EQ(a.digest, profiled.digest);

  // Perturbed inputs: another seed, or one tick fewer.
  EXPECT_NE(a.digest, execute(spec, 12, false, nullptr).digest);
  EXPECT_NE(a.digest,
            execute(short_spec("paper16-live", 599), 11, false, nullptr)
                .digest);
}

TEST(ResultsDigest, ChaosRunIsRepeatableAndEndsClean) {
  const WorkloadSpec spec = short_spec(
      "paper16-chaos-traced", static_cast<int>(kChaosCycleSec + kChaosTailSec));
  const RunOutcome a = execute(spec, 5, false, nullptr);
  const RunOutcome b = execute(spec, 5, true, nullptr);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.checks.failed, 0) << ::testing::PrintToString(a.checks.failures);
  EXPECT_EQ(b.checks.failed, 0) << ::testing::PrintToString(b.checks.failures);
  EXPECT_GT(a.trace.bytes, 0u);
  EXPECT_GT(a.recovery_events, 0u);
}

wasp::obs::TraceEvent sample_event(std::uint64_t seq, const char* type) {
  wasp::obs::TraceEvent e;
  e.seq = seq;
  e.t = 0.5 * static_cast<double>(seq);
  e.type = type;
  e.nums = {{"mbps", 12.25 * static_cast<double>(seq)}, {"n", 3}};
  e.strs = {{"why", "quote \" and \\ and \n newline"}};
  return e;
}

TEST(CountingSink, ByteCountMatchesFileSink) {
  // Relative to the test's working directory (the build tree).
  const std::filesystem::path path = "perfbench_counting_sink.jsonl";
  CountingSink counting(true);
  {
    wasp::obs::FileSink file(path.string());
    ASSERT_TRUE(file.ok());
    for (std::uint64_t i = 0; i < 50; ++i) {
      const auto e = sample_event(i, i % 3 == 0 ? "link_alloc" : "tick");
      file.write(e);
      counting.write(e);
    }
    file.flush();
  }
  EXPECT_EQ(counting.total().bytes, std::filesystem::file_size(path));
  EXPECT_EQ(counting.total().events, 50u);
  EXPECT_EQ(counting.by_type().at("link_alloc").events, 17u);
  EXPECT_EQ(counting.by_type().at("tick").events, 33u);
  EXPECT_EQ(counting.by_type().at("link_alloc").bytes +
                counting.by_type().at("tick").bytes,
            counting.total().bytes);
  std::filesystem::remove(path);
}

TEST(ChaosSchedule, AlwaysClearsItsFaults) {
  wasp::Rng topo_rng(3);
  const auto topology = wasp::net::Topology::make_paper_testbed(topo_rng);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const int cycles = 1 + static_cast<int>(seed % 4);
    std::istringstream text(chaos_schedule_text(topology, seed, cycles));
    wasp::faults::FaultSchedule schedule;
    std::string error;
    ASSERT_TRUE(wasp::faults::FaultSchedule::parse(text, &schedule, &error))
        << error;
    std::string why;
    EXPECT_TRUE(
        faults_clear_by(schedule, cycles * kChaosCycleSec + kChaosTailSec,
                        &why))
        << "seed " << seed << ": " << why;
    // Every kind the cycle promises, once per cycle.
    std::map<wasp::faults::FaultKind, int> kinds;
    for (const auto& e : schedule.events()) ++kinds[e.kind];
    using K = wasp::faults::FaultKind;
    for (K k : {K::kLinkFlap, K::kSiteCrash, K::kSiteRestore,
                K::kLinkPartition, K::kDomainDown, K::kDomainRestore,
                K::kControlStall}) {
      EXPECT_EQ(kinds[k], cycles) << wasp::faults::to_string(k);
    }
    EXPECT_EQ(kinds[K::kStraggler], 2 * cycles);
  }
}

TEST(ChaosSchedule, ClearCheckFlagsOpenFaults) {
  auto check = [](const std::string& text, double horizon) {
    std::istringstream in(text);
    wasp::faults::FaultSchedule schedule;
    std::string error;
    EXPECT_TRUE(wasp::faults::FaultSchedule::parse(in, &schedule, &error))
        << error;
    std::string why;
    return faults_clear_by(schedule, horizon, &why);
  };
  EXPECT_TRUE(check("10 crash site=3\n20 restore site=3\n", 100));
  EXPECT_FALSE(check("10 crash site=3\n", 100));
  EXPECT_FALSE(check("10 domain_down domain=2\n", 100));
  EXPECT_FALSE(check("10 partition from=1 to=2\n", 100));
  EXPECT_TRUE(check("10 partition from=1 to=2\n30 heal from=1 to=2\n", 100));
  EXPECT_FALSE(check("90 partition from=1 to=2 duration=20\n", 100));
  EXPECT_FALSE(check("10 straggler site=4 factor=0.5\n", 100));
  EXPECT_FALSE(check("95 stall duration=10\n", 100));
  EXPECT_FALSE(check("50 flap from=1 to=2 period=10 duration=60\n", 100));
}

TEST(Percentile, ReportsSampleCount) {
  const Percentile p = percentile({4.0, 1.0, 3.0, 2.0}, 50);
  EXPECT_DOUBLE_EQ(p.value, 2.5);
  EXPECT_EQ(p.samples, 4u);
  EXPECT_EQ(percentile({}, 50).samples, 0u);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99).value, 7.0);
}

TEST(LatencyHistogram, PercentileWithinBucketWidthAndCounted) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_us(50).samples, 0u);
  for (std::uint64_t ns = 1'000; ns <= 100'000; ns += 1) h.add(ns);
  const Percentile p50 = h.percentile_us(50);
  const Percentile p99 = h.percentile_us(99);
  EXPECT_EQ(p50.samples, 99'001u);
  EXPECT_EQ(p99.samples, 99'001u);
  EXPECT_NEAR(p50.value, 50.5, 50.5 * 0.008);
  EXPECT_NEAR(p99.value, 99.01, 99.01 * 0.008);
  // Small values are exact.
  LatencyHistogram small;
  for (int i = 0; i < 10; ++i) small.add(42);
  EXPECT_NEAR(small.percentile_us(50).value, 0.0425, 0.0005);
}

}  // namespace
}  // namespace perfbench
