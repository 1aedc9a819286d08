// Unit tests for the workload layer: the Table 3 query builders and the
// workload rate patterns.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "workload/patterns.h"
#include "workload/trace_io.h"
#include "workload/queries.h"

namespace wasp::workload {
namespace {

std::vector<SiteId> sites(std::initializer_list<std::int64_t> ids) {
  std::vector<SiteId> out;
  for (auto id : ids) out.emplace_back(id);
  return out;
}

TEST(QueriesTest, YsbCampaignShape) {
  const QuerySpec spec = make_ysb_campaign(sites({0, 1, 2}), SiteId(5));
  EXPECT_EQ(spec.plan.validate(), "");
  EXPECT_TRUE(spec.stateful);
  ASSERT_EQ(spec.sources.size(), 1u);
  EXPECT_EQ(spec.plan.op(spec.sources[0]).pinned_sites.size(), 3u);
  // Table 3: filter, map, window (join modeled as in-memory map per §8.3).
  int windows = 0, filters = 0, maps = 0;
  for (const auto& op : spec.plan.operators()) {
    windows += op.kind == query::OperatorKind::kWindowAggregate;
    filters += op.kind == query::OperatorKind::kFilter;
    maps += op.kind == query::OperatorKind::kMap;
    if (op.kind == query::OperatorKind::kWindowAggregate) {
      EXPECT_DOUBLE_EQ(op.window.length_sec, 10.0);  // 10 s campaign window
      EXPECT_TRUE(op.stateful());
    }
  }
  EXPECT_EQ(windows, 1);
  EXPECT_EQ(filters, 1);
  EXPECT_EQ(maps, 1);
}

TEST(QueriesTest, YsbStateIsSmall) {
  // Table 3: < 10 MB of state at the baseline (26.4k ev/s into a 10 s
  // window).
  const QuerySpec spec = make_ysb_campaign(sites({0, 1}), SiteId(5));
  for (const auto& op : spec.plan.operators()) {
    if (!op.stateful()) continue;
    const double state_mb =
        op.state.base_mb + op.state.mb_per_kevent * 26.4 * 10.0;
    EXPECT_LT(state_mb, 10.0);
  }
}

TEST(QueriesTest, TopkShapeAndState) {
  const QuerySpec spec =
      make_topk_topics(sites({0, 1}), sites({2, 3}), SiteId(6));
  EXPECT_EQ(spec.plan.validate(), "");
  EXPECT_TRUE(spec.stateful);
  EXPECT_EQ(spec.sources.size(), 2u);
  bool saw_union = false, saw_topk = false;
  for (const auto& op : spec.plan.operators()) {
    saw_union |= op.kind == query::OperatorKind::kUnion;
    saw_topk |= op.kind == query::OperatorKind::kTopK;
    if (op.kind == query::OperatorKind::kWindowAggregate) {
      EXPECT_DOUBLE_EQ(op.window.length_sec, 30.0);
      // Table 3: ~100 MB at the baseline (48k ev/s into a 30 s window).
      const double state_mb =
          op.state.base_mb + op.state.mb_per_kevent * 48.0 * 30.0;
      EXPECT_GT(state_mb, 50.0);
      EXPECT_LT(state_mb, 200.0);
    }
  }
  EXPECT_TRUE(saw_union);
  EXPECT_TRUE(saw_topk);
}

TEST(QueriesTest, EventsOfInterestIsStateless) {
  const QuerySpec spec =
      make_events_of_interest(sites({0, 1, 2, 3}), SiteId(6));
  EXPECT_EQ(spec.plan.validate(), "");
  EXPECT_FALSE(spec.stateful);
  for (const auto& op : spec.plan.operators()) {
    EXPECT_FALSE(op.stateful());
  }
}

TEST(QueriesTest, SourcesForwardToChainedFilters) {
  const QuerySpec spec = make_ysb_campaign(sites({0, 1}), SiteId(5));
  for (OperatorId src : spec.sources) {
    EXPECT_EQ(spec.plan.op(src).output_partitioning,
              query::Partitioning::kForward);
    // The chained filter is pinned at the same sites.
    for (OperatorId d : spec.plan.downstream(src)) {
      EXPECT_EQ(spec.plan.op(d).pinned_sites,
                spec.plan.op(src).pinned_sites);
    }
  }
}

TEST(QueriesTest, FourSourceJoinHasReorderableTree) {
  const QuerySpec spec =
      make_four_source_join(sites({0, 1, 2, 3}), SiteId(5), false);
  EXPECT_EQ(spec.plan.validate(), "");
  int joins = 0;
  for (const auto& op : spec.plan.operators()) {
    joins += op.kind == query::OperatorKind::kJoin;
  }
  EXPECT_EQ(joins, 3);
  EXPECT_FALSE(spec.stateful);
  EXPECT_TRUE(make_four_source_join(sites({0, 1, 2, 3}), SiteId(5), true)
                  .stateful);
}

TEST(PatternsTest, SteppedWorkloadAppliesFactors) {
  SteppedWorkload w;
  w.set_base_rate(OperatorId(0), SiteId(1), 10'000.0);
  w.add_step(300.0, 2.0);
  w.add_step(600.0, 1.0);
  EXPECT_DOUBLE_EQ(w.rate(OperatorId(0), SiteId(1), 0.0), 10'000.0);
  EXPECT_DOUBLE_EQ(w.rate(OperatorId(0), SiteId(1), 450.0), 20'000.0);
  EXPECT_DOUBLE_EQ(w.rate(OperatorId(0), SiteId(1), 900.0), 10'000.0);
  // Unknown (source, site) pairs rate 0.
  EXPECT_DOUBLE_EQ(w.rate(OperatorId(0), SiteId(2), 0.0), 0.0);
}

TEST(PatternsTest, RandomWalkStaysInPaperRange) {
  Rng rng(3);
  RandomWalkWorkload::Config cfg;  // §8.6 defaults: [0.8, 2.4]
  RandomWalkWorkload w(cfg, rng);
  w.set_base_rate(OperatorId(0), SiteId(2), 10'000.0);
  for (double t = 0.0; t < 1800.0; t += 30.0) {
    const double r = w.rate(OperatorId(0), SiteId(2), t);
    EXPECT_GE(r, 8'000.0);
    EXPECT_LE(r, 24'000.0);
    EXPECT_DOUBLE_EQ(w.factor(SiteId(2), t) * 10'000.0, r);
  }
}

TEST(PatternsTest, RandomWalkIsDeterministicPerSeed) {
  Rng r1(9), r2(9);
  RandomWalkWorkload::Config cfg;
  RandomWalkWorkload a(cfg, r1), b(cfg, r2);
  for (double t = 0.0; t < 1800.0; t += 300.0) {
    EXPECT_DOUBLE_EQ(a.factor(SiteId(1), t), b.factor(SiteId(1), t));
  }
}

TEST(PatternsTest, DiurnalPeaksAtConfiguredRatio) {
  DiurnalWorkload::Config cfg;
  cfg.peak_to_trough = 2.0;
  cfg.per_site_phase = 0.0;
  DiurnalWorkload w(cfg);
  w.set_base_rate(OperatorId(0), SiteId(0), 1'000.0);
  double lo = 1e18, hi = 0.0;
  for (double t = 0.0; t < 86400.0; t += 600.0) {
    const double r = w.rate(OperatorId(0), SiteId(0), t);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_NEAR(lo, 1'000.0, 20.0);
  EXPECT_NEAR(hi, 2'000.0, 20.0);
}

TEST(PatternsTest, DiurnalPhaseShiftsPeaksAcrossSites) {
  DiurnalWorkload::Config cfg;
  cfg.per_site_phase = 0.5;  // opposite time zones
  DiurnalWorkload w(cfg);
  w.set_base_rate(OperatorId(0), SiteId(0), 1'000.0);
  w.set_base_rate(OperatorId(0), SiteId(1), 1'000.0);
  // When site 0 peaks, site 1 troughs (half-day phase offset).
  double t_peak0 = 0.0, best = 0.0;
  for (double t = 0.0; t < 86400.0; t += 600.0) {
    const double r = w.rate(OperatorId(0), SiteId(0), t);
    if (r > best) {
      best = r;
      t_peak0 = t;
    }
  }
  EXPECT_LT(w.rate(OperatorId(0), SiteId(1), t_peak0), 1'100.0);
}

TEST(TraceWorkloadTest, StepInterpolationAndBinding) {
  TraceWorkload trace;
  trace.add_sample("tweets", SiteId(3), 0.0, 5'000.0);
  trace.add_sample("tweets", SiteId(3), 600.0, 9'000.0);
  // Unbound source: silent.
  EXPECT_DOUBLE_EQ(trace.rate(OperatorId(0), SiteId(3), 100.0), 0.0);
  trace.bind_source(OperatorId(0), "tweets");
  EXPECT_DOUBLE_EQ(trace.rate(OperatorId(0), SiteId(3), 100.0), 5'000.0);
  EXPECT_DOUBLE_EQ(trace.rate(OperatorId(0), SiteId(3), 700.0), 9'000.0);
  // Untraced site stays silent.
  EXPECT_DOUBLE_EQ(trace.rate(OperatorId(0), SiteId(4), 100.0), 0.0);
}

TEST(TraceWorkloadTest, ParsesCsv) {
  std::istringstream in(
      "time_sec,source_name,site,events_per_sec\n"
      "# synthetic\n"
      "0,tweets-east,8,10000\n"
      "300,tweets-east,8,20000\n"
      "0,tweets-west,9,12000\n");
  std::string error;
  TraceWorkload trace = load_workload_trace(in, &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(trace.num_samples(), 3u);
  const auto names = trace.source_names();
  ASSERT_EQ(names.size(), 2u);
  trace.bind_source(OperatorId(1), "tweets-east");
  EXPECT_DOUBLE_EQ(trace.rate(OperatorId(1), SiteId(8), 400.0), 20'000.0);
}

TEST(TraceWorkloadTest, RejectsMalformedAndNegative) {
  {
    std::istringstream in("0,tweets,8,1000\nbroken line\n");
    std::string error;
    const TraceWorkload t = load_workload_trace(in, &error);
    EXPECT_NE(error, "");
    EXPECT_EQ(t.num_samples(), 0u);
  }
  {
    std::istringstream in("0,tweets,8,-5\n");
    std::string error;
    const TraceWorkload t = load_workload_trace(in, &error);
    EXPECT_NE(error, "");
    EXPECT_EQ(t.num_samples(), 0u);
  }
}

TEST(TraceWorkloadTest, RejectsNonFiniteAndPartialCells) {
  // std::stod would read "1e308x" as 1e308 and "nan" as NaN; both are load
  // errors naming the line, as is a fractional site.
  for (const char* row : {"0,tweets,8,nan", "0,tweets,8,1e308x",
                          "0,tweets,8,inf", "nan,tweets,8,5", "0,tweets,8.5,5"}) {
    SCOPED_TRACE(row);
    std::istringstream in(std::string("0,tweets,8,1000\n") + row + "\n");
    std::string error;
    const TraceWorkload t = load_workload_trace(in, &error);
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_EQ(t.num_samples(), 0u);
  }
  // Blanks around a cell are not part of the number.
  std::istringstream in("0, tweets,8 , 1000\r\n");
  std::string error;
  EXPECT_EQ(load_workload_trace(in, &error).num_samples(), 1u);
  EXPECT_EQ(error, "");
}

TEST(TraceWorkloadTest, FitsChecksSourceNamesAndSites) {
  TraceWorkload trace;
  trace.add_sample("tweets-east", SiteId(8), 0.0, 1'000.0);
  std::string error;
  EXPECT_TRUE(trace.fits(16, {"tweets-east", "tweets-west"}, &error));
  EXPECT_FALSE(trace.fits(8, {"tweets-east"}, &error));
  EXPECT_NE(error.find("site 8"), std::string::npos) << error;
  EXPECT_FALSE(trace.fits(16, {"clicks"}, &error));
  EXPECT_NE(error.find("'tweets-east'"), std::string::npos) << error;
}

TEST(TraceWorkloadTest, SaveLoadRoundTrip) {
  SteppedWorkload original;
  original.set_base_rate(OperatorId(0), SiteId(2), 10'000.0);
  original.add_step(300.0, 2.0);
  std::stringstream buffer;
  save_workload_trace(buffer, original,
                      {{OperatorId(0), "src-a", {SiteId(2)}}}, 600.0, 100.0);
  std::string error;
  TraceWorkload reloaded = load_workload_trace(buffer, &error);
  ASSERT_EQ(error, "");
  reloaded.bind_source(OperatorId(0), "src-a");
  EXPECT_DOUBLE_EQ(reloaded.rate(OperatorId(0), SiteId(2), 50.0), 10'000.0);
  EXPECT_DOUBLE_EQ(reloaded.rate(OperatorId(0), SiteId(2), 450.0), 20'000.0);
}

TEST(PatternsTest, ZipfSplitConservesTotalAndSkews) {
  Rng rng(11);
  const auto split = zipf_site_split(80'000.0, 8, 1.0, rng);
  ASSERT_EQ(split.size(), 8u);
  double total = 0.0, hi = 0.0, lo = 1e18;
  for (double r : split) {
    total += r;
    hi = std::max(hi, r);
    lo = std::min(lo, r);
  }
  EXPECT_NEAR(total, 80'000.0, 1e-6);
  EXPECT_GT(hi / lo, 4.0);  // strong spatial skew
}

}  // namespace
}  // namespace wasp::workload
