// src/exec: the deterministic parallel execution substrate.
//
// Covers the three layers the sweep harness stacks: parallel_for's fork/join
// contract (every index runs once, lowest-index exception wins), grid
// parsing + row-major expansion + index-based seed forking, and the headline
// determinism contract -- a 16-cell grid merged at --jobs 1 and --jobs 8
// must be byte-identical (DESIGN.md §9).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel.h"
#include "exec/sweep.h"
#include "obs/trace_analysis.h"

namespace wasp::exec {
namespace {

// ---- fork_seed ---------------------------------------------------------

TEST(ForkSeed, PureFunctionOfBaseAndIndex) {
  EXPECT_EQ(fork_seed(42, 0), fork_seed(42, 0));
  EXPECT_EQ(fork_seed(42, 31), fork_seed(42, 31));
  EXPECT_NE(fork_seed(42, 0), fork_seed(42, 1));
  EXPECT_NE(fork_seed(42, 0), fork_seed(43, 0));
}

TEST(ForkSeed, DistinctAcrossAWideGrid) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ULL, 7ULL, 42ULL}) {
    for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(fork_seed(base, i));
  }
  EXPECT_EQ(seeds.size(), 3000u);
}

// ---- parallel_for ------------------------------------------------------

TEST(ParallelFor, FillsEveryIndexSlotForAnyJobCount) {
  for (int jobs : {1, 2, 8, 16}) {
    std::vector<int> slots(64, -1);
    parallel_for(jobs, slots.size(),
                 [&slots](std::size_t i) { slots[i] = static_cast<int>(i); });
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i], static_cast<int>(i)) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelFor, RethrowsLowestIndexException) {
  // Indices 3 and 7 throw; every index still runs, and the lowest-index
  // error is the one surfaced regardless of completion order.
  std::atomic<int> ran{0};
  try {
    parallel_for(4, 10, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("seven");
      if (i == 3) throw std::runtime_error("three");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "three");
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(ParallelFor, InlineWhenSerialOrEmpty) {
  std::vector<int> slots(4, -1);
  parallel_for(1, 4, [&slots](std::size_t i) { slots[i] = 1; });
  EXPECT_EQ(slots, std::vector<int>({1, 1, 1, 1}));
  parallel_for(8, 0, [](std::size_t) { FAIL(); });
}

// ---- GridSpec parsing --------------------------------------------------

TEST(GridSpec, ParsesListsRangesAndAliases) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1..3,10", &error)) << error;
  ASSERT_TRUE(grid.parse_arg("mode=wasp,static", &error)) << error;  // alias
  ASSERT_EQ(grid.axes.size(), 2u);
  EXPECT_EQ(grid.axes[0].name, "seeds");
  EXPECT_EQ(grid.axes[0].values,
            std::vector<std::string>({"1", "2", "3", "10"}));
  EXPECT_EQ(grid.axes[1].name, "policy");  // canonicalized
  EXPECT_EQ(grid.num_cells(), 8u);
  EXPECT_EQ(grid.to_string(), "seeds=1,2,3,10 policy=wasp,static");
}

TEST(GridSpec, RepeatedAxisReplacesValues) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1..8", &error));
  ASSERT_TRUE(grid.parse_arg("seeds=5", &error));
  ASSERT_EQ(grid.axes.size(), 1u);
  EXPECT_EQ(grid.axes[0].values, std::vector<std::string>({"5"}));
}

TEST(GridSpec, RejectsUnknownAxesAndBadRanges) {
  GridSpec grid;
  std::string error;
  EXPECT_FALSE(grid.parse_arg("frobnicate=1", &error));
  EXPECT_NE(error.find("unknown grid axis"), std::string::npos);
  EXPECT_FALSE(grid.parse_arg("seeds=9..3", &error));
  EXPECT_FALSE(grid.parse_arg("noequals", &error));
}

TEST(GridSpec, ParsesSweepFileWithComments) {
  const std::string path = testing::TempDir() + "/exec_test_grid.sweep";
  {
    std::ofstream out(path);
    out << "# a comment\n\nseeds=1..2\n  policy=wasp,degrade  \n";
  }
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_file(path, &error)) << error;
  EXPECT_EQ(grid.num_cells(), 4u);
  EXPECT_FALSE(grid.parse_file(path + ".missing", &error));
}

// ---- expand_grid -------------------------------------------------------

TEST(ExpandGrid, RowMajorLastAxisFastest) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1,2", &error));
  ASSERT_TRUE(grid.parse_arg("policy=wasp,degrade", &error));
  const auto cells = expand_grid(grid, SweepDefaults{}, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  ASSERT_EQ(cells->size(), 4u);
  EXPECT_EQ((*cells)[0].scenario.seed, 1u);
  EXPECT_EQ((*cells)[0].scenario.mode, runtime::AdaptationMode::kWasp);
  EXPECT_EQ((*cells)[1].scenario.seed, 1u);
  EXPECT_EQ((*cells)[1].scenario.mode, runtime::AdaptationMode::kDegrade);
  EXPECT_EQ((*cells)[2].scenario.seed, 2u);
  EXPECT_EQ((*cells)[2].scenario.mode, runtime::AdaptationMode::kWasp);
  EXPECT_EQ((*cells)[3].index, 3u);
  EXPECT_FALSE((*cells)[0].seed_forked);
}

TEST(ExpandGrid, ForksSeedByCellIndexWithoutSeedsAxis) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("policy=wasp,degrade,hybrid", &error));
  SweepDefaults defaults;
  defaults.base_seed = 99;
  const auto cells = expand_grid(grid, defaults, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  ASSERT_EQ(cells->size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE((*cells)[i].seed_forked);
    EXPECT_EQ((*cells)[i].scenario.seed, fork_seed(99, i));
  }
}

TEST(ExpandGrid, TopologyAxisStoresCanonicalSpecs) {
  GridSpec grid;
  std::string error;
  // ';' separates spec params because ',' separates axis values.
  ASSERT_TRUE(
      grid.parse_arg("topology=paper,edge:sites=32;regions=4", &error));
  const auto cells = expand_grid(grid, SweepDefaults{}, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  ASSERT_EQ(cells->size(), 2u);
  EXPECT_TRUE((*cells)[0].scenario.topology.empty());  // paper = the default testbed
  EXPECT_FALSE((*cells)[1].scenario.topology.empty());
  EXPECT_EQ((*cells)[1].scenario.topology.rfind("edge:", 0), 0u);
  EXPECT_EQ((*cells)[1].labels[0].second, "edge:sites=32;regions=4");
}

TEST(ExpandGrid, RejectsBadValues) {
  for (const char* axis :
       {"policy=warp", "query=nope", "duration=abc", "workload-step=xyz",
        "topology=edge:sites=banana"}) {
    GridSpec grid;
    std::string error;
    ASSERT_TRUE(grid.parse_arg(axis, &error)) << axis;
    EXPECT_FALSE(expand_grid(grid, SweepDefaults{}, &error).has_value())
        << axis;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ExpandGrid, StepsAndStaticAliasApply) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("policy=static", &error));
  ASSERT_TRUE(grid.parse_arg("workload-step=300:2+600:1", &error));
  const auto cells = expand_grid(grid, SweepDefaults{}, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  EXPECT_EQ((*cells)[0].scenario.mode, runtime::AdaptationMode::kNoAdapt);
  const auto& steps = (*cells)[0].scenario.workload_steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0].first, 300.0);
  EXPECT_DOUBLE_EQ(steps[0].second, 2.0);
}

// ---- run_one / run_sweep ----------------------------------------------

TEST(RunOne, ReportsErrorsInsteadOfThrowing) {
  RunSpec spec;
  spec.scenario.seed = 7;
  spec.scenario.duration_sec = 10.0;
  spec.scenario.fault_schedule = "/nonexistent/chaos.fsched";
  const RunResult result = run_one(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  const obs::TraceEvent event = result.to_trace_event();
  EXPECT_EQ(event.num("ok"), 0.0);
  EXPECT_FALSE(std::string(event.str("error")).empty());
}

// The tentpole acceptance test: a 16-cell grid (8 seeds x 2 policies, with a
// workload surge so the adaptive cells actually adapt) merged at jobs=1 and
// jobs=8 must be byte-identical.
TEST(SweepDeterminism, SixteenCellGridIdenticalForJobs1AndJobs8) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1..8", &error));
  ASSERT_TRUE(grid.parse_arg("policy=wasp,static", &error));
  SweepDefaults defaults;
  defaults.scenario.duration_sec = 120.0;
  auto cells = expand_grid(grid, defaults, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  ASSERT_EQ(cells->size(), 16u);
  // A surge at t=30 so the wasp cells exercise the adaptation machinery.
  for (auto& cell : *cells) {
    cell.scenario.workload_steps = {{30.0, 3.0}};
  }

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const auto serial_results = run_sweep(*cells, serial);
  const auto parallel_results = run_sweep(*cells, parallel);
  const std::string serial_merged =
      merged_jsonl(grid, defaults, serial_results);
  const std::string parallel_merged =
      merged_jsonl(grid, defaults, parallel_results);
  EXPECT_EQ(serial_merged, parallel_merged);  // byte-identical

  // Results are ordered by cell index regardless of completion order.
  for (std::size_t i = 0; i < parallel_results.size(); ++i) {
    EXPECT_TRUE(parallel_results[i].ok) << parallel_results[i].error;
    EXPECT_EQ(parallel_results[i].spec.index, i);
  }
  // The adaptive cells did adapt (the surge is sized to force it).
  std::size_t adaptive_actions = 0;
  for (const auto& result : parallel_results) {
    if (result.spec.scenario.mode == runtime::AdaptationMode::kWasp) {
      adaptive_actions += result.adaptations;
    }
  }
  EXPECT_GT(adaptive_actions, 0u);
}

// The merged stream parses with the trace-analysis layer (wasp_trace
// validate/diff consume sweep output unchanged).
TEST(MergedJsonl, ParsesAsTraceEvents) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1..2", &error));
  SweepDefaults defaults;
  defaults.scenario.duration_sec = 30.0;
  const auto cells = expand_grid(grid, defaults, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  SweepOptions opts;
  opts.jobs = 2;
  const auto results = run_sweep(*cells, opts);
  const std::string merged = merged_jsonl(grid, defaults, results);

  std::istringstream in(merged);
  const obs::TraceFile parsed = obs::load_trace(in);
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.events.size(), 3u);  // header + 2 cells
  EXPECT_EQ(parsed.events[0].type, "sweep_grid");
  EXPECT_EQ(parsed.events[0].num("cells"), 2.0);
  EXPECT_EQ(parsed.events[1].type, "sweep_cell");
  EXPECT_EQ(parsed.events[1].num("cell"), 0.0);
  EXPECT_EQ(parsed.events[1].seq, 1u);
  EXPECT_EQ(parsed.events[2].num("cell"), 1.0);
  // With a seeds axis, the cell seed is the axis value -- not forked.
  EXPECT_EQ(parsed.events[1].num("seed"), 1.0);
  EXPECT_EQ(parsed.events[2].num("seed"), 2.0);
}

}  // namespace
}  // namespace wasp::exec
