// src/runtime scenario + flag table: the one run description, the one
// builder and the one declarative flag table every CLI parses through.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/topology.h"
#include "net/topology_spec.h"
#include "runtime/flags.h"
#include "runtime/scenario.h"

namespace wasp::runtime {
namespace {

// Parses `args` (argv[0] is supplied) through `table`; stdout/stderr of the
// parser are captured so failures stay quiet.
std::optional<int> parse(const FlagTable& table,
                         std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const auto rc = table.parse(static_cast<int>(argv.size()), argv.data());
  testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  return rc;
}

// ---- flag table ----------------------------------------------------------

TEST(FlagTable, HelpListsEveryRow) {
  Scenario scenario;
  bool csv = false;
  FlagTable table("tool -- test");
  table.add_scenario(&scenario);
  table.add({"--csv", "", "print CSV",
             [&csv](const std::string&) { csv = true; }});
  const std::string help = table.help();
  ASSERT_GE(table.rows().size(), 21u);  // 20 scenario rows + --csv
  for (const Flag& row : table.rows()) {
    const std::string usage =
        "  " + row.name + (row.hint.empty() ? "" : "=" + row.hint);
    EXPECT_NE(help.find(usage), std::string::npos) << row.name;
    EXPECT_NE(help.find(row.help.substr(0, row.help.find('\n'))),
              std::string::npos)
        << row.name;
  }
  EXPECT_NE(help.find("  --help"), std::string::npos);
}

TEST(FlagTable, SharedRowPrintsTheSameHelpInEveryTable) {
  Scenario a, b;
  FlagTable full("full");
  full.add_scenario(&a);
  FlagTable subset("subset");
  subset.add({"--jobs", "N", "workers", [](const std::string&) {}});
  subset.add_scenario(&b, {"topology", "profile-every"});
  ASSERT_EQ(subset.rows().size(), 3u);
  auto block = [](const std::string& help, const std::string& name) {
    const auto start = help.find("\n  " + name);
    const auto end = help.find("\n  --", start + 1);
    return help.substr(start, end - start);
  };
  for (const char* name : {"--topology=", "--profile-every="}) {
    EXPECT_EQ(block(full.help(), name), block(subset.help(), name)) << name;
  }
}

TEST(FlagTable, ParsesValuesSwitchesAndHelp) {
  Scenario s;
  FlagTable table("tool");
  table.add_scenario(&s);
  EXPECT_EQ(parse(table, {"--seed=11", "--mode=degrade", "--query=ysb",
                          "--live-bandwidth", "--workload-step=10:2+20:1",
                          "--workload-step=30:3", "--fail=5:2"}),
            std::nullopt);
  EXPECT_EQ(s.seed, 11u);
  EXPECT_EQ(s.mode, AdaptationMode::kDegrade);
  EXPECT_EQ(s.query, "ysb");
  EXPECT_EQ(s.bandwidth, "live");
  ASSERT_EQ(s.workload_steps.size(), 3u);  // '+'-joined and repeated append
  EXPECT_DOUBLE_EQ(s.workload_steps[2].first, 30.0);
  ASSERT_TRUE(s.failure.has_value());
  EXPECT_DOUBLE_EQ(s.failure->second, 2.0);
  EXPECT_EQ(parse(table, {"--help"}), 0);
}

TEST(FlagTable, RejectsUnknownFlagsAndBadValues) {
  Scenario s;
  FlagTable table("tool");
  table.add_scenario(&s);
  for (const char* arg :
       {"--frobnicate", "--seed", "--live-bandwidth=1", "--duration=abc",
        "--seed=-1", "--query=tpok", "--mode=warp", "--profile-every=0",
        "--sites=1", "--standby-replicas=-1", "--topology=edge:sites=banana",
        "--slo=delay_p99=abc", "--workload-step=xyz", "--fail=3"}) {
    EXPECT_EQ(parse(table, {arg}), 2) << arg;
  }
}

TEST(FlagTable, ConflictingSourcesFailAndRepeatsAreLastWins) {
  Scenario s;
  FlagTable table("tool");
  table.add_scenario(&s);
  EXPECT_EQ(parse(table, {"--live-bandwidth", "--trace=missing.csv"}), 2);
  EXPECT_EQ(parse(table, {"--workload-trace=w.csv", "--live-workload"}), 2);
  EXPECT_EQ(parse(table, {"--sites=8", "--topology=paper"}), 2);
  Scenario t;
  FlagTable again("tool");
  again.add_scenario(&t);
  EXPECT_EQ(parse(again, {"--trace=a.csv", "--trace=b.csv", "--sites=4",
                          "--sites=6"}),
            std::nullopt);
  EXPECT_EQ(t.bandwidth, "b.csv");
  EXPECT_EQ(t.topology.rfind("uniform:sites=6,", 0), 0u);
}

TEST(FlagTable, GreedyRowTakesFollowingArguments) {
  std::vector<std::string> axes;
  bool quiet = false;
  FlagTable table("tool");
  table.add({"--grid", "AXIS...", "axes",
             [&axes](const std::string& v) { axes.push_back(v); }, "",
             /*greedy=*/true});
  table.add({"--quiet", "", "quiet",
             [&quiet](const std::string&) { quiet = true; }});
  EXPECT_EQ(parse(table, {"--grid", "seeds=1..2", "policy=wasp", "--quiet"}),
            std::nullopt);
  EXPECT_EQ(axes, std::vector<std::string>({"seeds=1..2", "policy=wasp"}));
  EXPECT_TRUE(quiet);
  EXPECT_EQ(parse(table, {"--quiet", "seeds=1"}), 2);  // not after --grid
}

// ---- scenario rows through set_scenario_flag -----------------------------

TEST(ScenarioFlags, SitesIsAnAliasOfUniformTopology) {
  Scenario by_sites, by_topology;
  set_scenario_flag(&by_sites, "sites", "8");
  set_scenario_flag(&by_topology, "topology", "uniform:sites=8");
  EXPECT_EQ(by_sites.topology, by_topology.topology);
  Scenario paper;
  set_scenario_flag(&paper, "topology", "paper");
  EXPECT_TRUE(paper.topology.empty());
}

TEST(ScenarioFlags, SourceRowsShareOneField) {
  Scenario s;
  set_scenario_flag(&s, "trace", "live");
  EXPECT_EQ(s.bandwidth, "live");
  set_scenario_flag(&s, "trace", "none");
  EXPECT_TRUE(s.bandwidth.empty());
  set_scenario_flag(&s, "workload-trace", "w.csv");
  EXPECT_EQ(s.workload, "w.csv");
  set_scenario_flag(&s, "fault-schedule", "none");
  EXPECT_TRUE(s.fault_schedule.empty());
  set_scenario_flag(&s, "profile-every", "5");
  EXPECT_TRUE(s.profile);
  EXPECT_EQ(s.profile_every, 5);
  EXPECT_THROW(set_scenario_flag(&s, "csv", ""), std::invalid_argument);
}

TEST(ParseMode, InvertsToStringAndAcceptsStatic) {
  for (AdaptationMode mode :
       {AdaptationMode::kNoAdapt, AdaptationMode::kDegrade,
        AdaptationMode::kWasp, AdaptationMode::kReassignOnly,
        AdaptationMode::kScaleOnly, AdaptationMode::kReplanOnly,
        AdaptationMode::kHybrid}) {
    EXPECT_EQ(parse_mode(to_string(mode)), mode) << to_string(mode);
  }
  EXPECT_EQ(parse_mode("static"), AdaptationMode::kNoAdapt);
  EXPECT_EQ(parse_mode("warp"), std::nullopt);
}

// ---- roles and builder ---------------------------------------------------

TEST(RolesOf, UniformCliqueFeedsFromEveryNonSinkSite) {
  const Roles roles = roles_of(net::Topology::make_uniform(5, 4, 500.0, 20.0));
  EXPECT_EQ(roles.sink, SiteId(0));
  EXPECT_EQ(roles.dcs.size(), 5u);
  EXPECT_EQ(roles.east, std::vector<SiteId>({SiteId(1), SiteId(3)}));
  EXPECT_EQ(roles.west, std::vector<SiteId>({SiteId(2), SiteId(4)}));
}

TEST(RolesOf, PaperTestbedSplitsEdgeSites) {
  Rng rng(7);
  const net::Topology topo = net::Topology::make_paper_testbed(rng);
  const Roles roles = roles_of(topo);
  EXPECT_EQ(roles.edges.size(), 8u);
  EXPECT_EQ(roles.east.size(), 4u);
  EXPECT_EQ(roles.west.size(), 4u);
  EXPECT_EQ(topo.site(roles.sink).type, net::SiteType::kDataCenter);
  EXPECT_TRUE(make_query("join", roles).has_value());
  EXPECT_FALSE(make_query("tpok", roles).has_value());
}

TEST(ScenarioRun, ReportsTypedErrors) {
  ScenarioError error;
  Scenario missing_trace;
  missing_trace.bandwidth = "/nonexistent/trace.csv";
  EXPECT_FALSE(ScenarioRun::build(missing_trace, "", &error).has_value());
  EXPECT_EQ(error.exit_code, 1);
  EXPECT_NE(error.message.find("cannot open trace file"), std::string::npos);
  Scenario bad_query;
  bad_query.query = "tpok";
  EXPECT_FALSE(ScenarioRun::build(bad_query, "", &error).has_value());
  EXPECT_EQ(error.exit_code, 2);
}

TEST(ScenarioRun, RunsToTheHorizonOrTheStopPredicate) {
  Scenario s;
  s.duration_sec = 20.0;
  s.failure = std::make_pair(5.0, 3.0);
  ScenarioError error;
  auto run = ScenarioRun::build(s, "", &error);
  ASSERT_TRUE(run.has_value()) << error.message;
  run->run();
  EXPECT_DOUBLE_EQ(run->system->now(), 20.0);

  auto stopped = ScenarioRun::build(s, "", &error);
  ASSERT_TRUE(stopped.has_value());
  WaspSystem& system = *stopped->system;
  stopped->run([&system] { return system.now() >= 7.0; });
  EXPECT_DOUBLE_EQ(system.now(), 7.0);
}

}  // namespace
}  // namespace wasp::runtime
