#include "runtime/flags.h"

#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/parse.h"
#include "net/topology_spec.h"
#include "runtime/slo_watchdog.h"

namespace wasp::runtime {
namespace {

// Help text starts in this column; a longer usage gets a line of its own.
constexpr std::size_t kHelpColumn = 29;

using Value = const std::string&;

double non_negative(Value text) {
  const double value = parse_number<double>(text);
  if (value < 0.0) throw std::invalid_argument("must be >= 0");
  return value;
}

double positive(Value text) {
  const double value = parse_number<double>(text);
  if (value <= 0.0) throw std::invalid_argument("must be > 0");
  return value;
}

// "T:F" -> (T, F), each side read by `number`.
std::pair<double, double> parse_pair(
    Value text, double (*number)(Value) = parse_number<double>) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) throw std::invalid_argument("expected T:F");
  return {number(text.substr(0, colon)), number(text.substr(colon + 1))};
}

int at_least(int min, Value text) {
  const int value = parse_number<int>(text);
  if (value < min) {
    throw std::invalid_argument("must be >= " + std::to_string(min));
  }
  return value;
}

// Setters shared by several rows, one per kind of Scenario field.
// A source field: "none" clears it.
template <std::string Scenario::*Field>
void set_source(Scenario& s, Value v) {
  s.*Field = v == "none" ? std::string{} : v;
}

// "T:F[+T:F...]", appended; times and factors are >= 0.
template <std::vector<std::pair<double, double>> Scenario::*Field>
void add_steps(Scenario& s, Value v) {
  if (v.empty()) throw std::invalid_argument("expected T:F");
  std::stringstream in(v);
  std::string item;
  while (std::getline(in, item, '+')) {
    (s.*Field).push_back(parse_pair(item, non_negative));
  }
}

struct ScenarioRow {
  const char* name;
  const char* hint;
  const char* help;
  const char* source;
  void (*set)(Scenario& s, Value v);
};

const ScenarioRow kScenarioRows[] = {
    {"seed", "N", "master seed (default 7)", "",
     [](Scenario& s, Value v) { s.seed = parse_number<std::uint64_t>(v); }},
    {"mode", "M",
     "adaptation mode (default wasp): wasp | no-adapt |\n"
     "static (= no-adapt) | degrade | re-assign | scale |\n"
     "re-plan | hybrid",
     "",
     [](Scenario& s, Value v) {
       const auto mode = parse_mode(v);
       if (!mode.has_value()) {
         throw std::invalid_argument("unknown mode '" + v + "'");
       }
       s.mode = *mode;
     }},
    {"query", "Q",
     "query to deploy (default topk): topk | ysb |\n"
     "interest | join",
     "",
     [](Scenario& s, Value v) {
       if (!is_query(v)) {
         throw std::invalid_argument("unknown query '" + v + "'");
       }
       s.query = v;
     }},
    {"duration", "SECONDS", "simulated runtime (default 900)", "",
     [](Scenario& s, Value v) { s.duration_sec = positive(v); }},
    {"rate", "EPS", "base events/s per source site (default 10000)", "",
     [](Scenario& s, Value v) { s.rate_eps = non_negative(v); }},
    {"alpha", "X", "bandwidth utilization threshold (default 0.8)", "",
     [](Scenario& s, Value v) {
       const double alpha = positive(v);
       if (alpha > 1.0) throw std::invalid_argument("must be <= 1");
       s.alpha = alpha;
     }},
    {"slo", "SECONDS|SPEC",
     "degrade/hybrid SLO (default 10); a SPEC such as\n"
     "delay_p99=5s,ratio_min=0.9,window=30s runs the\n"
     "SLO watchdog instead (keys: delay_p99 delay_p95\n"
     "delay_max ratio_min window)",
     "",
     [](Scenario& s, Value v) {
       std::string error;
       if (v.find('=') == std::string::npos) {
         s.slo_sec = positive(v);
       } else if (SloSpec::parse(v, &error).has_value()) {
         s.slo_spec = v;
       } else {
         throw std::invalid_argument(error);
       }
     }},
    {"topology", "SPEC",
     "paper (default) | uniform:sites=N,slots=S,bw=MBPS,\n"
     "lat=MS | edge:sites=200,regions=8,core=4,\n"
     "regional=1,core-slots=16,regional-slots=8,\n"
     "edge-slots=2-4,domains-per-region=1 (keys optional,\n"
     "';' also separates; edge: is seeded by --seed and\n"
     "recovers per region; DESIGN.md §14)",
     "topology",
     [](Scenario& s, Value v) {
       std::string error;
       const auto spec = net::TopologySpec::parse(v, &error);
       if (!spec.has_value()) throw std::invalid_argument(error);
       const bool paper = spec->kind == net::TopologySpec::Kind::kPaper;
       s.topology = paper ? std::string{} : spec->to_string();
     }},
    {"sites", "N", "alias of --topology=uniform:sites=N (N >= 2)", "topology",
     [](Scenario& s, Value v) {
       net::TopologySpec spec;
       spec.kind = net::TopologySpec::Kind::kUniform;
       spec.uniform_sites = at_least(2, v);
       s.topology = spec.to_string();
     }},
    {"trace", "FILE",
     "replay a bandwidth-trace CSV (time_sec,from_site,\n"
     "to_site,factor); live | none also accepted",
     "bandwidth", set_source<&Scenario::bandwidth>},
    {"live-bandwidth", "", "random-walk bandwidth (factors 0.51-2.36)",
     "bandwidth", [](Scenario& s, Value) { s.bandwidth = "live"; }},
    {"workload-trace", "FILE",
     "replay a workload-trace CSV (time_sec,source_name,\n"
     "site,events_per_sec); live | none also accepted",
     "workload", set_source<&Scenario::workload>},
    {"live-workload", "", "random-walk workload (factors 0.8-2.4)", "workload",
     [](Scenario& s, Value) { s.workload = "live"; }},
    {"workload-step", "T:F[+T:F...]",
     "scale the workload by F at time T (repeatable)", "",
     add_steps<&Scenario::workload_steps>},
    {"bandwidth-step", "T:F[+T:F...]",
     "scale every link by F at time T (repeatable)", "",
     add_steps<&Scenario::bandwidth_steps>},
    {"fail", "T:DURATION", "revoke all compute at T for DURATION seconds", "",
     [](Scenario& s, Value v) { s.failure = parse_pair(v); }},
    {"fault-schedule", "FILE",
     "replay a scripted chaos schedule: crash / restore /\n"
     "partition / heal / flap / straggler / stall lines\n"
     "(DESIGN.md §8)",
     "",
     set_source<&Scenario::fault_schedule>},
    {"standby-replicas", "N",
     "hot standbys per protected stateful stage\n"
     "(default 0 = replan-only recovery; DESIGN.md §12)",
     "",
     [](Scenario& s, Value v) { s.standby_replicas = at_least(0, v); }},
    {"profile", "",
     "phase profiler (DESIGN.md §13); a pure observer:\n"
     "results and traces stay bit-identical",
     "", [](Scenario& s, Value) { s.profile = true; }},
    {"profile-every", "N",
     "profile-event cadence in ticks (N >= 1, default\n"
     "60; implies --profile)",
     "",
     [](Scenario& s, Value v) {
       s.profile_every = at_least(1, v);
       s.profile = true;
     }},
};

std::string usage_of(const Flag& flag) {
  if (flag.hint.empty()) return flag.name;
  return flag.name + (flag.greedy ? " " : "=") + flag.hint;
}

void append_row(std::string* out, const std::string& usage,
                const std::string& help) {
  std::string line = "  " + usage;
  std::stringstream in(help);
  std::string text;
  while (std::getline(in, text)) {
    if (line.size() >= kHelpColumn) {
      *out += line + "\n";
      line.clear();
    }
    line.resize(kHelpColumn, ' ');
    *out += line + text + "\n";
    line.clear();
  }
}

}  // namespace

void FlagTable::add_scenario(Scenario* scenario,
                             std::initializer_list<std::string_view> names) {
  for (const ScenarioRow& row : kScenarioRows) {
    bool wanted = names.size() == 0;
    for (std::string_view name : names) wanted = wanted || name == row.name;
    if (!wanted) continue;
    auto set = row.set;
    add({std::string("--") + row.name, row.hint, row.help,
         [scenario, set](const std::string& value) { set(*scenario, value); },
         row.source});
  }
}

std::optional<int> FlagTable::parse(int argc, char** argv) const {
  // source -> (row name, argument) of the row that last set it.
  std::map<std::string, std::pair<std::string, std::string>> sources;
  const Flag* greedy = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return 0;
    }
    const Flag* row = nullptr;
    std::string value;
    if (greedy != nullptr && arg.rfind('-', 0) != 0) {
      row = greedy;
      value = arg;
    } else {
      greedy = nullptr;
      const auto eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      for (const Flag& flag : rows_) {
        const bool takes_value = !flag.hint.empty() && !flag.greedy;
        if (flag.name == name && takes_value == (eq != std::string::npos)) {
          row = &flag;
        }
      }
      if (row == nullptr) {
        std::cerr << "unknown argument: " << arg << " (see --help)\n";
        return 2;
      }
      if (row->greedy) {
        greedy = row;
        continue;
      }
      if (eq != std::string::npos) value = arg.substr(eq + 1);
    }
    if (!row->source.empty()) {
      auto [it, fresh] = sources.try_emplace(row->source, row->name, arg);
      if (!fresh && it->second.first != row->name) {
        std::cerr << "conflicting flags: " << it->second.second << " and "
                  << arg << "\n";
        return 2;
      }
      it->second.second = arg;
    }
    try {
      row->set(value);
    } catch (const std::exception& e) {
      std::cerr << "invalid value in " << arg << ": " << e.what() << "\n";
      return 2;
    }
  }
  return std::nullopt;
}

std::string FlagTable::help() const {
  std::string out = title_ + "\n\n";
  for (const Flag& flag : rows_) append_row(&out, usage_of(flag), flag.help);
  append_row(&out, "--help", "this text");
  if (!footer_.empty()) out += "\n" + footer_;
  return out;
}

void set_scenario_flag(Scenario* scenario, std::string_view name,
                       const std::string& value) {
  for (const ScenarioRow& row : kScenarioRows) {
    if (name == row.name) return row.set(*scenario, value);
  }
  throw std::invalid_argument("no scenario flag --" + std::string(name));
}

}  // namespace wasp::runtime
