// One declarative flag table for every command-line tool.
//
// A tool lists its flags as rows -- name, value hint, help text, setter --
// and FlagTable generates both the parser and the `--help` text from them.
// The scenario rows (`--seed`, `--mode`, `--topology`, ...) are defined once
// here and write a runtime::Scenario; `wasp_sim`, `wasp_sweep` and the
// bench drivers add them next to their own tool rows, so a shared flag
// parses and documents itself identically everywhere. `wasp_sweep`'s grid
// axes apply their values through the same rows (set_scenario_flag).
#pragma once

#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/scenario.h"

namespace wasp::runtime {

struct Flag {
  std::string name;  // "--seed"
  std::string hint;  // value placeholder ("N"); empty for a switch
  std::string help;  // '\n'-separated lines
  // Applies the value ("" for a switch); throws std::invalid_argument with
  // the reason on a bad one.
  std::function<void(const std::string& value)> set;
  // Rows naming the same source write the same Scenario field: setting it
  // through two different rows is a usage error, repeating one row is
  // last-wins.
  std::string source{};
  // A greedy row (`--grid AXIS...`) takes every following argument that
  // does not start with '-' as one more value.
  bool greedy = false;
};

class FlagTable {
 public:
  explicit FlagTable(std::string title, std::string footer = {})
      : title_(std::move(title)), footer_(std::move(footer)) {}

  void add(Flag flag) { rows_.push_back(std::move(flag)); }

  // Adds the scenario rows bound to *scenario: all of them, or only those
  // named ("seed", "topology", ...), in table order.
  void add_scenario(Scenario* scenario,
                    std::initializer_list<std::string_view> names = {});

  // Parses argv[1..]. nullopt means "go on and run"; otherwise it is the
  // exit code: 0 after --help, 2 after a usage error (printed on stderr).
  [[nodiscard]] std::optional<int> parse(int argc, char** argv) const;

  [[nodiscard]] std::string help() const;
  [[nodiscard]] const std::vector<Flag>& rows() const { return rows_; }

 private:
  std::string title_;
  std::string footer_;
  std::vector<Flag> rows_;
};

// Applies `value` to *scenario through the scenario row `name` (without
// the leading dashes). Throws std::invalid_argument like the row's setter,
// or for a name that is not a scenario row.
void set_scenario_flag(Scenario* scenario, std::string_view name,
                       const std::string& value);

}  // namespace wasp::runtime
