// Whole-string numeric parsing for command-line flag values.
//
// std::stod and friends accept a numeric prefix ("12abc" -> 12) and throw
// on no digits at all; std::atoi turns garbage into 0. Flag parsers want
// neither: a value either parses completely or is rejected, so a typo fails
// the command line instead of silently running another experiment.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace wasp {

// Parses all of `text` as a T (int, std::uint64_t or double). Throws
// std::invalid_argument, with a message fit for the user, when `text` is
// not exactly one in-range number of that type; a std::uint64_t is never
// negative, and a double is always finite (std::stod reads "nan" and "inf").
template <typename T>
[[nodiscard]] T parse_number(const std::string& text) {
  std::size_t pos = 0;
  T value{};
  try {
    if constexpr (std::is_same_v<T, double>) {
      value = std::stod(text, &pos);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      // std::stoull negates a leading '-' ("-1" -> 2^64 - 1).
      if (text.find('-') == std::string::npos) value = std::stoull(text, &pos);
    } else {
      static_assert(std::is_same_v<T, int>, "parse_number: int, u64 or double");
      value = std::stoi(text, &pos);
    }
  } catch (const std::logic_error&) {  // no digits, or out of range
    pos = 0;
  }
  if (pos == 0 || pos != text.size()) {
    throw std::invalid_argument(std::is_same_v<T, double> ? "not a number"
                                : std::is_same_v<T, int>
                                    ? "not an integer"
                                    : "not a non-negative integer");
  }
  if constexpr (std::is_same_v<T, double>) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument("not a finite number");
    }
  }
  return value;
}

// parse_number as a test: false, leaving *out unspecified, when `text` is
// not exactly one number of type T.
template <typename T>
[[nodiscard]] bool try_parse_number(const std::string& text, T* out) {
  try {
    *out = parse_number<T>(text);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

// `text` without its leading and trailing blanks (spaces, tabs, carriage
// returns), for cells of a delimited file.
[[nodiscard]] inline std::string trim_blanks(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  return text.substr(first, text.find_last_not_of(" \t\r") - first + 1);
}

}  // namespace wasp
