// Whole-string numeric parsing for command-line flag values.
//
// std::stod and friends accept a numeric prefix ("12abc" -> 12) and throw
// on no digits at all; std::atoi turns garbage into 0. Flag parsers want
// neither: a value either parses completely or is rejected, so a typo fails
// the command line instead of silently running another experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace wasp {

// Parses all of `text` as a T (int, std::uint64_t or double). Throws
// std::invalid_argument (or std::out_of_range) when `text` is not exactly
// one number of that type.
template <typename T>
[[nodiscard]] T parse_number(const std::string& text) {
  std::size_t pos = 0;
  T value{};
  if constexpr (std::is_same_v<T, double>) {
    value = std::stod(text, &pos);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    value = std::stoull(text, &pos);
  } else {
    static_assert(std::is_same_v<T, int>, "parse_number: int, u64 or double");
    value = std::stoi(text, &pos);
  }
  if (pos != text.size()) {
    throw std::invalid_argument("trailing characters: " + text);
  }
  return value;
}

}  // namespace wasp
