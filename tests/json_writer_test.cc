// Differential tests of the obs JSON writer (src/obs/json_writer.h) against
// oracles that live only here: printf("%.12g") for numbers and the original
// byte-at-a-time escaper for strings. The writer must reproduce both byte
// for byte, because the checked-in golden traces were written by them.
#include "obs/json_writer.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace wasp::obs {
namespace {

// ---------------------------------------------------------------------------
// Numbers

std::string oracle_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string written_number(double value) {
  std::string out;
  append_json_number(out, value);
  return out;
}

double from_bits(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Checks every value and reports the first few mismatches.
void expect_numbers_match(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = oracle_number(v);
    const std::string got = written_number(v);
    if (want != got && ++mismatches <= 10) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      ADD_FAILURE() << "value with bits 0x" << std::hex << bits << std::dec
                    << ": %.12g gives " << want << ", writer " << got;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(JsonNumberTest, EdgeValuesMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0,       -0.0,      1.0,       -1.0,      0.5,     -0.5,
      DBL_MAX,   -DBL_MAX,  DBL_MIN,   -DBL_MIN,  DBL_TRUE_MIN,
      -DBL_TRUE_MIN,        DBL_EPSILON,          1e12,    -1e12,
      1e11,      1e-4,      1e-5,      -1e-4,     -1e-5,   2.0,
      0.1,       1.0 / 3.0, 123456789012.5,       999999999999.5,
      9007199254740992.0,   -9007199254740993.0,  1e300,   1e-300,
      kInf,      -kInf,     kNan,      -kNan,
  };
  EXPECT_EQ(written_number(-0.0), "-0");
  EXPECT_EQ(written_number(kNan), "null");
  EXPECT_EQ(written_number(-kInf), "null");
  EXPECT_EQ(written_number(1e12), "1e+12");
  EXPECT_EQ(written_number(999999999999.0), "999999999999");
  // Appends: existing content stays in front.
  std::string out = "x:";
  append_json_number(out, 2.5);
  EXPECT_EQ(out, "x:2.5");
  expect_numbers_match(values);
}

TEST(JsonNumberTest, MillionSeededDoublesMatchPrintf) {
  std::mt19937_64 rng(20201027);
  std::uniform_int_distribution<std::uint64_t> bits;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values;
  values.reserve(1'200'000);

  // Random bit patterns: every exponent, both signs, NaN payloads and the
  // infinities included.
  for (int i = 0; i < 400'000; ++i) values.push_back(from_bits(bits(rng)));

  // Subnormals: exponent field zero, random mantissa.
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t sign = (bits(rng) & 1) << 63;
    values.push_back(from_bits(sign | (bits(rng) & 0x000FFFFFFFFFFFFFull)));
  }

  // Integers and near-integers around +-1e12, where the integer fast path
  // hands over to the general one, and across the whole integer range below.
  for (int k = -20'000; k <= 20'000; ++k) {
    for (const double base : {1e12, -1e12}) {
      values.push_back(base + k);
      values.push_back(base + k + 0.5);
    }
  }
  for (int i = 0; i < 100'000; ++i) {
    const double magnitude = std::pow(10.0, 13.0 * unit(rng));
    values.push_back(std::trunc((unit(rng) < 0.5 ? -1 : 1) * magnitude));
  }

  // The %g style boundaries (fixed below 1e-4 is exponent form, from 1e12 on
  // as well), their ulp neighbours and values just either side of them.
  for (const double boundary : {1e-5, 1e-4, 1e11, 1e12}) {
    for (const double b : {boundary, -boundary}) {
      double up = b;
      double down = b;
      for (int k = 0; k < 2'000; ++k) {
        values.push_back(up);
        values.push_back(down);
        up = std::nextafter(up, std::numeric_limits<double>::infinity());
        down = std::nextafter(down, -std::numeric_limits<double>::infinity());
      }
      for (int k = 0; k < 20'000; ++k) {
        values.push_back(b * (1.0 + (unit(rng) - 0.5) * 1e-10));
        values.push_back(b * (0.999 + unit(rng) * 0.002));
      }
    }
  }

  // Values shaped like simulator output: rates, times and shares with a few
  // decimals, and log-uniform magnitudes across the double range.
  for (int i = 0; i < 200'000; ++i) {
    values.push_back(std::round(unit(rng) * 1e7) / 1000.0);
    values.push_back(std::ldexp(unit(rng) * 2.0 - 1.0,
                                static_cast<int>(bits(rng) % 2046) - 1022));
  }
  values.push_back(DBL_MAX);
  values.push_back(-0.0);

  ASSERT_GE(values.size(), 1'000'000u);
  expect_numbers_match(values);
}

// ---------------------------------------------------------------------------
// Strings

// The escaper trace lines were written with before runs were copied whole:
// one byte at a time, with the same UTF-8 validation.
void oracle_escaped(std::string& out, std::string_view text) {
  out.push_back('"');
  for (std::size_t i = 0; i < text.size();) {
    const unsigned char ch = static_cast<unsigned char>(text[i]);
    if (ch == '"') {
      out += "\\\"";
      ++i;
    } else if (ch == '\\') {
      out += "\\\\";
      ++i;
    } else if (ch == '\n') {
      out += "\\n";
      ++i;
    } else if (ch == '\r') {
      out += "\\r";
      ++i;
    } else if (ch == '\t') {
      out += "\\t";
      ++i;
    } else if (ch < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
      ++i;
    } else if (ch < 0x80) {
      out.push_back(static_cast<char>(ch));
      ++i;
    } else {
      std::size_t len = 0;
      if ((ch & 0xE0) == 0xC0 && ch >= 0xC2) {
        len = 2;
      } else if ((ch & 0xF0) == 0xE0) {
        len = 3;
      } else if ((ch & 0xF8) == 0xF0 && ch <= 0xF4) {
        len = 4;
      }
      bool valid = len != 0 && i + len <= text.size();
      if (valid) {
        for (std::size_t k = 1; k < len; ++k) {
          const unsigned char cont = static_cast<unsigned char>(text[i + k]);
          if ((cont & 0xC0) != 0x80) valid = false;
        }
      }
      if (valid && len == 3) {
        const unsigned char b1 = static_cast<unsigned char>(text[i + 1]);
        if (ch == 0xE0 && b1 < 0xA0) valid = false;
        if (ch == 0xED && b1 >= 0xA0) valid = false;
      }
      if (valid && len == 4) {
        const unsigned char b1 = static_cast<unsigned char>(text[i + 1]);
        if (ch == 0xF0 && b1 < 0x90) valid = false;
        if (ch == 0xF4 && b1 >= 0x90) valid = false;
      }
      if (valid) {
        out.append(text.substr(i, len));
        i += len;
      } else {
        out += "\xEF\xBF\xBD";
        ++i;
      }
    }
  }
  out.push_back('"');
}

std::string oracle_string(std::string_view text) {
  std::string out;
  oracle_escaped(out, text);
  return out;
}

std::string written_string(std::string_view text) {
  std::string out;
  append_json_string(out, text);
  return out;
}

// UTF-8 encoding of one code point (no validity checks: callers pick
// surrogates and out-of-range points on purpose to get invalid input).
void append_utf8(std::string& s, std::uint32_t cp, std::size_t len) {
  switch (len) {
    case 1:
      s.push_back(static_cast<char>(cp));
      break;
    case 2:
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      break;
    case 3:
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      break;
    default:
      s.push_back(static_cast<char>(0xF0 | ((cp >> 18) & 0x07)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      break;
  }
}

TEST(JsonStringTest, FixedCasesMatchTheByteLoop) {
  const std::vector<std::string> cases = {
      "",
      "plain_key",
      "with \"quotes\" and \\backslash\\",
      "tab\tnewline\nreturn\r",
      std::string("nul\0byte", 8),
      "\x01\x1f\x7f",
      "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80",  // valid 2/3/4-byte UTF-8
      "bad\xff",
      "\xC0\x80 \xE0\x80\x80 \xED\xA0\x80 \xF4\x90\x80\x80",  // overlong etc.
      "truncated \xE2\x82",
      "\x80 lone continuation",
  };
  for (const std::string& text : cases) {
    EXPECT_EQ(written_string(text), oracle_string(text)) << text;
  }
  EXPECT_EQ(written_string("bad\xff"), "\"bad\xEF\xBF\xBD\"");
  std::string out = "k:";
  append_json_string(out, "v\"");
  EXPECT_EQ(out, "k:\"v\\\"\"");
}

TEST(JsonStringTest, RandomByteStringsMatchTheByteLoop) {
  std::mt19937_64 rng(8259);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const std::string plain =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.:-/{}";
  std::size_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    std::string text;
    const std::size_t pieces = pick(24);
    for (std::size_t p = 0; p < pieces; ++p) {
      switch (pick(10)) {
        case 0:
        case 1:
        case 2: {  // a run of plain ASCII
          const std::size_t n = 1 + pick(12);
          for (std::size_t k = 0; k < n; ++k) {
            text.push_back(plain[pick(plain.size())]);
          }
          break;
        }
        case 3:
          text.push_back(pick(2) == 0 ? '"' : '\\');
          break;
        case 4:  // control bytes and DEL
          text.push_back(static_cast<char>(pick(5) == 0 ? 0x7F : pick(0x20)));
          break;
        case 5:  // valid 2-byte
          append_utf8(text, 0x80 + static_cast<std::uint32_t>(pick(0x780)), 2);
          break;
        case 6: {  // valid 3-byte, surrogates skipped
          std::uint32_t cp = 0x800 + static_cast<std::uint32_t>(pick(0xF800));
          if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xE000;
          append_utf8(text, cp, 3);
          break;
        }
        case 7:  // valid 4-byte
          append_utf8(text,
                      0x10000 + static_cast<std::uint32_t>(pick(0x100000)), 4);
          break;
        case 8: {  // invalid: overlong, surrogate, > U+10FFFF, truncated
          std::string bad;
          switch (pick(5)) {
            case 0:
              append_utf8(bad, static_cast<std::uint32_t>(pick(0x80)), 2);
              break;
            case 1:
              append_utf8(bad, static_cast<std::uint32_t>(pick(0x800)), 3);
              break;
            case 2:
              append_utf8(bad, 0xD800 + static_cast<std::uint32_t>(pick(0x800)),
                          3);
              break;
            case 3:
              append_utf8(bad,
                          0x110000 + static_cast<std::uint32_t>(pick(0xEFFFF)),
                          4);
              break;
            default:
              append_utf8(bad,
                          0x10000 + static_cast<std::uint32_t>(pick(0x100000)),
                          4);
              bad.resize(1 + pick(3));
              break;
          }
          text += bad;
          break;
        }
        default:  // any byte at all
          text.push_back(static_cast<char>(pick(256)));
          break;
      }
    }
    const std::string want = oracle_string(text);
    const std::string got = written_string(text);
    if (want != got && ++mismatches <= 10) {
      ADD_FAILURE() << "input of " << text.size() << " bytes: byte loop gives "
                    << want << ", writer " << got;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace wasp::obs
