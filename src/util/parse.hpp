// Strict parsing of numbers a user types: command-line flags, spec
// strings and environment variables. std::atoi accepts "3x" as 3, returns
// 0 for garbage and overflows silently, and std::stod/strtod accept
// leading whitespace, '+', hex and "inf"; these parsers reject all of
// that with a message naming the input.
#pragma once

#include <charconv>
#include <climits>
#include <cmath>
#include <string>
#include <system_error>

#include "util/error.hpp"

namespace repro::util {

// Parses a decimal integer in [min_value, INT_MAX]: digits only, so no
// sign, whitespace or trailing characters. `what` names the input in the
// error (e.g. "--steps" or "--jobs").
inline int parse_int(const std::string& text, const std::string& what,
                     int min_value = 1) {
  const std::string expected = what + ": expected an integer >= " +
                               std::to_string(min_value) + ", got '" + text +
                               "'";
  if (text.empty()) throw Error(expected);
  long long v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') throw Error(expected);
    v = v * 10 + (c - '0');
    if (v > INT_MAX) throw Error(what + ": '" + text + "' is out of range");
  }
  if (v < min_value) throw Error(expected);
  return static_cast<int>(v);
}

// Parses a finite decimal floating-point number: the whole text, an
// optional leading '-', no whitespace, no '+', no hex, no inf/nan. `format`
// fixed also rejects an exponent. `what` names the input in the error.
inline double parse_double(
    const std::string& text, const std::string& what,
    std::chars_format format = std::chars_format::general) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, format);
  if (ec == std::errc::result_out_of_range) {
    throw Error(what + ": '" + text + "' is out of range");
  }
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    const char* kind = format == std::chars_format::fixed
                           ? "a finite plain decimal"
                           : "a finite number";
    throw Error(what + ": expected " + kind + ", got '" + text + "'");
  }
  return v;
}

}  // namespace repro::util
