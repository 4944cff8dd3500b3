// Strict parsing of numbers a user types: command-line flags and
// environment variables. std::atoi accepts "3x" as 3, returns 0 for
// garbage and overflows silently; these parsers reject all of that with a
// message naming the flag.
#pragma once

#include <climits>
#include <string>

#include "util/error.hpp"

namespace repro::util {

// Parses a decimal integer in [min_value, INT_MAX]: digits only, so no
// sign, whitespace or trailing characters. `what` names the input in the
// error (e.g. "--steps" or "REPRO_JOBS").
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

}  // namespace repro::util
