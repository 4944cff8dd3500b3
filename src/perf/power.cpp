#include "perf/power.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace repro::perf {

namespace {

// A non-negative plain decimal watt value (no exponent, so every spec is
// written the way to_string writes it).
double parse_watts(const std::string& value, const std::string& what) {
  const double v = util::parse_double(value, "power spec: " + what,
                                      std::chars_format::fixed);
  REPRO_REQUIRE(!std::signbit(v),
                "power spec: " + what + " must be non-negative, got '" +
                    value + "'");
  return v;
}

// The shortest plain decimal that parses back to exactly `w`.
std::string format_watts(double w) {
  char buf[512];  // enough for any finite double in fixed notation
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, w, std::chars_format::fixed);
  REPRO_REQUIRE(ec == std::errc(), "cannot format a watt value");
  return std::string(buf, end);
}

}  // namespace

std::string to_string(const PowerModel& model) {
  std::string out = "static=" + format_watts(model.static_watts_per_node) +
                    ",dynamic=" + format_watts(model.dynamic_watts);
  for (const auto& [name, watts] : model.phase_watts) {
    out += ",phase:" + name + "=" + format_watts(watts);
  }
  return out;
}

PowerModel parse_power_spec(const std::string& text) {
  PowerModel model;
  bool seen_static = false;
  bool seen_dynamic = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(',', pos);
    const std::string opt = text.substr(
        pos, next == std::string::npos ? std::string::npos : next - pos);
    pos = next == std::string::npos ? text.size() + 1 : next + 1;
    if (opt.rfind("static=", 0) == 0) {
      REPRO_REQUIRE(!seen_static, "duplicate static= in power spec: " + text);
      seen_static = true;
      model.static_watts_per_node =
          parse_watts(opt.substr(7), "static node power");
    } else if (opt.rfind("dynamic=", 0) == 0) {
      REPRO_REQUIRE(!seen_dynamic,
                    "duplicate dynamic= in power spec: " + text);
      seen_dynamic = true;
      model.dynamic_watts =
          parse_watts(opt.substr(8), "dynamic power");
    } else if (opt.rfind("phase:", 0) == 0) {
      const std::size_t eq = opt.find('=');
      const std::string name =
          eq == std::string::npos ? "" : opt.substr(6, eq - 6);
      REPRO_REQUIRE(eq != std::string::npos && !name.empty(),
                    "bad phase override '" + opt +
                        "' in power spec (expected phase:NAME=W): " + text);
      REPRO_REQUIRE(model.phase_watts.find(name) == model.phase_watts.end(),
                    "duplicate phase override '" + name +
                        "' in power spec: " + text);
      model.phase_watts[name] =
          parse_watts(opt.substr(eq + 1), "phase power");
    } else {
      util::fail("bad power option '" + opt +
                     "' (expected static=S,dynamic=D[,phase:NAME=W]...): " +
                     text,
                 __FILE__, __LINE__);
    }
  }
  REPRO_REQUIRE(seen_static && seen_dynamic,
                "power spec must set both static= and dynamic=: " + text);
  return model;
}

}  // namespace repro::perf
