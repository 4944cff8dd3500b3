// Per-phase energy-to-solution model.
//
// The paper's clusters traded machine cost against time-to-solution; the
// natural third axis is energy. This model converts a run's virtual-time
// accounting into joules with the standard two-component abstraction:
//
//   E = P_static * nodes * makespan                      (idle/leakage draw)
//     + sum_phase P_dyn(phase) * rank_seconds(phase)     (active compute)
//
// Static power is charged per node for the whole makespan (a node burns
// its idle wattage whether its ranks are waiting or working). Dynamic
// power is charged per rank-second of recorded phase time, with optional
// per-phase overrides (e.g. the FFT's transpose phases are memory-bound
// and draw less than the pair loop's FPU-saturated watts).
//
// The model is a pure post-processing step over RunMetrics::phase_seconds
// and the makespan — arming it cannot perturb the simulated run.
#pragma once

#include <map>
#include <string>

namespace repro::perf {

struct PowerModel {
  double static_watts_per_node = 0.0;
  double dynamic_watts = 0.0;  // default draw for phases without an override
  std::map<std::string, double> phase_watts;
};

// Round-trips parse_power_spec: "static=S,dynamic=D[,phase:NAME=W]...".
std::string to_string(const PowerModel& model);

// Parses "static=S,dynamic=D[,phase:NAME=W]..." (watts, non-negative
// plain decimals with no exponent; both static= and dynamic= are
// required, phase overrides may repeat with distinct names). Throws
// util::Error on anything else — trailing garbage, duplicate keys,
// negative watts.
PowerModel parse_power_spec(const std::string& text);

}  // namespace repro::perf
