// The paper's experimental design (§3.1): response variables are the
// component times of the energy calculation; factors are Networking,
// Middleware, and CPUs-per-node; levels are the concrete choices. This
// module owns the mapping from a point in factor space to a fully wired
// simulation run, and the sweeps the figures are built from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "charmm/app.hpp"
#include "middleware/middleware.hpp"
#include "mpi/comm.hpp"
#include "net/cluster.hpp"
#include "perf/metrics.hpp"
#include "perf/power.hpp"
#include "perf/report.hpp"
#include "perf/timeline.hpp"

namespace repro::core {

// One point in the factor space of Figure 1.
struct Platform {
  net::Network network = net::Network::kTcpGigE;
  middleware::Kind middleware = middleware::Kind::kMpi;
  int cpus_per_node = 1;

  std::string to_string() const;
};

// The focal point of the fractional factorial design: MPICH over TCP/IP on
// Gigabit Ethernet with uni-processor nodes.
Platform reference_platform();

struct ExperimentSpec {
  Platform platform;
  int nprocs = 1;
  charmm::CharmmConfig charmm;
  std::uint64_t seed = 0x1234;
  // When set, per-rank virtual-time timelines are captured (see
  // perf/timeline.hpp) and returned in ExperimentResult::timelines.
  bool record_timelines = false;
  // Collective algorithm selection for the simulated MPI layer (the
  // ablation dimension of bench/ablation_collectives).
  mpi::CollectiveConfig collectives;
  // When set, overrides params_for(platform.network) — lets ablation
  // studies run modified network models through the normal sweep path.
  std::optional<net::NetworkParams> network_params;
  // When set (and non-empty), arms the fault-injection layer (packet loss,
  // link degradation, stragglers, node stalls; see net/faults.hpp). Absent
  // or empty specs leave every run byte-identical to the fault-free model.
  std::optional<net::FaultSpec> faults;
  // Fabric between the nodes (single switch by default — the paper's
  // cluster; fattree/torus model hierarchical clusters, see
  // net/topology.hpp).
  net::TopologySpec topology;
  // When set, converts the run's virtual-time accounting into
  // energy-to-solution (perf::PowerModel; RunMetrics::power). A pure
  // post-processing step — arming it never perturbs the simulated run.
  std::optional<perf::PowerModel> power;
};

struct ExperimentResult {
  perf::RunBreakdown breakdown;
  // Resource-utilization metrics (NIC tx/rx links, interrupt CPUs, per
  // src→dst channel counters) of the same run; metrics.breakdown mirrors
  // `breakdown`. Always populated — the counters cost nothing to collect.
  perf::RunMetrics metrics;
  std::vector<perf::Timeline> timelines;  // empty unless requested
  md::EnergyTerms energy;       // final-step energy (identical on ranks)
  double position_checksum = 0.0;
  std::size_t pairs_in_list = 0;
  // Atoms that changed owning rank over the run (spatial decomposition
  // only; 0 for replicated strategies).
  std::size_t atoms_migrated = 0;
  // Work units the load balancer migrated over the run and the FNV-1a
  // hash of every adopted unit→rank map (spatial with ldb != off only;
  // 0 otherwise). Identical on every rank — run_experiment asserts it.
  std::size_t units_moved = 0;
  std::uint64_t unit_map_hash = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t engine_context_switches = 0;

  // Convenience accessors matching the paper's plotted series.
  double classic_seconds() const { return breakdown.classic_wall.total(); }
  double pme_seconds() const { return breakdown.pme_wall.total(); }
  double total_seconds() const { return classic_seconds() + pme_seconds(); }
};

// Runs the CHARMM energy-calculation workload for one experiment. `sys`
// must outlive the call and is shared read-only across the simulated ranks.
ExperimentResult run_experiment(const sysbuild::BuiltSystem& sys,
                                const ExperimentSpec& spec);

// Sweep helper: the paper's processor-count series.
inline const std::vector<int>& paper_processor_counts() {
  static const std::vector<int> counts{1, 2, 4, 8};
  return counts;
}

// All 12 cells of the full factorial design (3 networks x 2 middlewares x
// 2 node configurations), as enumerated in §3.1.
std::vector<Platform> full_factorial();

}  // namespace repro::core
