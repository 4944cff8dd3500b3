// The CHARMM-style parallel MD energy calculation (the workload of the
// paper), assembled per Figure 2:
//
//   classic routine : bonded + short-range non-bonded computation (atom
//                     decomposition), ending in the all-to-all *collective*
//                     force/energy reduction;
//   PME routine     : slab charge spreading, forward 3-D FFT (all-to-all
//                     *personalized* transpose), reciprocal convolution,
//                     backward FFT (second transpose), force interpolation.
//
// Replicated data: every rank holds all positions, computes a shard of the
// interactions, and integrates all atoms after the force reduction — the
// classic CHARMM parallelization this class of clusters ran.
#pragma once

#include <cstdint>
#include <vector>

#include "charmm/cost_model.hpp"
#include "charmm/decomp_spec.hpp"
#include "md/energy.hpp"
#include "md/nonbonded.hpp"
#include "middleware/middleware.hpp"
#include "pme/pme.hpp"
#include "sysbuild/builder.hpp"

namespace repro::charmm {

struct CharmmConfig {
  bool use_pme = true;
  int nsteps = 10;          // the paper's reduced-step measurement runs
  double dt_ps = 0.0005;
  double temperature_k = 300.0;
  double cutoff = 10.0;     // Å, both vdW and real-space electrostatics
  double switch_on = 8.0;
  double skin = 2.0;
  int list_rebuild_interval = 5;  // CHARMM INBFRQ-style fixed interval
  pme::PmeParams pme{80, 36, 48, 4, 0.34};
  std::uint64_t seed = 2002;
  CostModel cost = CostModel::pentium3_1ghz();

  // Which kernel variant runs the physics hot paths (pair loop, B-spline
  // spread/interpolation); see util/kernel.hpp. Both variants
  // report identical work counters, so simulated timings are unaffected —
  // the factor only changes the host's wall-clock.
  util::KernelKind kernel = util::KernelKind::kScalar;

  // CHARMM synchronizes before its global operations ("coherency
  // maintenance"). Turning this off lets skew flow into the data
  // operations instead — the decoupling question of the paper's §2.3
  // (their reference [21]); see bench/extension_decoupling.
  bool coherency_barriers = true;

  // Which parallelization runs the step program (work partitioning + the
  // per-step communication schedule); see charmm/decomposition.hpp. The
  // default reproduces the paper's replicated-data atom decomposition.
  DecompSpec decomp;
};

struct RankRunResult {
  md::EnergyTerms last_energy;   // after the global sum: total system terms
  double position_checksum = 0.0;  // sum of coordinates, cross-rank check
  std::size_t pairs_in_list = 0;
  // Spatial decomposition only: atoms that changed owner at a rebuild,
  // summed over ranks and the whole run (0 for the replicated strategies,
  // whose atoms have no owner to change).
  std::size_t atoms_migrated = 0;
  // Spatial + ldb only: work units the rebalancer moved over the run, and
  // an FNV-1a hash over every adopted unit→rank map (the balancer's full
  // trajectory). Both are computed from replicated data, so every rank
  // reports the same values — run_experiment asserts it.
  std::size_t units_moved = 0;
  std::uint64_t unit_map_hash = 0;
};

// Runs the energy-calculation workload on one simulated rank under the
// decomposition selected by config.decomp. `sys` is the shared, read-only
// system; the middleware carries all communication. The recorder (inside
// comm) must be fresh.
RankRunResult run_charmm_rank(const sysbuild::BuiltSystem& sys,
                              const CharmmConfig& config,
                              middleware::Middleware& mw);

// Rejects configurations the workload cannot meaningfully run (throws
// util::Error): non-positive nsteps/dt/skin, switch_on >= cutoff,
// degenerate PME grid or spline order, task decoupling without PME.
void validate_config(const CharmmConfig& config);

}  // namespace repro::charmm
