#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "charmm/simulation.hpp"
#include "core/experiment.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"

namespace repro::charmm {
namespace {

// Shared, relaxed full-size system (expensive: built once per binary).
const sysbuild::BuiltSystem& system_fixture() {
  static const sysbuild::BuiltSystem sys = [] {
    sysbuild::BuiltSystem s = sysbuild::build_myoglobin_like();
    relax_system(s, 60);
    return s;
  }();
  return sys;
}

CharmmConfig short_config() {
  CharmmConfig config;
  config.nsteps = 4;
  return config;
}

core::ExperimentResult run(const core::Platform& platform, int nprocs,
                           const CharmmConfig& config) {
  core::ExperimentSpec spec;
  spec.platform = platform;
  spec.nprocs = nprocs;
  spec.charmm = config;
  return core::run_experiment(system_fixture(), spec);
}

TEST(RelaxTest, ProducesReasonableStructure) {
  SimulationConfig config;
  Simulation sim(system_fixture(), config);
  const md::EnergyTerms& e = sim.evaluate();
  EXPECT_TRUE(std::isfinite(e.potential()));
  EXPECT_LT(std::abs(e.potential()), 1.0e5);
  EXPECT_LT(e.lj, 2.0e4);  // no residual clashes
  double fmax = 0.0;
  for (const auto& f : sim.forces()) fmax = std::max(fmax, util::norm(f));
  EXPECT_LT(fmax, 2000.0);
}

TEST(SequentialTest, EnergyComponentsAllPresent) {
  SimulationConfig config;
  Simulation sim(system_fixture(), config);
  const md::EnergyTerms& e = sim.evaluate();
  EXPECT_GT(e.bond, 0.0);
  EXPECT_GT(e.angle, 0.0);
  EXPECT_GT(e.dihedral, 0.0);
  EXPECT_NE(e.ewald_recip, 0.0);
  EXPECT_LT(e.ewald_self, 0.0);
  EXPECT_NE(e.ewald_excl, 0.0);
  EXPECT_GT(sim.pairs_in_list(), 400000u);
}

TEST(SequentialTest, ClassicModeHasNoEwaldTerms) {
  SimulationConfig config;
  config.use_pme = false;
  Simulation sim(system_fixture(), config);
  const md::EnergyTerms& e = sim.evaluate();
  EXPECT_EQ(e.ewald_recip, 0.0);
  EXPECT_EQ(e.ewald_self, 0.0);
  EXPECT_EQ(e.ewald_excl, 0.0);
  EXPECT_NE(e.elec, 0.0);
}

TEST(SequentialTest, NveEnergyConservationOnWaterBox) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(4);
  SimulationConfig config;
  config.use_pme = true;
  // beta*cutoff ~ 3.3 so the truncated erfc tail is ~3e-6 (a smaller beta
  // would make the real-space cutoff discontinuity dominate the drift).
  config.pme = pme::PmeParams{16, 16, 16, 4, 0.6};
  config.cutoff = 5.5;
  config.switch_on = 4.5;
  config.dt_ps = 0.0005;
  Simulation sim(water, config);
  sim.set_velocities_from_temperature(300.0, 7);
  sim.evaluate();
  const double e0 = sim.total_energy();
  sim.step(40);
  const double e1 = sim.total_energy();
  // Velocity Verlet at 0.5 fs on a lattice water box: tight conservation.
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 5e-3);
}

TEST(SequentialTest, MinimizerReducesEnergy) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  SimulationConfig config;
  config.cutoff = 4.0;
  config.switch_on = 3.2;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.4};
  Simulation sim(water, config);
  md::MinimizeOptions opts;
  opts.max_steps = 30;
  const md::MinimizeResult res = sim.minimize(opts);
  EXPECT_LE(res.final_energy, res.initial_energy);
}

// Simulation::minimize reuses its neighbor list until the skin is used
// up. The reference drives md::minimize with a fresh Simulation (so a
// fresh list) per evaluation; positions and energies must match bit for
// bit. A probe list replays the skin criterion on the evaluated positions
// to show which paths ran.
TEST(SequentialTest, MinimizerListReuseIsExact) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  SimulationConfig config;
  config.cutoff = 4.0;
  config.switch_on = 3.2;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.4};
  md::MinimizeOptions defaults;
  defaults.max_steps = 30;
  // With 1 A steps and a 0.5 A skin the list goes stale within a few
  // accepted steps, so a missed rebuild would drop pairs from the energy.
  md::MinimizeOptions long_steps = defaults;
  long_steps.initial_step = 1.0;
  long_steps.max_step = 1.0;
  for (const bool mid_run_rebuilds : {false, true}) {
    const md::MinimizeOptions& opts = mid_run_rebuilds ? long_steps : defaults;
    config.skin = mid_run_rebuilds ? 0.5 : 2.0;
    SCOPED_TRACE(mid_run_rebuilds ? "mid-run rebuilds" : "list reuse");
    Simulation sim(water, config);
    const md::MinimizeResult got = sim.minimize(opts);

    md::NeighborList probe(config.cutoff, config.skin);
    int builds = 0;
    int reuses = 0;
    auto fresh = [&](const std::vector<util::Vec3>& p,
                     std::vector<util::Vec3>& f) {
      if (builds == 0 || probe.needs_rebuild(water.box, p)) {
        probe.build(water.topo, water.box, p);
        ++builds;
      } else {
        ++reuses;
      }
      sysbuild::BuiltSystem at = water;
      at.positions = p;
      Simulation once(at, config);
      const double energy = once.evaluate().potential();
      f = once.forces();
      return energy;
    };
    std::vector<util::Vec3> pos = water.positions;
    const md::MinimizeResult want = md::minimize(opts, fresh, pos);

    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.final_energy, want.final_energy);
    EXPECT_EQ(got.initial_energy, want.initial_energy);
    ASSERT_EQ(sim.positions().size(), pos.size());
    EXPECT_EQ(std::memcmp(sim.positions().data(), pos.data(),
                          pos.size() * sizeof(util::Vec3)),
              0);
    EXPECT_GE(reuses, 1);
    if (mid_run_rebuilds) {
      EXPECT_GE(builds, 2);
    }
  }
}

// --- configuration validation ------------------------------------------------

TEST(ValidateConfigTest, AcceptsTheDefaults) {
  EXPECT_NO_THROW(validate_config(CharmmConfig{}));
  EXPECT_NO_THROW(validate_config(SimulationConfig{}));
}

TEST(ValidateConfigTest, RejectsBadCharmmConfigs) {
  // Mirrors net_test's validate_params coverage: one bad field at a time.
  {
    CharmmConfig c;
    c.nsteps = 0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.dt_ps = 0.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.switch_on = c.cutoff;  // switching must start inside the cutoff
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.skin = -1.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.list_rebuild_interval = 0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.temperature_k = -1.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.pme.order = 1;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.pme.ny = 2;  // smaller than the spline order: degenerate grid
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.pme.beta = 0.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.use_pme = false;
    c.decomp.kind = DecompKind::kTaskPme;  // task decoupling needs PME
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.decomp.pme_ranks = -1;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    // A degenerate grid is fine when PME is off — nothing consumes it.
    CharmmConfig c;
    c.use_pme = false;
    c.pme.order = 1;
    EXPECT_NO_THROW(validate_config(c));
  }
}

TEST(ValidateConfigTest, RejectsBadSimulationConfigs) {
  {
    SimulationConfig c;
    c.cutoff = -2.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    SimulationConfig c;
    c.switch_on = 0.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    SimulationConfig c;
    c.skin = 0.0;
    EXPECT_THROW(Simulation(system_fixture(), c), util::Error);
  }
}

TEST(ValidateConfigTest, RunExperimentRejectsBadSpecs) {
  core::ExperimentSpec spec;
  spec.charmm.nsteps = -4;
  EXPECT_THROW(core::run_experiment(system_fixture(), spec),
               util::Error);
  // A task spec whose explicit pme_ranks leaves no classic rank fails
  // before any rank spins up.
  core::ExperimentSpec task;
  task.nprocs = 4;
  task.charmm = short_config();
  task.charmm.decomp.kind = DecompKind::kTaskPme;
  task.charmm.decomp.pme_ranks = 4;
  EXPECT_THROW(core::run_experiment(system_fixture(), task),
               util::Error);
}

// --- parallel correctness across the factor space ---------------------------

TEST(ParallelCorrectnessTest, MatchesSequentialAcrossRankCounts) {
  const CharmmConfig config = short_config();
  const auto ref = run(core::reference_platform(), 1, config);
  ASSERT_TRUE(std::isfinite(ref.energy.potential()));
  for (int p : {2, 4, 8}) {
    const auto par = run(core::reference_platform(), p, config);
    EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
                std::abs(ref.energy.potential()) * 1e-6 + 1e-4)
        << "p=" << p;
    EXPECT_NEAR(par.position_checksum, ref.position_checksum,
                std::abs(ref.position_checksum) * 1e-9)
        << "p=" << p;
  }
}

TEST(ParallelCorrectnessTest, NetworkNeverChangesPhysics) {
  const CharmmConfig config = short_config();
  core::Platform platform;
  const auto tcp = run(platform, 4, config);
  platform.network = net::Network::kScoreGigE;
  const auto score = run(platform, 4, config);
  platform.network = net::Network::kMyrinetGM;
  const auto myri = run(platform, 4, config);
  // Identical arithmetic, different clocks: results are bit-identical.
  EXPECT_EQ(tcp.energy.potential(), score.energy.potential());
  EXPECT_EQ(tcp.energy.potential(), myri.energy.potential());
  EXPECT_EQ(tcp.position_checksum, myri.position_checksum);
  // But the performance differs.
  EXPECT_GT(tcp.total_seconds(), myri.total_seconds());
}

TEST(ParallelCorrectnessTest, MiddlewareNeverChangesPhysics) {
  const CharmmConfig config = short_config();
  core::Platform platform;
  const auto mpi_run = run(platform, 4, config);
  platform.middleware = middleware::Kind::kCmpi;
  const auto cmpi_run = run(platform, 4, config);
  // Different reduction orders: equal within floating-point reassociation.
  EXPECT_NEAR(cmpi_run.energy.potential(), mpi_run.energy.potential(),
              std::abs(mpi_run.energy.potential()) * 1e-6 + 1e-4);
}

TEST(ParallelCorrectnessTest, DualProcessorNeverChangesPhysics) {
  const CharmmConfig config = short_config();
  core::Platform platform;
  const auto uni = run(platform, 4, config);
  platform.cpus_per_node = 2;
  const auto dual = run(platform, 4, config);
  EXPECT_EQ(uni.energy.potential(), dual.energy.potential());
}

TEST(ParallelCorrectnessTest, ClassicOnlyModeRuns) {
  CharmmConfig config = short_config();
  config.use_pme = false;
  const auto seq = run(core::reference_platform(), 1, config);
  const auto par = run(core::reference_platform(), 4, config);
  EXPECT_NEAR(par.energy.potential(), seq.energy.potential(),
              std::abs(seq.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_DOUBLE_EQ(par.breakdown.pme_wall.total(), 0.0);
  EXPECT_GT(par.breakdown.classic_wall.total(), 0.0);
}

TEST(ParallelCorrectnessTest, ListRebuildIntervalNeverChangesPhysics) {
  // Forces are a pure function of positions (the kernel re-checks the
  // cutoff), so the neighbor-list refresh cadence must not perturb the
  // trajectory at all.
  CharmmConfig every_step = short_config();
  every_step.list_rebuild_interval = 1;
  CharmmConfig rarely = short_config();
  rarely.list_rebuild_interval = 4;
  const auto a = run(core::reference_platform(), 2, every_step);
  const auto b = run(core::reference_platform(), 2, rarely);
  EXPECT_EQ(a.energy.potential(), b.energy.potential());
  EXPECT_EQ(a.position_checksum, b.position_checksum);
  // But it does change the modeled cost (list construction time).
  EXPECT_GT(a.breakdown.classic_wall.comp, b.breakdown.classic_wall.comp);
}

TEST(ParallelCorrectnessTest, CoherencyBarriersNeverChangePhysics) {
  CharmmConfig with = short_config();
  CharmmConfig without = short_config();
  without.coherency_barriers = false;
  const auto a = run(core::reference_platform(), 4, with);
  const auto b = run(core::reference_platform(), 4, without);
  EXPECT_EQ(a.energy.potential(), b.energy.potential());
  EXPECT_EQ(a.position_checksum, b.position_checksum);
  // Without barriers the synchronization share collapses.
  EXPECT_LT(b.breakdown.total_wall().sync,
            a.breakdown.total_wall().sync + 1e-12);
}

TEST(ParallelScalingTest, ComputationDividesAcrossRanks) {
  const CharmmConfig config = short_config();
  const auto p1 = run(core::reference_platform(), 1, config);
  const auto p8 = run(core::reference_platform(), 8, config);
  const double ratio = p1.breakdown.classic_wall.comp /
                       p8.breakdown.classic_wall.comp;
  EXPECT_GT(ratio, 4.0);  // near-perfect division of classic computation
  EXPECT_LT(ratio, 10.0);
  // Sequential run has zero communication and synchronization.
  EXPECT_DOUBLE_EQ(p1.breakdown.classic_wall.overhead(), 0.0);
  EXPECT_DOUBLE_EQ(p1.breakdown.pme_wall.overhead(), 0.0);
}

TEST(ParallelScalingTest, StepSamplesRecorded) {
  const CharmmConfig config = short_config();
  const auto r = run(core::reference_platform(), 4, config);
  EXPECT_GT(r.breakdown.comm_speed.samples, 0u);
  EXPECT_GT(r.pairs_in_list, 400000u);
  EXPECT_GT(r.engine_events, 0u);
}

TEST(ExperimentTest, TimelinesRecordedWhenRequested) {
  core::ExperimentSpec spec;
  spec.nprocs = 2;
  spec.charmm = short_config();
  spec.record_timelines = true;
  const auto r = core::run_experiment(system_fixture(), spec);
  ASSERT_EQ(r.timelines.size(), 2u);
  EXPECT_GT(r.timelines[0].size(), 10u);
  // Events must lie within the run's span and be well-formed.
  for (const auto& e : r.timelines[1].events()) {
    EXPECT_LE(e.begin, e.end);
    EXPECT_GE(e.begin, 0.0);
  }
  const std::string art = perf::render_timelines(r.timelines);
  EXPECT_NE(art.find("rank 1"), std::string::npos);
}

TEST(ExperimentTest, FullFactorialEnumerates12Cells) {
  const auto cells = core::full_factorial();
  EXPECT_EQ(cells.size(), 12u);
  // Spot-check the focal point is among them.
  bool found_ref = false;
  for (const auto& c : cells) {
    if (c.network == net::Network::kTcpGigE &&
        c.middleware == middleware::Kind::kMpi && c.cpus_per_node == 1) {
      found_ref = true;
    }
  }
  EXPECT_TRUE(found_ref);
  EXPECT_FALSE(core::reference_platform().to_string().empty());
}

}  // namespace
}  // namespace repro::charmm
