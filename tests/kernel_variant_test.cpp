// Tests for the swept kernel-variant factor (--kernel=scalar|simd) and the
// per-phase energy model (--power=SPEC):
//  - spec parsing round-trips and error paths for both factors;
//  - the precomputed LJ mixing table is bit-identical to per-pair mixing;
//  - the simd pair kernel matches the scalar oracle to 1e-10 relative,
//    reports identical work counters, and is deterministic across reruns;
//  - batched B-spline weights are bit-identical per lane and keep the
//    partition of unity;
//  - every decomposition x processor count produces (near-)identical
//    physics and *exactly* identical simulated time under either variant.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "charmm/simulation.hpp"
#include "core/experiment.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "perf/power.hpp"
#include "pme/bspline.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"
#include "util/kernel.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using util::KernelKind;
using util::Vec3;

// --- spec parsing ----------------------------------------------------------

TEST(KernelSpecTest, ParsesBothVariants) {
  EXPECT_EQ(util::parse_kernel_kind("scalar"), KernelKind::kScalar);
  EXPECT_EQ(util::parse_kernel_kind("simd"), KernelKind::kSimd);
  EXPECT_STREQ(util::to_string(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(util::to_string(KernelKind::kSimd), "simd");
}

TEST(KernelSpecTest, RejectsGarbage) {
  EXPECT_THROW(util::parse_kernel_kind(""), util::Error);
  EXPECT_THROW(util::parse_kernel_kind("SIMD"), util::Error);
  EXPECT_THROW(util::parse_kernel_kind("simd "), util::Error);
  EXPECT_THROW(util::parse_kernel_kind("scalar,simd"), util::Error);
  EXPECT_THROW(util::parse_kernel_kind("avx2"), util::Error);
}

TEST(PowerSpecTest, ParsesAndRoundTrips) {
  const perf::PowerModel m =
      perf::parse_power_spec("static=55,dynamic=25.5,phase:pme_fft=18");
  EXPECT_DOUBLE_EQ(m.static_watts_per_node, 55.0);
  EXPECT_DOUBLE_EQ(m.dynamic_watts, 25.5);
  ASSERT_EQ(m.phase_watts.size(), 1u);
  EXPECT_DOUBLE_EQ(m.phase_watts.at("pme_fft"), 18.0);
  EXPECT_EQ(perf::to_string(m), "static=55,dynamic=25.5,phase:pme_fft=18");
  EXPECT_EQ(perf::to_string(perf::parse_power_spec(perf::to_string(m))),
            perf::to_string(m));
  // Large and fractional watt values print as plain decimals that parse
  // back to the same model.
  perf::PowerModel big;
  big.static_watts_per_node = 1e6;
  big.dynamic_watts = 0.1;
  EXPECT_EQ(perf::to_string(big), "static=1000000,dynamic=0.1");
  const perf::PowerModel back = perf::parse_power_spec(perf::to_string(big));
  EXPECT_EQ(back.static_watts_per_node, 1e6);
  EXPECT_EQ(back.dynamic_watts, 0.1);
}

TEST(PowerSpecTest, RejectsGarbage) {
  EXPECT_THROW(perf::parse_power_spec(""), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=55"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("dynamic=25"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=55,dynamic=25,"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=55,dynamic=25,junk"),
               util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=55,static=1,dynamic=2"),
               util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=-5,dynamic=25"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=5x,dynamic=25"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=5,dynamic=2.5.1"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=5,dynamic=2,phase:=3"),
               util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=5,dynamic=2,phase:a=1,phase:a=2"),
               util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=1e3,dynamic=2"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=inf,dynamic=2"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static= 5,dynamic=2"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=+5,dynamic=2"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=-0,dynamic=2"), util::Error);
}

// The parse layer rejects bad flag strings; these backstops guard specs
// built in code (sweep drivers, tests) against skipping the parsers.
TEST(BackstopTest, ValidateConfigRejectsOutOfRangeKernelEnum) {
  charmm::CharmmConfig config;
  charmm::validate_config(config);  // defaults are valid
  config.kernel = static_cast<util::KernelKind>(7);
  EXPECT_THROW(charmm::validate_config(config), util::Error);
}

TEST(BackstopTest, RunExperimentRejectsNegativeWattsBuiltInCode) {
  core::ExperimentSpec spec;
  spec.nprocs = 1;
  spec.charmm.nsteps = 1;
  perf::PowerModel model;
  model.static_watts_per_node = 55.0;
  model.dynamic_watts = 25.0;
  model.phase_watts["pme_fft"] = -1.0;
  spec.power = model;
  const sysbuild::BuiltSystem sys = sysbuild::build_water_box(3);
  EXPECT_THROW(core::run_experiment(sys, spec), util::Error);
}

// --- pair table ------------------------------------------------------------

const sysbuild::BuiltSystem& water() {
  static const sysbuild::BuiltSystem sys = sysbuild::build_water_box(6);
  return sys;
}

TEST(PairTableTest, MixesExactlyLikePerPairMath) {
  const auto& sys = water();
  const auto table = md::build_pair_table(sys.topo);
  ASSERT_GT(table->ntypes, 0);
  ASSERT_EQ(table->type_of.size(),
            static_cast<std::size_t>(sys.topo.natoms()));
  ASSERT_EQ(table->charge.size(),
            static_cast<std::size_t>(sys.topo.natoms()));
  const int nt = table->ntypes;
  for (int i = 0; i < std::min(sys.topo.natoms(), 200); ++i) {
    for (int j = 0; j < std::min(sys.topo.natoms(), 200); ++j) {
      const auto& ai = sys.topo.atom(i);
      const auto& aj = sys.topo.atom(j);
      const std::size_t idx = static_cast<std::size_t>(
          table->type_of[static_cast<std::size_t>(i)] * nt +
          table->type_of[static_cast<std::size_t>(j)]);
      // Bitwise: sqrt on identical inputs is correctly rounded, so the
      // table entry must equal the per-pair expression exactly.
      EXPECT_EQ(table->eps[idx], std::sqrt(ai.eps * aj.eps));
      EXPECT_EQ(table->rmin[idx], ai.rmin_half + aj.rmin_half);
    }
    EXPECT_EQ(table->charge[static_cast<std::size_t>(i)],
              sys.topo.atom(i).charge);
  }
}

md::NonbondedOptions water_options(KernelKind kind,
                                   md::NonbondedOptions::Elec elec) {
  md::NonbondedOptions opts;
  opts.cutoff = 9.0;
  opts.switch_on = 7.0;
  opts.elec = elec;
  opts.kernel = kind;
  return opts;
}

struct PairRun {
  std::vector<Vec3> forces;
  md::EnergyTerms energy;
  md::NonbondedWork work;
};

PairRun run_pair_kernel(const md::NonbondedOptions& opts, int shard = 0,
                        int stride = 1) {
  const auto& sys = water();
  static md::NeighborList& nbl = []() -> md::NeighborList& {
    static md::NeighborList list(9.0, 2.0);
    list.build(water().topo, water().box, water().positions);
    return list;
  }();
  PairRun run;
  run.forces.assign(static_cast<std::size_t>(sys.topo.natoms()), Vec3{});
  run.work = md::nonbonded_energy(sys.topo, sys.box, sys.positions, nbl,
                                  opts, run.forces, run.energy, shard,
                                  stride);
  return run;
}

double max_force_norm(const std::vector<Vec3>& forces) {
  double m = 0.0;
  for (const Vec3& f : forces) m = std::max(m, std::sqrt(dot(f, f)));
  return m;
}

void expect_forces_close(const std::vector<Vec3>& a,
                         const std::vector<Vec3>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  const double scale = std::max(max_force_norm(a), 1.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].x, b[i].x, tol * scale) << "atom " << i;
    EXPECT_NEAR(a[i].y, b[i].y, tol * scale) << "atom " << i;
    EXPECT_NEAR(a[i].z, b[i].z, tol * scale) << "atom " << i;
  }
}

TEST(PairTableTest, TabledScalarKernelIsBitIdentical) {
  // Satellite regression: hoisting sqrt(eps_i eps_j) into the per-type
  // table must not move a single bit of the scalar kernel's output.
  for (const auto elec : {md::NonbondedOptions::Elec::kShift,
                          md::NonbondedOptions::Elec::kEwaldDirect}) {
    md::NonbondedOptions with = water_options(KernelKind::kScalar, elec);
    with.table = md::build_pair_table(water().topo);
    md::NonbondedOptions without = water_options(KernelKind::kScalar, elec);
    const PairRun a = run_pair_kernel(with);
    const PairRun b = run_pair_kernel(without);
    EXPECT_EQ(a.energy.lj, b.energy.lj);
    EXPECT_EQ(a.energy.elec, b.energy.elec);
    for (std::size_t i = 0; i < a.forces.size(); ++i) {
      EXPECT_EQ(a.forces[i].x, b.forces[i].x);
      EXPECT_EQ(a.forces[i].y, b.forces[i].y);
      EXPECT_EQ(a.forces[i].z, b.forces[i].z);
    }
  }
}

// --- pair kernel variants --------------------------------------------------

class PairKernelTest
    : public ::testing::TestWithParam<md::NonbondedOptions::Elec> {};

TEST_P(PairKernelTest, SimdMatchesScalarOracle) {
  const PairRun scalar =
      run_pair_kernel(water_options(KernelKind::kScalar, GetParam()));
  const PairRun simd =
      run_pair_kernel(water_options(KernelKind::kSimd, GetParam()));
  const double e_scale =
      std::max({std::abs(scalar.energy.lj), std::abs(scalar.energy.elec),
                1.0});
  EXPECT_NEAR(simd.energy.lj, scalar.energy.lj, 1e-10 * e_scale);
  EXPECT_NEAR(simd.energy.elec, scalar.energy.elec, 1e-10 * e_scale);
  expect_forces_close(scalar.forces, simd.forces, 1e-10);
}

TEST_P(PairKernelTest, WorkCountersAreKernelIndependent) {
  const PairRun scalar =
      run_pair_kernel(water_options(KernelKind::kScalar, GetParam()));
  const PairRun simd =
      run_pair_kernel(water_options(KernelKind::kSimd, GetParam()));
  // The cost model charges simulated time from these counts, so they must
  // match exactly (the lj/elec fields are energy partials, not counters —
  // they track the kernels' 1e-10 agreement, checked above).
  EXPECT_EQ(scalar.work.pairs_listed, simd.work.pairs_listed);
  EXPECT_EQ(scalar.work.pairs_in_cutoff, simd.work.pairs_in_cutoff);
}

TEST_P(PairKernelTest, SimdShardsSumToWhole) {
  const PairRun whole =
      run_pair_kernel(water_options(KernelKind::kSimd, GetParam()));
  std::vector<Vec3> sum(whole.forces.size(), Vec3{});
  double lj = 0.0, elec = 0.0;
  std::size_t pairs = 0;
  for (int shard = 0; shard < 4; ++shard) {
    const PairRun part = run_pair_kernel(
        water_options(KernelKind::kSimd, GetParam()), shard, 4);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += part.forces[i];
    lj += part.energy.lj;
    elec += part.energy.elec;
    pairs += part.work.pairs_listed;
  }
  EXPECT_EQ(pairs, whole.work.pairs_listed);
  EXPECT_NEAR(lj, whole.energy.lj, 1e-9 * std::max(std::abs(lj), 1.0));
  EXPECT_NEAR(elec, whole.energy.elec,
              1e-9 * std::max(std::abs(elec), 1.0));
  expect_forces_close(whole.forces, sum, 1e-9);
}

TEST_P(PairKernelTest, SimdIsDeterministicAcrossReruns) {
  const PairRun first =
      run_pair_kernel(water_options(KernelKind::kSimd, GetParam()));
  const PairRun second =
      run_pair_kernel(water_options(KernelKind::kSimd, GetParam()));
  EXPECT_EQ(first.energy.lj, second.energy.lj);
  EXPECT_EQ(first.energy.elec, second.energy.elec);
  for (std::size_t i = 0; i < first.forces.size(); ++i) {
    EXPECT_EQ(first.forces[i].x, second.forces[i].x);
    EXPECT_EQ(first.forces[i].y, second.forces[i].y);
    EXPECT_EQ(first.forces[i].z, second.forces[i].z);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Elec, PairKernelTest,
    ::testing::Values(md::NonbondedOptions::Elec::kShift,
                      md::NonbondedOptions::Elec::kEwaldDirect),
    [](const auto& info) {
      return info.param == md::NonbondedOptions::Elec::kShift ? "shift"
                                                              : "ewald";
    });

TEST(PairKernelTest, SimdBlockedMatchesScalarBlocked) {
  const auto& sys = water();
  md::NeighborList nbl(9.0, 2.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  const auto natoms = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<int> block(natoms);
  for (std::size_t i = 0; i < natoms; ++i) {
    block[i] = static_cast<int>(i * 4 / natoms);
  }
  for (int owner = 0; owner < 4; ++owner) {
    std::vector<Vec3> fs(natoms, Vec3{}), fv(natoms, Vec3{});
    md::EnergyTerms es, ev;
    const auto ws = md::nonbonded_energy_blocked(
        sys.topo, sys.box, sys.positions, nbl,
        water_options(KernelKind::kScalar,
                      md::NonbondedOptions::Elec::kEwaldDirect),
        block, owner, 4, fs, es);
    const auto wv = md::nonbonded_energy_blocked(
        sys.topo, sys.box, sys.positions, nbl,
        water_options(KernelKind::kSimd,
                      md::NonbondedOptions::Elec::kEwaldDirect),
        block, owner, 4, fv, ev);
    EXPECT_EQ(ws.pairs_listed, wv.pairs_listed);
    const double scale = std::max(std::abs(es.lj) + std::abs(es.elec), 1.0);
    EXPECT_NEAR(es.lj, ev.lj, 1e-10 * scale);
    EXPECT_NEAR(es.elec, ev.elec, 1e-10 * scale);
    expect_forces_close(fs, fv, 1e-10);
  }
}

// --- B-spline batch --------------------------------------------------------

TEST(BsplineBatchTest, BatchIsBitIdenticalPerLane) {
  util::Rng rng(41);
  for (const int order : {2, 4, 6}) {
    constexpr std::size_t kN = 37;  // odd, exercises the loop remainder
    std::vector<double> w(kN);
    for (double& v : w) v = rng.uniform();
    std::vector<double> vals(static_cast<std::size_t>(order) * kN);
    std::vector<double> derivs(static_cast<std::size_t>(order) * kN);
    pme::bspline_weights_batch(order, w.data(), kN, vals.data(),
                               derivs.data());
    for (std::size_t a = 0; a < kN; ++a) {
      double sv[pme::kMaxOrder], sd[pme::kMaxOrder];
      pme::bspline_weights(order, w[a], sv, sd);
      for (int j = 0; j < order; ++j) {
        EXPECT_EQ(vals[static_cast<std::size_t>(j) * kN + a], sv[j])
            << "order " << order << " lane " << a << " tap " << j;
        EXPECT_EQ(derivs[static_cast<std::size_t>(j) * kN + a], sd[j])
            << "order " << order << " lane " << a << " tap " << j;
      }
    }
  }
}

TEST(BsplineBatchTest, PartitionOfUnity) {
  util::Rng rng(43);
  constexpr std::size_t kN = 16;
  std::vector<double> w(kN);
  for (double& v : w) v = rng.uniform();
  for (const int order : {4, 6}) {
    std::vector<double> vals(static_cast<std::size_t>(order) * kN);
    std::vector<double> derivs(static_cast<std::size_t>(order) * kN);
    pme::bspline_weights_batch(order, w.data(), kN, vals.data(),
                               derivs.data());
    for (std::size_t a = 0; a < kN; ++a) {
      double vsum = 0.0, dsum = 0.0;
      for (int j = 0; j < order; ++j) {
        vsum += vals[static_cast<std::size_t>(j) * kN + a];
        dsum += derivs[static_cast<std::size_t>(j) * kN + a];
      }
      EXPECT_NEAR(vsum, 1.0, 1e-12);  // weights spread the whole charge
      EXPECT_NEAR(dsum, 0.0, 1e-12);  // translating the grid changes nothing
    }
  }
}

// --- full-workload invariance ----------------------------------------------

// Shared, relaxed full-size system (expensive: built once per binary).
const sysbuild::BuiltSystem& system_fixture() {
  static const sysbuild::BuiltSystem sys = [] {
    sysbuild::BuiltSystem s = sysbuild::build_myoglobin_like();
    charmm::relax_system(s, 60);
    return s;
  }();
  return sys;
}

core::ExperimentResult run_workload(const std::string& decomp, int nprocs,
                                    KernelKind kind) {
  core::ExperimentSpec spec;
  spec.nprocs = nprocs;
  spec.charmm.nsteps = 2;
  spec.charmm.decomp = charmm::parse_decomp_spec(decomp);
  spec.charmm.kernel = kind;
  return core::run_experiment(system_fixture(), spec);
}

struct WorkloadCase {
  const char* decomp;
  int nprocs;
};

class KernelInvarianceTest : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(KernelInvarianceTest, SimdPreservesPhysicsAndSimulatedTime) {
  const WorkloadCase& wc = GetParam();
  const core::ExperimentResult scalar =
      run_workload(wc.decomp, wc.nprocs, KernelKind::kScalar);
  const core::ExperimentResult simd =
      run_workload(wc.decomp, wc.nprocs, KernelKind::kSimd);
  // Physics: the simd pair kernel agrees with scalar to ~1e-12 per pair;
  // two MD steps keep the divergence far below these tolerances.
  const double e_scale = std::abs(scalar.energy.potential());
  EXPECT_NEAR(simd.energy.potential(), scalar.energy.potential(),
              1e-8 * std::max(e_scale, 1.0));
  EXPECT_NEAR(simd.position_checksum, scalar.position_checksum,
              1e-6 * std::max(std::abs(scalar.position_checksum), 1.0));
  EXPECT_EQ(simd.pairs_in_list, scalar.pairs_in_list);
  // Simulated time: both variants report identical work counters, so the
  // DES must charge exactly the same virtual time.
  EXPECT_EQ(simd.total_seconds(), scalar.total_seconds());
  EXPECT_EQ(simd.metrics.makespan, scalar.metrics.makespan);
}

INSTANTIATE_TEST_SUITE_P(
    DecompositionsByProcs, KernelInvarianceTest,
    ::testing::Values(WorkloadCase{"atom", 1}, WorkloadCase{"atom", 2},
                      WorkloadCase{"atom", 4}, WorkloadCase{"atom", 8},
                      WorkloadCase{"force", 2}, WorkloadCase{"force", 4},
                      WorkloadCase{"force", 8}, WorkloadCase{"task", 2},
                      WorkloadCase{"task", 4}, WorkloadCase{"task", 8},
                      WorkloadCase{"spatial", 2}, WorkloadCase{"spatial", 4},
                      WorkloadCase{"spatial", 8},
                      WorkloadCase{"spatial:pme=pencil", 8}),
    [](const auto& info) {
      std::string name = info.param.decomp;
      for (char& c : name) {
        if (c == ':' || c == '=') c = '_';
      }
      return name + "_p" + std::to_string(info.param.nprocs);
    });

}  // namespace
}  // namespace repro
