#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numbers>
#include <string>

#include "md/bonded.hpp"
#include "md/box.hpp"
#include "md/integrator.hpp"
#include "md/minimize.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "md/topology.hpp"
#include "sysbuild/builder.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace repro::md {
namespace {

using util::Vec3;

constexpr double kPi = std::numbers::pi;

TEST(BoxTest, MinImage) {
  Box box(10, 20, 30);
  EXPECT_EQ(box.min_image(Vec3{1, 2, 3}), Vec3(1, 2, 3));
  const Vec3 wrapped = box.min_image(Vec3{9, 19, 29});
  EXPECT_NEAR(wrapped.x, -1.0, 1e-12);
  EXPECT_NEAR(wrapped.y, -1.0, 1e-12);
  EXPECT_NEAR(wrapped.z, -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(box.volume(), 6000.0);
}

TEST(BoxTest, Wrap) {
  Box box(10, 10, 10);
  const Vec3 w = box.wrap(Vec3{-1.0, 11.0, 25.0});
  EXPECT_NEAR(w.x, 9.0, 1e-12);
  EXPECT_NEAR(w.y, 1.0, 1e-12);
  EXPECT_NEAR(w.z, 5.0, 1e-12);
}

TEST(TopologyTest, ExclusionsFromBondGraph) {
  // Chain 0-1-2-3-4: 1-2 and 1-3 neighbors excluded, 1-4 not.
  Topology topo(5);
  for (int i = 0; i + 1 < 5; ++i) {
    Bond b;
    b.i = i;
    b.j = i + 1;
    topo.bonds().push_back(b);
  }
  topo.build_exclusions();
  EXPECT_TRUE(topo.excluded(0, 1));   // 1-2
  EXPECT_TRUE(topo.excluded(0, 2));   // 1-3
  EXPECT_FALSE(topo.excluded(0, 3));  // 1-4 interacts
  EXPECT_FALSE(topo.excluded(0, 4));
  EXPECT_TRUE(topo.excluded(2, 4));
  EXPECT_TRUE(topo.excluded(4, 3));   // symmetric
  EXPECT_EQ(topo.excluded_pairs().size(), 4u + 3u);
}

TEST(TopologyTest, ExclusionPolicies) {
  // Chain 0-1-2-3-4 under each NBXMOD level.
  auto make = [](ExclusionPolicy policy) {
    Topology topo(5);
    for (int i = 0; i + 1 < 5; ++i) {
      Bond b;
      b.i = i;
      b.j = i + 1;
      topo.bonds().push_back(b);
    }
    topo.build_exclusions(policy);
    return topo;
  };
  const Topology nbx2 = make(ExclusionPolicy::kBonds);
  EXPECT_TRUE(nbx2.excluded(0, 1));
  EXPECT_FALSE(nbx2.excluded(0, 2));
  EXPECT_EQ(nbx2.excluded_pairs().size(), 4u);

  const Topology nbx4 = make(ExclusionPolicy::kBondsAnglesDihedrals);
  EXPECT_TRUE(nbx4.excluded(0, 3));   // 1-4 excluded too
  EXPECT_FALSE(nbx4.excluded(0, 4));  // 1-5 interacts
  EXPECT_EQ(nbx4.excluded_pairs().size(), 4u + 3u + 2u);
}

TEST(TopologyTest, TotalChargeAndMass) {
  Topology topo(2);
  topo.atom(0) = AtomParams{12.0, 0.5, 0.1, 2.0};
  topo.atom(1) = AtomParams{1.0, -0.5, 0.05, 1.0};
  EXPECT_DOUBLE_EQ(topo.total_charge(), 0.0);
  EXPECT_DOUBLE_EQ(topo.total_mass(), 13.0);
}

// --- bonded terms against hand-computed values ------------------------------

TEST(BondedTest, BondEnergyAndForce) {
  Topology topo(2);
  Bond b;
  b.i = 0;
  b.j = 1;
  b.kb = 100.0;
  b.b0 = 1.5;
  topo.bonds().push_back(b);
  Box box(50, 50, 50);
  std::vector<Vec3> pos{{0, 0, 0}, {2.0, 0, 0}};
  std::vector<Vec3> f(2);
  EnergyTerms e;
  bonded_energy(topo, box, pos, f, e);
  EXPECT_NEAR(e.bond, 100.0 * 0.25, 1e-12);
  // dE/dr = 2*100*0.5 = 100 pulling the atoms together.
  EXPECT_NEAR(f[0].x, 100.0, 1e-10);
  EXPECT_NEAR(f[1].x, -100.0, 1e-10);
}

TEST(BondedTest, AngleEnergyAtRightAngle) {
  Topology topo(3);
  Angle a;
  a.i = 0;
  a.j = 1;
  a.k = 2;
  a.ktheta = 50.0;
  a.theta0 = kPi / 2.0;
  topo.angles().push_back(a);
  Box box(50, 50, 50);
  // 60-degree angle.
  std::vector<Vec3> pos{{1, 0, 0}, {0, 0, 0},
                        {std::cos(kPi / 3), std::sin(kPi / 3), 0}};
  std::vector<Vec3> f(3);
  EnergyTerms e;
  bonded_energy(topo, box, pos, f, e);
  const double dt = kPi / 3 - kPi / 2;
  EXPECT_NEAR(e.angle, 50.0 * dt * dt, 1e-10);
  // Net force and torque vanish.
  EXPECT_NEAR(util::norm(f[0] + f[1] + f[2]), 0.0, 1e-10);
}

TEST(BondedTest, UreyBradleyAddsOneThreeTerm) {
  Topology topo(3);
  Angle a;
  a.i = 0;
  a.j = 1;
  a.k = 2;
  a.ktheta = 0.0;
  a.theta0 = kPi / 2;
  a.kub = 30.0;
  a.s0 = 2.0;
  topo.angles().push_back(a);
  Box box(50, 50, 50);
  std::vector<Vec3> pos{{1.5, 0, 0}, {0, 0, 0}, {0, 1.5, 0}};
  std::vector<Vec3> f(3);
  EnergyTerms e;
  bonded_energy(topo, box, pos, f, e);
  const double s = std::sqrt(4.5);
  EXPECT_NEAR(e.angle, 30.0 * (s - 2.0) * (s - 2.0), 1e-10);
}

TEST(BondedTest, DihedralEnergyAtKnownAngle) {
  Topology topo(4);
  Dihedral d;
  d.i = 0;
  d.j = 1;
  d.k = 2;
  d.l = 3;
  d.kchi = 2.0;
  d.n = 1;
  d.delta = 0.0;
  topo.dihedrals().push_back(d);
  Box box(50, 50, 50);
  // Planar trans conformation: phi = pi (with the atan2 convention used).
  std::vector<Vec3> pos{{0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {1, -1, 0}};
  std::vector<Vec3> f(4);
  EnergyTerms e;
  bonded_energy(topo, box, pos, f, e);
  // E = k (1 + cos(phi)); at phi = +-pi this is 0.
  EXPECT_NEAR(e.dihedral, 0.0, 1e-10);
  // Cis conformation: phi = 0 -> E = 2k.
  pos[3] = Vec3{1, 1, 0};
  std::fill(f.begin(), f.end(), Vec3{});
  EnergyTerms e2;
  bonded_energy(topo, box, pos, f, e2);
  EXPECT_NEAR(e2.dihedral, 4.0, 1e-10);
}

// Numerical-gradient check on a realistic random chain covering every
// bonded term type at once.
TEST(BondedTest, ForcesMatchNumericalGradient) {
  auto sys = sysbuild::build_test_chain(12, 77);
  const double h = 1e-6;
  std::vector<Vec3> f(static_cast<std::size_t>(sys.topo.natoms()));
  EnergyTerms e;
  bonded_energy(sys.topo, sys.box, sys.positions, f, e);
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      std::vector<Vec3> tmp(static_cast<std::size_t>(sys.topo.natoms()));
      EnergyTerms ep, em;
      bonded_energy(sys.topo, sys.box, plus, tmp, ep);
      bonded_energy(sys.topo, sys.box, minus, tmp, em);
      const double numeric =
          -(ep.bonded() - em.bonded()) / (2.0 * h);
      EXPECT_NEAR(f[static_cast<std::size_t>(i)][d], numeric, 2e-4)
          << "atom " << i << " dim " << d;
    }
  }
}

TEST(BondedTest, ShardsPartitionTheWork) {
  auto sys = sysbuild::build_test_chain(20, 5);
  std::vector<Vec3> full(static_cast<std::size_t>(sys.topo.natoms()));
  EnergyTerms efull;
  const BondedWork wfull =
      bonded_energy(sys.topo, sys.box, sys.positions, full, efull);

  const int p = 3;
  std::vector<Vec3> acc(static_cast<std::size_t>(sys.topo.natoms()));
  EnergyTerms eacc;
  std::size_t terms = 0;
  for (int shard = 0; shard < p; ++shard) {
    terms +=
        bonded_energy(sys.topo, sys.box, sys.positions, acc, eacc, shard, p)
            .total();
  }
  EXPECT_EQ(terms, wfull.total());
  EXPECT_NEAR(eacc.bonded(), efull.bonded(), 1e-9);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(util::norm(acc[i] - full[i]), 0.0, 1e-9);
  }
}

// --- neighbor list -----------------------------------------------------------

// The exact CSR a list must hold: pairs (i < j) inside `range` by
// Box::min_image, excluded pairs dropped, only rows with row_mask set and
// both atoms in `members`; rows in ascending j.
struct Csr {
  std::vector<std::size_t> offsets;
  std::vector<int> neighbors;
};

Csr brute_force_csr(const Topology& topo, const Box& box,
                    const std::vector<Vec3>& pos, double range,
                    const std::vector<std::uint8_t>& members,
                    const std::vector<std::uint8_t>& row_mask) {
  const int n = topo.natoms();
  Csr csr;
  csr.offsets.push_back(0);
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    for (int j = i + 1; j < n && members[si] && row_mask[si]; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      if (!members[sj] || topo.excluded(i, j)) continue;
      if (util::norm2(box.min_image(pos[si] - pos[sj])) < range * range) {
        csr.neighbors.push_back(j);
      }
    }
    csr.offsets.push_back(csr.neighbors.size());
  }
  return csr;
}

TEST(NeighborListTest, MatchesBruteForce) {
  util::Rng rng(31);
  const int n = 200;
  const auto un = static_cast<std::size_t>(n);
  Topology topo(n);
  // With range 7 the grid is 3 x 4 x 5 cells: the x dimension sits at
  // exactly the smallest count the half-stencil sweep accepts.
  Box box(24, 30, 36);
  const double range = 6.0 + 1.0;
  std::vector<Vec3> pos;
  for (int i = 0; i < n; ++i) {
    topo.atom(i) = AtomParams{12.0, 0.0, 0.1, 2.0};
    pos.push_back(Vec3{rng.uniform(0, box.lx()), rng.uniform(0, box.ly()),
                       rng.uniform(0, box.lz())});
  }
  // A few bonds create exclusions.
  for (int i = 0; i < 20; ++i) {
    Bond b;
    b.i = 2 * i;
    b.j = 2 * i + 1;
    topo.bonds().push_back(b);
  }
  topo.build_exclusions();

  // The same atoms seen through different images: whole-box shifts per
  // atom, one fractional shift of everything, negative coordinates, and
  // signed zeros.
  std::vector<std::vector<Vec3>> variants{pos};
  std::vector<Vec3> shifted = pos;
  for (std::size_t i = 0; i < un; ++i) {
    shifted[i] += Vec3{box.lx() * static_cast<double>(i % 3),
                       -box.ly() * static_cast<double>(i % 2),
                       box.lz() * (static_cast<double>(i % 5) - 2.0)};
  }
  variants.push_back(shifted);
  std::vector<Vec3> fractional = pos;
  for (Vec3& r : fractional) {
    r += Vec3{0.37 * box.lx(), -0.61 * box.ly(), -1.25 * box.lz()};
  }
  variants.push_back(fractional);
  std::vector<Vec3> zeros = pos;
  zeros[3] = Vec3{-0.0, 0.0, -0.0};
  zeros[4] = Vec3{0.0, -0.0, 0.0};
  zeros[5].x = -0.0;
  variants.push_back(zeros);

  const std::vector<std::uint8_t> all(un, 1);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE("position variant " + std::to_string(v));
    NeighborList nbl(6.0, 1.0);
    nbl.build(topo, box, variants[v]);
    const Csr want = brute_force_csr(topo, box, variants[v], range, all, all);
    EXPECT_EQ(nbl.offsets(), want.offsets);
    EXPECT_EQ(nbl.neighbors(), want.neighbors);
    // A fresh list on the same inputs is a build-memo hit and must borrow
    // the same exact CSR.
    NeighborList again(6.0, 1.0);
    again.build(topo, box, variants[v]);
    EXPECT_EQ(again.offsets(), want.offsets);
    EXPECT_EQ(again.neighbors(), want.neighbors);

    // build_subset: random candidates in shuffled order and a random row
    // mask (some masked rows are not candidates at all).
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<int> candidates;
      std::vector<std::uint8_t> members(un, 0), mask(un, 0);
      for (int i = 0; i < n; ++i) {
        const auto si = static_cast<std::size_t>(i);
        if (rng.uniform() < 0.7) {
          candidates.push_back(i);
          members[si] = 1;
        }
        mask[si] = rng.uniform() < 0.4 ? 1 : 0;
      }
      for (std::size_t k = candidates.size(); k > 1; --k) {
        std::swap(candidates[k - 1], candidates[rng.uniform_index(k)]);
      }
      NeighborList sub(6.0, 1.0);
      sub.build_subset(topo, box, variants[v], candidates, mask);
      const Csr want_sub =
          brute_force_csr(topo, box, variants[v], range, members, mask);
      EXPECT_EQ(sub.offsets(), want_sub.offsets);
      EXPECT_EQ(sub.neighbors(), want_sub.neighbors);
    }
  }
}

TEST(NeighborListTest, RebuildTrigger) {
  auto sys = sysbuild::build_water_box(4);
  NeighborList nbl(4.0, 2.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  EXPECT_FALSE(nbl.needs_rebuild(sys.box, sys.positions));
  auto moved = sys.positions;
  moved[0].x += 0.9;  // below skin/2
  EXPECT_FALSE(nbl.needs_rebuild(sys.box, moved));
  moved[0].x += 0.2;  // beyond skin/2
  EXPECT_TRUE(nbl.needs_rebuild(sys.box, moved));
}

// --- non-bonded kernels -------------------------------------------------------

TEST(NonbondedTest, ListedMatchesReference) {
  auto sys = sysbuild::build_water_box(4);
  NonbondedOptions opts;
  opts.cutoff = 5.0;
  opts.switch_on = 4.0;
  NeighborList nbl(opts.cutoff, 1.0);
  nbl.build(sys.topo, sys.box, sys.positions);

  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f1(n), f2(n);
  EnergyTerms e1, e2;
  nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts, f1, e1);
  nonbonded_energy_reference(sys.topo, sys.box, sys.positions, opts, f2, e2);
  EXPECT_NEAR(e1.lj, e2.lj, 1e-9);
  EXPECT_NEAR(e1.elec, e2.elec, 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(util::norm(f1[i] - f2[i]), 0.0, 1e-9);
  }
}

class ElecMethodTest
    : public ::testing::TestWithParam<NonbondedOptions::Elec> {};

TEST_P(ElecMethodTest, ForcesMatchNumericalGradient) {
  auto sys = sysbuild::build_water_box(2);
  NonbondedOptions opts;
  opts.cutoff = 3.0;
  opts.switch_on = 2.2;
  opts.elec = GetParam();
  opts.beta = 0.4;
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f(n);
  EnergyTerms e;
  nonbonded_energy_reference(sys.topo, sys.box, sys.positions, opts, f, e);
  const double h = 1e-6;
  for (int i = 0; i < sys.topo.natoms(); i += 3) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      std::vector<Vec3> tmp(n);
      EnergyTerms ep, em;
      nonbonded_energy_reference(sys.topo, sys.box, plus, opts, tmp, ep);
      nonbonded_energy_reference(sys.topo, sys.box, minus, opts, tmp, em);
      const double numeric =
          -((ep.lj + ep.elec) - (em.lj + em.elec)) / (2.0 * h);
      EXPECT_NEAR(f[static_cast<std::size_t>(i)][d], numeric, 5e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, ElecMethodTest,
                         ::testing::Values(NonbondedOptions::Elec::kShift,
                                           NonbondedOptions::Elec::kEwaldDirect));

TEST(NonbondedTest, ShiftElectrostaticsVanishAtCutoff) {
  Topology topo(2);
  topo.atom(0) = AtomParams{1.0, 1.0, 0.0, 1.0};
  topo.atom(1) = AtomParams{1.0, -1.0, 0.0, 1.0};
  topo.build_exclusions();
  Box box(60, 60, 60);
  NonbondedOptions opts;
  opts.cutoff = 10.0;
  std::vector<Vec3> f(2);

  // Just inside the cutoff: energy is ~0 (continuous to zero).
  std::vector<Vec3> pos{{0, 0, 0}, {9.999, 0, 0}};
  EnergyTerms e;
  nonbonded_energy_reference(topo, box, pos, opts, f, e);
  EXPECT_NEAR(e.elec, 0.0, 1e-5);
  // Well inside: attractive and close to plain Coulomb modified by shift.
  pos[1].x = 2.0;
  EnergyTerms e2;
  nonbonded_energy_reference(topo, box, pos, opts, f, e2);
  const double shift = std::pow(1.0 - 4.0 / 100.0, 2);
  EXPECT_NEAR(e2.elec, -units::kCoulomb / 2.0 * shift, 1e-9);
}

TEST(NonbondedTest, SwitchingFunctionContinuity) {
  Topology topo(2);
  topo.atom(0) = AtomParams{1.0, 0.0, 0.2, 1.9};
  topo.atom(1) = AtomParams{1.0, 0.0, 0.2, 1.9};
  topo.build_exclusions();
  Box box(60, 60, 60);
  NonbondedOptions opts;
  opts.cutoff = 10.0;
  opts.switch_on = 8.0;
  auto energy_at = [&](double r) {
    std::vector<Vec3> f(2);
    std::vector<Vec3> pos{{0, 0, 0}, {r, 0, 0}};
    EnergyTerms e;
    nonbonded_energy_reference(topo, box, pos, opts, f, e);
    return e.lj;
  };
  // Continuous at the switch-on radius and zero at the cutoff.
  EXPECT_NEAR(energy_at(7.9999), energy_at(8.0001), 1e-6);
  EXPECT_NEAR(energy_at(9.9999), 0.0, 1e-8);
  // LJ minimum at rmin: E = -eps.
  EXPECT_NEAR(energy_at(3.8), -0.2, 1e-10);
}

TEST(NonbondedTest, ShardsPartitionPairs) {
  auto sys = sysbuild::build_water_box(4);
  NonbondedOptions opts;
  opts.cutoff = 5.0;
  opts.switch_on = 4.0;
  NeighborList nbl(opts.cutoff, 1.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());

  std::vector<Vec3> full(n);
  EnergyTerms efull;
  const NonbondedWork wfull =
      nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts, full,
                       efull);
  const int p = 5;
  std::vector<Vec3> acc(n);
  EnergyTerms eacc;
  std::size_t pairs = 0;
  for (int shard = 0; shard < p; ++shard) {
    pairs += nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts,
                              acc, eacc, shard, p)
                 .pairs_listed;
  }
  EXPECT_EQ(pairs, wfull.pairs_listed);
  EXPECT_NEAR(eacc.lj, efull.lj, 1e-9);
  EXPECT_NEAR(eacc.elec, efull.elec, 1e-9);
}

// --- sharded pair memo -------------------------------------------------------

// One nonbonded_energy call's full output, compared byte for byte.
struct PairCall {
  std::vector<Vec3> forces;
  EnergyTerms energy;
  NonbondedWork work;
};

bool same_bytes(const PairCall& a, const PairCall& b) {
  return a.forces.size() == b.forces.size() &&
         std::memcmp(a.forces.data(), b.forces.data(),
                     a.forces.size() * sizeof(Vec3)) == 0 &&
         std::memcmp(&a.energy, &b.energy, sizeof(EnergyTerms)) == 0 &&
         std::memcmp(&a.work, &b.work, sizeof(NonbondedWork)) == 0;
}

class PairMemoTest : public ::testing::Test {
 protected:
  // Each test shifts the water box by its own offset, so no test can hit
  // entries another one left in the process-wide memos.
  void SetUp() override {
    static double next_shift = 0.0;
    next_shift += 1e-3;
    for (auto& x : sys_.positions) x = x + Vec3{next_shift, 0.0, 0.0};
    opts_.cutoff = 5.0;
    opts_.switch_on = 4.0;
    opts_.elec = NonbondedOptions::Elec::kEwaldDirect;
    opts_.beta = 0.4;
    opts_.table = build_pair_table(sys_.topo);
    incoming_.resize(static_cast<std::size_t>(sys_.topo.natoms()));
    for (std::size_t i = 0; i < incoming_.size(); ++i) {
      const double v = static_cast<double>(i);
      incoming_[i] = Vec3{0.5 * v, -0.25 * v, 1.0 / (v + 1.0)};
    }
  }

  // A nonbonded_energy call on non-zero incoming forces and energies, so
  // a hit has to reproduce the accumulation, not just the contribution.
  PairCall call(const NeighborList& nbl, const std::vector<Vec3>& pos,
                const std::vector<Vec3>& incoming,
                const NonbondedOptions& opts, int shard, int stride) const {
    PairCall out{incoming, {}, {}};
    out.energy.lj = 1.25;
    out.energy.elec = -3.5;
    out.work = nonbonded_energy(sys_.topo, sys_.box, pos, nbl, opts,
                                out.forces, out.energy, shard, stride);
    return out;
  }

  // The same call evaluated with the memo out of the way: a build_subset()
  // list over every atom holds build()'s exact arrays but has no identity.
  PairCall cold(const std::vector<Vec3>& pos,
                const std::vector<Vec3>& incoming,
                const NonbondedOptions& opts, int shard, int stride) const {
    NeighborList subset(opts.cutoff, kSkin);
    std::vector<int> all(static_cast<std::size_t>(sys_.topo.natoms()));
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    subset.build_subset(sys_.topo, sys_.box, sys_.positions, all,
                        std::vector<std::uint8_t>(all.size(), 1));
    return call(subset, pos, incoming, opts, shard, stride);
  }

  static constexpr double kSkin = 1.0;
  sysbuild::BuiltSystem sys_ = sysbuild::build_water_box(4);
  NonbondedOptions opts_;
  std::vector<Vec3> incoming_;
};

TEST_F(PairMemoTest, HitIsByteIdenticalToColdEvaluation) {
  NeighborList nbl(opts_.cutoff, kSkin);
  nbl.build(sys_.topo, sys_.box, sys_.positions);
  ASSERT_NE(nbl.identity(), nullptr);
  for (util::KernelKind kernel :
       {util::KernelKind::kScalar, util::KernelKind::kSimd}) {
    NonbondedOptions opts = opts_;
    opts.kernel = kernel;
    const PairCall want = cold(sys_.positions, incoming_, opts, 1, 3);
    ASSERT_GT(want.work.pairs_in_cutoff, 0u);
    const std::uint64_t hits = pair_memo_hits();
    const std::uint64_t misses = pair_memo_misses();
    const PairCall first = call(nbl, sys_.positions, incoming_, opts, 1, 3);
    EXPECT_EQ(pair_memo_misses(), misses + 1);
    const PairCall second = call(nbl, sys_.positions, incoming_, opts, 1, 3);
    EXPECT_EQ(pair_memo_hits(), hits + 1);
    EXPECT_TRUE(same_bytes(first, want));
    EXPECT_TRUE(same_bytes(second, want));
  }
}

TEST_F(PairMemoTest, AnyChangedInputMissesAndComputesTheRightAnswer) {
  NeighborList nbl(opts_.cutoff, kSkin);
  nbl.build(sys_.topo, sys_.box, sys_.positions);
  call(nbl, sys_.positions, incoming_, opts_, 0, 2);  // the stored entry

  std::vector<Vec3> pos = sys_.positions;
  pos[7].x = std::nextafter(pos[7].x, 100.0);
  std::vector<Vec3> incoming = incoming_;
  incoming[3].y = std::nextafter(incoming[3].y, 100.0);
  auto table = std::make_shared<PairTable>(*opts_.table);
  table->charge[5] *= 0.5;
  NonbondedOptions recharged = opts_;
  recharged.table = table;

  struct Variant {
    const char* what;
    const std::vector<Vec3>& pos;
    const std::vector<Vec3>& incoming;
    const NonbondedOptions& opts;
    int shard, stride;
  };
  for (const Variant& v : {
           Variant{"one-ulp position", pos, incoming_, opts_, 0, 2},
           Variant{"one-ulp incoming force", sys_.positions, incoming, opts_,
                   0, 2},
           Variant{"another shard", sys_.positions, incoming_, opts_, 1, 2},
           Variant{"another stride", sys_.positions, incoming_, opts_, 0, 3},
           Variant{"one changed charge", sys_.positions, incoming_,
                   recharged, 0, 2},
       }) {
    const std::uint64_t hits = pair_memo_hits();
    const std::uint64_t misses = pair_memo_misses();
    const PairCall got = call(nbl, v.pos, v.incoming, v.opts, v.shard,
                              v.stride);
    EXPECT_EQ(pair_memo_hits(), hits) << v.what;
    EXPECT_EQ(pair_memo_misses(), misses + 1) << v.what;
    EXPECT_TRUE(same_bytes(got, cold(v.pos, v.incoming, v.opts, v.shard,
                                     v.stride)))
        << v.what;
  }
}

TEST_F(PairMemoTest, ListRebuiltAfterBuildMemoEvictionMisses) {
  NeighborList first(opts_.cutoff, kSkin);
  first.build(sys_.topo, sys_.box, sys_.positions);
  const PairCall want = call(first, sys_.positions, incoming_, opts_, 1, 2);

  // More distinct builds than the build memo holds push the entry out.
  for (int k = 1; k <= 16; ++k) {
    std::vector<Vec3> moved = sys_.positions;
    moved[0].x += 1e-6 * k;
    NeighborList other(opts_.cutoff, kSkin);
    other.build(sys_.topo, sys_.box, moved);
  }
  NeighborList rebuilt(opts_.cutoff, kSkin);
  rebuilt.build(sys_.topo, sys_.box, sys_.positions);
  ASSERT_NE(rebuilt.identity(), first.identity());
  ASSERT_EQ(rebuilt.neighbors(), first.neighbors());

  const std::uint64_t hits = pair_memo_hits();
  const std::uint64_t misses = pair_memo_misses();
  const PairCall got = call(rebuilt, sys_.positions, incoming_, opts_, 1, 2);
  EXPECT_EQ(pair_memo_hits(), hits);
  EXPECT_EQ(pair_memo_misses(), misses + 1);
  EXPECT_TRUE(same_bytes(got, want));
  EXPECT_TRUE(same_bytes(got, cold(sys_.positions, incoming_, opts_, 1, 2)));
}

TEST_F(PairMemoTest, SubsetListsAndStrideOneBypassTheMemo) {
  NeighborList nbl(opts_.cutoff, kSkin);
  nbl.build(sys_.topo, sys_.box, sys_.positions);
  const std::uint64_t hits = pair_memo_hits();
  const std::uint64_t misses = pair_memo_misses();
  const PairCall subset = cold(sys_.positions, incoming_, opts_, 0, 2);
  for (int rep = 0; rep < 2; ++rep) {
    const PairCall whole = call(nbl, sys_.positions, incoming_, opts_, 0, 1);
    EXPECT_TRUE(same_bytes(whole, cold(sys_.positions, incoming_, opts_, 0, 1)));
    EXPECT_TRUE(same_bytes(subset, cold(sys_.positions, incoming_, opts_, 0, 2)));
  }
  EXPECT_EQ(pair_memo_hits(), hits);
  EXPECT_EQ(pair_memo_misses(), misses);
}

// --- integrator ----------------------------------------------------------------

TEST(IntegratorTest, HarmonicOscillatorPeriod) {
  // Single particle on a spring to a fixed point via a bond to a huge mass.
  Topology topo(2);
  topo.atom(0) = AtomParams{1.0, 0, 0, 0};
  topo.atom(1) = AtomParams{1e12, 0, 0, 0};
  Bond b;
  b.i = 0;
  b.j = 1;
  b.kb = 10.0;  // E = k (r - r0)^2 -> omega = sqrt(2k/m)
  b.b0 = 2.0;
  topo.bonds().push_back(b);
  Box box(100, 100, 100);
  std::vector<Vec3> pos{{52.5, 50, 50}, {50, 50, 50}};
  std::vector<Vec3> vel{{0, 0, 0}, {0, 0, 0}};
  std::vector<Vec3> f(2);

  const double omega = std::sqrt(2.0 * 10.0 * units::kForceToAccel / 1.0);
  const double period = 2.0 * kPi / omega;
  const double dt = period / 2000.0;
  VelocityVerlet vv(dt);

  auto eval = [&] {
    std::fill(f.begin(), f.end(), Vec3{});
    EnergyTerms e;
    bonded_energy(topo, box, pos, f, e);
  };
  eval();
  for (int s = 0; s < 2000; ++s) {
    vv.begin_step(topo, f, pos, vel);
    eval();
    vv.end_step(topo, f, vel);
  }
  // After one period the oscillator returns to its start.
  EXPECT_NEAR(pos[0].x, 52.5, 1e-3);
  EXPECT_NEAR(vel[0].x, 0.0, 0.05);
}

TEST(IntegratorTest, KineticEnergyAndTemperature) {
  Topology topo(2);
  topo.atom(0) = AtomParams{2.0, 0, 0, 0};
  topo.atom(1) = AtomParams{3.0, 0, 0, 0};
  std::vector<Vec3> vel{{1, 0, 0}, {0, 2, 0}};
  const double ke = kinetic_energy(topo, vel);
  EXPECT_NEAR(ke, 0.5 * (2.0 + 12.0) / units::kForceToAccel, 1e-12);
  EXPECT_GT(temperature(topo, vel), 0.0);
}

TEST(IntegratorTest, AssignVelocitiesHitsTemperature) {
  auto sys = sysbuild::build_water_box(4);
  std::vector<Vec3> vel;
  assign_velocities(sys.topo, 300.0, 99, vel);
  EXPECT_NEAR(temperature(sys.topo, vel), 300.0, 15.0);
  // No net momentum.
  Vec3 momentum;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    momentum += vel[static_cast<std::size_t>(i)] * sys.topo.atom(i).mass;
  }
  EXPECT_NEAR(util::norm(momentum), 0.0, 1e-9);
}

TEST(MinimizeTest, QuadraticBowlConverges) {
  MinimizeOptions opts;
  opts.max_steps = 500;
  opts.force_tolerance = 1e-3;
  std::vector<Vec3> pos{{5, -3, 2}};
  auto eval = [](const std::vector<Vec3>& p, std::vector<Vec3>& f) {
    f[0] = -2.0 * p[0];
    return util::norm2(p[0]);
  };
  const MinimizeResult res = minimize(opts, eval, pos);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_energy, 1e-4);
  EXPECT_LT(res.final_energy, res.initial_energy);
}

TEST(MinimizeTest, NeverIncreasesEnergy) {
  auto sys = sysbuild::build_test_chain(16, 3);
  // Perturb to create strain.
  util::Rng rng(4);
  for (auto& r : sys.positions) {
    r += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
              rng.uniform(-0.3, 0.3)};
  }
  auto eval = [&](const std::vector<Vec3>& p, std::vector<Vec3>& f) {
    EnergyTerms e;
    std::fill(f.begin(), f.end(), Vec3{});
    bonded_energy(sys.topo, sys.box, p, f, e);
    return e.bonded();
  };
  MinimizeOptions opts;
  opts.max_steps = 100;
  auto pos = sys.positions;
  const MinimizeResult res = minimize(opts, eval, pos);
  EXPECT_LE(res.final_energy, res.initial_energy);
}

}  // namespace
}  // namespace repro::md
