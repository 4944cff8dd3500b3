#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "md/nonbonded.hpp"
#include "middleware/middleware.hpp"
#include "net/cluster.hpp"
#include "pme/bspline.hpp"
#include "pme/ewald_ref.hpp"
#include "pme/pme.hpp"
#include "sim/engine.hpp"
#include "sysbuild/builder.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace repro::pme {
namespace {

using util::Vec3;

// --- B-splines ---------------------------------------------------------------

class BsplineOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(BsplineOrderTest, PartitionOfUnity) {
  const int order = GetParam();
  for (double w : {0.0, 0.1, 0.37, 0.5, 0.77, 0.999}) {
    double vals[kMaxOrder];
    double derivs[kMaxOrder];
    bspline_weights(order, w, vals, derivs);
    double sum = 0.0;
    double dsum = 0.0;
    for (int j = 0; j < order; ++j) {
      EXPECT_GE(vals[j], -1e-14);
      sum += vals[j];
      dsum += derivs[j];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "order " << order << " w " << w;
    // Derivatives of a partition of unity sum to zero.
    EXPECT_NEAR(dsum, 0.0, 1e-12);
  }
}

TEST_P(BsplineOrderTest, DerivativeMatchesFiniteDifference) {
  const int order = GetParam();
  const double w = 0.4;
  const double h = 1e-7;
  double v0[kMaxOrder], v1[kMaxOrder], d[kMaxOrder];
  bspline_weights(order, w - h, v0, nullptr);
  bspline_weights(order, w + h, v1, nullptr);
  double vals[kMaxOrder];
  bspline_weights(order, w, vals, d);
  for (int j = 0; j < order; ++j) {
    EXPECT_NEAR(d[j], (v1[j] - v0[j]) / (2 * h), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BsplineOrderTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(BsplineTest, KnownValuesOrder2) {
  double vals[kMaxOrder];
  bspline_weights(2, 0.25, vals, nullptr);
  // M2(x) = x on [0,1], 2-x on [1,2]: M2(0.25) = 0.25, M2(1.25) = 0.75.
  EXPECT_NEAR(vals[0], 0.25, 1e-15);
  EXPECT_NEAR(vals[1], 0.75, 1e-15);
}

TEST(BsplineTest, KnownValuesOrder4AtHalf) {
  double vals[kMaxOrder];
  bspline_weights(4, 0.5, vals, nullptr);
  // Cubic B-spline at x = 0.5, 1.5, 2.5, 3.5: 1/48, 23/48, 23/48, 1/48.
  EXPECT_NEAR(vals[0], 1.0 / 48.0, 1e-12);
  EXPECT_NEAR(vals[1], 23.0 / 48.0, 1e-12);
  EXPECT_NEAR(vals[2], 23.0 / 48.0, 1e-12);
  EXPECT_NEAR(vals[3], 1.0 / 48.0, 1e-12);
}

TEST(BsplineTest, ModuliPositiveAndPatched) {
  for (int order : {4, 6}) {
    for (std::size_t n : {16u, 36u, 48u, 80u}) {
      const auto mod = bspline_moduli(n, order);
      ASSERT_EQ(mod.size(), n);
      for (double m : mod) EXPECT_GT(m, 0.0);
      EXPECT_NEAR(mod[0], 1.0, 1e-9);  // b(0) = 1
    }
  }
}

// --- Ewald identities ----------------------------------------------------------

TEST(EwaldTest, SelfEnergyFormula) {
  md::Topology topo(2);
  topo.atom(0).charge = 1.0;
  topo.atom(1).charge = -2.0;
  const double beta = 0.4;
  EXPECT_NEAR(ewald_self_energy(topo, beta),
              -units::kCoulomb * beta / std::sqrt(std::numbers::pi) * 5.0,
              1e-9);
}

TEST(EwaldTest, ReferenceBetaIndependence) {
  // The full Ewald energy must not depend on the splitting parameter.
  auto sys = sysbuild::build_random_charges(16, md::Box(12, 12, 12), 1);
  EwaldRefOptions o1;
  o1.beta = 0.55;
  o1.kmax = 14;
  EwaldRefOptions o2;
  o2.beta = 0.75;
  o2.kmax = 18;
  const double e1 = ewald_reference(sys.topo, sys.box, sys.positions, o1)
                        .total();
  const double e2 = ewald_reference(sys.topo, sys.box, sys.positions, o2)
                        .total();
  EXPECT_NEAR(e1, e2, std::abs(e1) * 1e-4 + 1e-3);
}

TEST(EwaldTest, ReferenceForcesMatchGradient) {
  auto sys = sysbuild::build_random_charges(8, md::Box(10, 10, 10), 2);
  EwaldRefOptions opts;
  opts.beta = 0.6;
  opts.kmax = 10;
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> fd(n), fr(n);
  ewald_reference(sys.topo, sys.box, sys.positions, opts, &fd, &fr);
  const double h = 1e-5;
  for (int i = 0; i < 4; ++i) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      const double ep =
          ewald_reference(sys.topo, sys.box, plus, opts).total();
      const double em =
          ewald_reference(sys.topo, sys.box, minus, opts).total();
      const double numeric = -(ep - em) / (2 * h);
      EXPECT_NEAR(fd[static_cast<std::size_t>(i)][d] +
                      fr[static_cast<std::size_t>(i)][d],
                  numeric, 5e-3);
    }
  }
}

// --- serial PME vs brute-force Ewald ------------------------------------------

TEST(SerialPmeTest, ReciprocalMatchesKspaceSum) {
  auto sys = sysbuild::build_random_charges(20, md::Box(14, 11, 9), 3);
  const double beta = 0.5;
  PmeParams params;
  params.nx = 28;
  params.ny = 24;
  params.nz = 20;
  params.order = 6;
  params.beta = beta;
  SerialPme pme(params, sys.box);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f(n);
  const double recip = pme.reciprocal(sys.topo, sys.positions, f);

  EwaldRefOptions opts;
  opts.beta = beta;
  opts.kmax = 12;
  const EwaldRefResult ref =
      ewald_reference(sys.topo, sys.box, sys.positions, opts);
  EXPECT_NEAR(recip, ref.reciprocal, std::abs(ref.reciprocal) * 2e-3 + 1e-3);
}

TEST(SerialPmeTest, ForcesMatchNumericalGradient) {
  auto sys = sysbuild::build_random_charges(10, md::Box(10, 10, 10), 4);
  PmeParams params;
  params.nx = 24;
  params.ny = 24;
  params.nz = 24;
  params.order = 4;
  params.beta = 0.45;
  SerialPme pme(params, sys.box);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f(n);
  pme.reciprocal(sys.topo, sys.positions, f);
  const double h = 1e-4;
  for (int i = 0; i < 5; ++i) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      std::vector<Vec3> tmp(n);
      const double ep = pme.reciprocal(sys.topo, plus, tmp);
      const double em = pme.reciprocal(sys.topo, minus, tmp);
      EXPECT_NEAR(f[static_cast<std::size_t>(i)][d], -(ep - em) / (2 * h),
                  2e-2);
    }
  }
}

TEST(SerialPmeTest, NetForceSmallAndShrinksWithOrder) {
  // Smooth PME does not conserve momentum exactly (the B-spline
  // interpolation breaks translation invariance); the residual net force
  // must be small and must shrink rapidly with the interpolation order.
  auto sys = sysbuild::build_random_charges(30, md::Box(15, 12, 10), 5);
  auto net_force = [&](int order) {
    PmeParams params;
    params.nx = 30;
    params.ny = 24;
    params.nz = 20;
    params.beta = 0.5;
    params.order = order;
    SerialPme pme(params, sys.box);
    std::vector<Vec3> f(static_cast<std::size_t>(sys.topo.natoms()));
    pme.reciprocal(sys.topo, sys.positions, f);
    Vec3 net;
    double fmax = 0.0;
    for (const auto& v : f) {
      net += v;
      fmax = std::max(fmax, util::norm(v));
    }
    return std::pair<double, double>(util::norm(net), fmax);
  };
  const auto [net4, fmax4] = net_force(4);
  const auto [net6, fmax6] = net_force(6);
  EXPECT_LT(net4, 0.02 * fmax4);
  EXPECT_LT(net6, 0.1 * net4);
}

TEST(SerialPmeTest, TotalElectrostaticBetaIndependent) {
  // direct(erfc) + recip + self must be invariant under the split.
  auto sys = sysbuild::build_random_charges(12, md::Box(12, 12, 12), 6);
  auto total_for = [&](double beta) {
    PmeParams params;
    params.nx = 32;
    params.ny = 32;
    params.nz = 32;
    params.order = 6;
    params.beta = beta;
    SerialPme pme(params, sys.box);
    const auto n = static_cast<std::size_t>(sys.topo.natoms());
    std::vector<Vec3> f(n);
    double total = pme.reciprocal(sys.topo, sys.positions, f);
    total += ewald_self_energy(sys.topo, beta);
    // Direct part via the md kernel (reference path, full pair loop).
    md::NonbondedOptions opts;
    opts.cutoff = 5.9;
    opts.elec = md::NonbondedOptions::Elec::kEwaldDirect;
    opts.beta = beta;
    md::EnergyTerms e;
    md::nonbonded_energy_reference(sys.topo, sys.box, sys.positions, opts, f,
                                   e);
    return total + e.elec;
  };
  const double e1 = total_for(0.65);
  const double e2 = total_for(0.85);
  EXPECT_NEAR(e1, e2, std::abs(e1) * 5e-3 + 0.05);
}

TEST(SerialPmeTest, SpreadingConservesCharge) {
  // The k=0 mode of the spread grid is the total charge; with the net
  // charge zero the reciprocal energy is finite and the influence function
  // kills k=0 regardless. Verify via a directly constructed system with a
  // known non-zero total: Q^(0) = sum q.
  md::Topology topo(3);
  topo.atom(0).charge = 1.0;
  topo.atom(1).charge = 2.0;
  topo.atom(2).charge = -0.5;
  md::Box box(8, 8, 8);
  std::vector<Vec3> pos{{1.2, 3.4, 5.6}, {7.9, 0.1, 2.2}, {4.0, 4.0, 4.0}};
  PmeParams params;
  params.nx = 16;
  params.ny = 16;
  params.nz = 16;
  SerialPme pme(params, box);
  std::vector<Vec3> f(3);
  pme.reciprocal(topo, pos, f);  // exercises spreading internally
  // Spreading conservation is verified through the b-spline partition of
  // unity (tested above); here we check the reciprocal energy is finite
  // and forces are finite for a charged system (neutralizing background).
  for (const auto& v : f) {
    EXPECT_TRUE(std::isfinite(v.x + v.y + v.z));
  }
}

TEST(ExclusionCorrectionTest, MatchesAnalyticPair) {
  md::Topology topo(2);
  topo.atom(0).charge = 0.6;
  topo.atom(1).charge = -0.4;
  md::Bond b;
  b.i = 0;
  b.j = 1;
  topo.bonds().push_back(b);
  topo.build_exclusions();
  md::Box box(20, 20, 20);
  std::vector<Vec3> pos{{5, 5, 5}, {6.2, 5, 5}};
  std::vector<Vec3> f(2);
  const double beta = 0.4;
  const double e = ewald_exclusion_correction(topo, box, pos, beta, f);
  const double qq = units::kCoulomb * 0.6 * -0.4;
  EXPECT_NEAR(e, -qq * std::erf(beta * 1.2) / 1.2, 1e-12);
}

TEST(ExclusionCorrectionTest, ForcesMatchGradient) {
  auto sys = sysbuild::build_test_chain(8, 12);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f(n);
  const double beta = 0.34;
  ewald_exclusion_correction(sys.topo, sys.box, sys.positions, beta, f);
  const double h = 1e-6;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      std::vector<Vec3> tmp(n);
      const double ep =
          ewald_exclusion_correction(sys.topo, sys.box, plus, beta, tmp);
      const double em =
          ewald_exclusion_correction(sys.topo, sys.box, minus, beta, tmp);
      EXPECT_NEAR(f[static_cast<std::size_t>(i)][d], -(ep - em) / (2 * h),
                  1e-4);
    }
  }
}

TEST(ExclusionCorrectionTest, ShardsPartition) {
  auto sys = sysbuild::build_test_chain(16, 8);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> full(n);
  const double efull = ewald_exclusion_correction(sys.topo, sys.box,
                                                  sys.positions, 0.34, full);
  std::vector<Vec3> acc(n);
  double eacc = 0.0;
  for (int shard = 0; shard < 4; ++shard) {
    eacc += ewald_exclusion_correction(sys.topo, sys.box, sys.positions,
                                       0.34, acc, shard, 4);
  }
  EXPECT_NEAR(eacc, efull, 1e-10);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(util::norm(acc[i] - full[i]), 0.0, 1e-10);
  }
}

// PME error vs. the exact k-space sum must fall as the mesh refines and as
// the interpolation order rises.
TEST(SerialPmeTest, AccuracyConvergesWithGridAndOrder) {
  auto sys = sysbuild::build_random_charges(16, md::Box(10, 10, 10), 44);
  const double beta = 0.45;
  EwaldRefOptions opts;
  opts.beta = beta;
  opts.kmax = 12;
  const double exact =
      ewald_reference(sys.topo, sys.box, sys.positions, opts).reciprocal;

  auto error_for = [&](std::size_t n, int order) {
    PmeParams params;
    params.nx = n;
    params.ny = n;
    params.nz = n;
    params.order = order;
    params.beta = beta;
    SerialPme pme(params, sys.box);
    std::vector<Vec3> f(static_cast<std::size_t>(sys.topo.natoms()));
    return std::abs(pme.reciprocal(sys.topo, sys.positions, f) - exact);
  };

  const double coarse = error_for(10, 4);
  const double fine = error_for(20, 4);
  const double finer = error_for(32, 4);
  EXPECT_LT(fine, coarse);
  EXPECT_LT(finer, fine);
  // Higher order at a fixed (adequate) mesh is more accurate.
  EXPECT_LT(error_for(20, 6), error_for(20, 4) * 1.01);
  // And the finest result is genuinely accurate.
  EXPECT_LT(finer, std::abs(exact) * 1e-3 + 1e-4);
}

// --- scalar oracle --------------------------------------------------------------
//
// The per-atom scalar form of SerialPme::reciprocal, kept as the bit-exact
// reference for its batched path: one AtomSpline per atom, spreading into
// and interpolating from the Complex grid directly, and the influence
// factor recomputed per k-space point by a per-call functor instead of
// read from influence_table().

struct AtomSpline {
  int k0[3];
  double w[3][kMaxOrder];
  double dw[3][kMaxOrder];
};

double frac_coord(double x, double box_len, std::size_t n) {
  double u = x / box_len * static_cast<double>(n);
  u -= std::floor(u / static_cast<double>(n)) * static_cast<double>(n);
  if (u >= static_cast<double>(n)) u -= static_cast<double>(n);
  return u;
}

AtomSpline make_spline(const PmeParams& p, const md::Box& box,
                       const Vec3& r) {
  AtomSpline s;
  const double lens[3] = {box.lx(), box.ly(), box.lz()};
  const std::size_t dims[3] = {p.nx, p.ny, p.nz};
  const double coords[3] = {r.x, r.y, r.z};
  for (int d = 0; d < 3; ++d) {
    const double u = frac_coord(coords[d], lens[d], dims[d]);
    const double k0 = std::floor(u);
    s.k0[d] = static_cast<int>(k0);
    bspline_weights(p.order, u - k0, s.w[d], s.dw[d]);
  }
  return s;
}

std::size_t line(const AtomSpline& s, int d, int j, std::size_t n) {
  int k = s.k0[d] - j;
  if (k < 0) k += static_cast<int>(n);
  return static_cast<std::size_t>(k);
}

// Influence factor of wavevector (mx, my, mz), recomputed on every call.
struct Influence {
  Influence(const PmeParams& p, const md::Box& box)
      : p_(p),
        box_(box),
        bx_(bspline_moduli(p.nx, p.order)),
        by_(bspline_moduli(p.ny, p.order)),
        bz_(bspline_moduli(p.nz, p.order)) {}

  double operator()(std::size_t mx, std::size_t my, std::size_t mz) const {
    if (mx == 0 && my == 0 && mz == 0) return 0.0;
    auto wrap = [](std::size_t m, std::size_t n) {
      const auto mi = static_cast<double>(m);
      return m > n / 2 ? mi - static_cast<double>(n) : mi;
    };
    const double hx = wrap(mx, p_.nx) / box_.lx();
    const double hy = wrap(my, p_.ny) / box_.ly();
    const double hz = wrap(mz, p_.nz) / box_.lz();
    const double m2 = hx * hx + hy * hy + hz * hz;
    const double pi = std::numbers::pi;
    const double expo = std::exp(-pi * pi * m2 / (p_.beta * p_.beta));
    return units::kCoulomb / (pi * box_.volume()) * expo / m2 * bx_[mx] *
           by_[my] * bz_[mz];
  }

 private:
  PmeParams p_;
  md::Box box_;
  std::vector<double> bx_, by_, bz_;
};

// `slab_order` visits k-space z-outermost and x-innermost, as ParallelPme
// does on its [z][y][x] slab; otherwise x-outermost, as SerialPme does.
double oracle_reciprocal(const PmeParams& params, const md::Box& box,
                         const md::Topology& topo,
                         const std::vector<Vec3>& pos,
                         std::vector<Vec3>& forces, bool slab_order = false) {
  const auto n = static_cast<std::size_t>(topo.natoms());
  const int order = params.order;
  const std::size_t nx = params.nx, ny = params.ny, nz = params.nz;
  std::vector<AtomSpline> splines(n);
  for (std::size_t i = 0; i < n; ++i) {
    splines[i] = make_spline(params, box, pos[i]);
  }
  std::vector<fft::Complex> grid(nx * ny * nz, fft::Complex(0, 0));
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    const AtomSpline& s = splines[i];
    for (int jx = 0; jx < order; ++jx) {
      const std::size_t kx = line(s, 0, jx, nx);
      for (int jy = 0; jy < order; ++jy) {
        const std::size_t ky = line(s, 1, jy, ny);
        const double wxy = q * s.w[0][jx] * s.w[1][jy];
        for (int jz = 0; jz < order; ++jz) {
          const std::size_t kz = line(s, 2, jz, nz);
          grid[(kx * ny + ky) * nz + kz] += wxy * s.w[2][jz];
        }
      }
    }
  }
  const fft::Fft3D fft(nx, ny, nz);
  fft.forward(grid.data());
  const Influence fac(params, box);
  const auto K = static_cast<double>(grid.size());
  double energy = 0.0;
  const auto visit = [&](std::size_t mx, std::size_t my, std::size_t mz) {
    const std::size_t idx = (mx * ny + my) * nz + mz;
    const double f = fac(mx, my, mz);
    energy += 0.5 * f * std::norm(grid[idx]);
    grid[idx] *= f * K;
  };
  for (std::size_t a = 0; a < (slab_order ? nz : nx); ++a) {
    for (std::size_t my = 0; my < ny; ++my) {
      for (std::size_t c = 0; c < (slab_order ? nx : nz); ++c) {
        slab_order ? visit(c, my, a) : visit(a, my, c);
      }
    }
  }
  fft.inverse(grid.data());
  const double sx = static_cast<double>(nx) / box.lx();
  const double sy = static_cast<double>(ny) / box.ly();
  const double sz = static_cast<double>(nz) / box.lz();
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    const AtomSpline& s = splines[i];
    Vec3 f{};
    for (int jx = 0; jx < order; ++jx) {
      const std::size_t kx = line(s, 0, jx, nx);
      for (int jy = 0; jy < order; ++jy) {
        const std::size_t ky = line(s, 1, jy, ny);
        for (int jz = 0; jz < order; ++jz) {
          const std::size_t kz = line(s, 2, jz, nz);
          const double phi = grid[(kx * ny + ky) * nz + kz].real();
          f.x += s.dw[0][jx] * s.w[1][jy] * s.w[2][jz] * phi;
          f.y += s.w[0][jx] * s.dw[1][jy] * s.w[2][jz] * phi;
          f.z += s.w[0][jx] * s.w[1][jy] * s.dw[2][jz] * phi;
        }
      }
    }
    forces[i] -= Vec3{f.x * sx, f.y * sy, f.z * sz} * q;
  }
  return energy;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

struct OracleCase {
  std::size_t nx, ny, nz;
  int order;
  double beta;
};

class SerialPmeOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SerialPmeOracleTest, BitIdenticalToScalarOracle) {
  const OracleCase c = GetParam();
  const auto sys = sysbuild::build_water_box(6);
  const PmeParams params{c.nx, c.ny, c.nz, c.order, c.beta};
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> want(n, Vec3{}), got(n, Vec3{});
  const double e_want =
      oracle_reciprocal(params, sys.box, sys.topo, sys.positions, want);
  SerialPme pme(params, sys.box);
  PmeWork work;
  const double e_got = pme.reciprocal(sys.topo, sys.positions, got, &work);
  EXPECT_TRUE(same_bits(e_got, e_want)) << e_got << " vs " << e_want;
  EXPECT_TRUE(same_bits(got, want));
  const auto order3 = static_cast<std::size_t>(c.order * c.order * c.order);
  EXPECT_EQ(work.atoms_spread, n);
  EXPECT_EQ(work.stencil_points, 2 * n * order3);
  EXPECT_EQ(work.mesh_points, c.nx * c.ny * c.nz);
  EXPECT_EQ(work.fft_flops, 2.0 * fft::Fft3D(c.nx, c.ny, c.nz).flops());
}

// The paper's spline order on a cubic grid, and order 6 on a grid whose
// stencils wrap on every axis.
INSTANTIATE_TEST_SUITE_P(Grids, SerialPmeOracleTest,
                         ::testing::Values(OracleCase{32, 32, 32, 4, 0.34},
                                           OracleCase{20, 24, 20, 6, 0.30}));

// ParallelPme on one rank spreads, transforms and interpolates exactly as
// the oracle does; only its k-space visit order is the slab's [z][y][x].
TEST(ParallelPmeOracleTest, OneRankBitIdenticalToScalarOracle) {
  const auto sys = sysbuild::build_water_box(6);
  const PmeParams params{20, 24, 16, 4, 0.34};
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> want(n, Vec3{}), got(n, Vec3{});
  const double e_want = oracle_reciprocal(params, sys.box, sys.topo,
                                          sys.positions, want, true);
  net::ClusterConfig config;
  config.nranks = 1;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(1);
  double e_got = 0.0;
  sim::Engine engine(1);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster, recs[0]);
    middleware::MpiMiddleware mw(comm);
    ParallelPme pme(params, sys.box, mw);
    e_got = pme.reciprocal(sys.topo, sys.positions, got);
  });
  EXPECT_TRUE(same_bits(e_got, e_want)) << e_got << " vs " << e_want;
  EXPECT_TRUE(same_bits(got, want));
}

// Every table layout the PME objects build holds the per-call functor's
// exact values: the whole grid z-fastest (SerialPme), a z-slab x-fastest
// (ParallelPme), and a stage-3 pencil box z-fastest (PencilPme).
TEST(InfluenceTableTest, MatchesPerCallFunctor) {
  const md::Box box(16, 10, 12);
  const PmeParams params{20, 12, 15, 4, 0.4};
  const Influence fac(params, box);
  struct Layout {
    GridRegion k;
    bool x_fastest;
  };
  for (const Layout& l :
       {Layout{{0, 20, 0, 12, 0, 15}, false}, Layout{{0, 20, 0, 12, 6, 5}, true},
        Layout{{7, 6, 3, 4, 0, 15}, false}, Layout{{0, 20, 0, 12, 15, 0}, true}}) {
    const auto table = influence_table(params, box, l.k, l.x_fastest);
    ASSERT_EQ(table.size(), l.k.cx * l.k.cy * l.k.cz);
    std::size_t at = 0, mismatches = 0;
    for (std::size_t a = 0; a < (l.x_fastest ? l.k.cz : l.k.cx); ++a) {
      for (std::size_t my = l.k.y0; my < l.k.y0 + l.k.cy; ++my) {
        for (std::size_t c = 0; c < (l.x_fastest ? l.k.cx : l.k.cz); ++c) {
          const double want = l.x_fastest
                                  ? fac(l.k.x0 + c, my, l.k.z0 + a)
                                  : fac(l.k.x0 + a, my, l.k.z0 + c);
          mismatches += !same_bits(table[at++], want);
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

// --- parallel PME ---------------------------------------------------------------

class ParallelPmeTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelPmeTest, MatchesSerial) {
  const int p = GetParam();
  auto sys = sysbuild::build_random_charges(40, md::Box(16, 10, 12), 21);
  PmeParams params;
  params.nx = 20;
  params.ny = 12;
  params.nz = 16;
  params.order = 4;
  params.beta = 0.4;

  SerialPme serial(params, sys.box);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> serial_forces(n);
  const double serial_energy =
      serial.reciprocal(sys.topo, sys.positions, serial_forces);

  net::ClusterConfig config;
  config.nranks = p;
  config.network = net::Network::kScoreGigE;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<double> energies(static_cast<std::size_t>(p));
  std::vector<std::vector<Vec3>> forces(static_cast<std::size_t>(p),
                                        std::vector<Vec3>(n));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelPme pme(params, sys.box, mw);
    energies[static_cast<std::size_t>(ctx.rank())] = pme.reciprocal(
        sys.topo, sys.positions,
        forces[static_cast<std::size_t>(ctx.rank())]);
  });

  double energy = 0.0;
  std::vector<Vec3> total(n);
  for (int r = 0; r < p; ++r) {
    energy += energies[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < n; ++i) {
      total[i] += forces[static_cast<std::size_t>(r)][i];
    }
  }
  EXPECT_NEAR(energy, serial_energy, std::abs(serial_energy) * 1e-9 + 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(util::norm(total[i] - serial_forces[i]), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelPmeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(ParallelPmeTest2, OddMixedRadixGridMatchesSerial) {
  // Odd extents on every axis: the slab FFT's odd-factor paths, the
  // B-spline moduli at odd n, and an uneven slab partition all at once.
  const int p = 3;
  auto sys = sysbuild::build_random_charges(24, md::Box(11, 9, 7), 61);
  PmeParams params;
  params.nx = 15;
  params.ny = 9;
  params.nz = 7;
  params.order = 4;
  params.beta = 0.5;

  SerialPme serial(params, sys.box);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> serial_forces(n);
  const double serial_energy =
      serial.reciprocal(sys.topo, sys.positions, serial_forces);

  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<double> energies(static_cast<std::size_t>(p));
  std::vector<std::vector<Vec3>> forces(static_cast<std::size_t>(p),
                                        std::vector<Vec3>(n));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelPme pme(params, sys.box, mw);
    energies[static_cast<std::size_t>(ctx.rank())] = pme.reciprocal(
        sys.topo, sys.positions,
        forces[static_cast<std::size_t>(ctx.rank())]);
  });

  double energy = 0.0;
  std::vector<Vec3> total(n);
  for (int r = 0; r < p; ++r) {
    energy += energies[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < n; ++i) {
      total[i] += forces[static_cast<std::size_t>(r)][i];
    }
  }
  EXPECT_NEAR(energy, serial_energy, std::abs(serial_energy) * 1e-9 + 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(util::norm(total[i] - serial_forces[i]), 0.0, 1e-8);
  }
}

TEST(ParallelPmeTest2, WorkCountersPopulated) {
  auto sys = sysbuild::build_random_charges(20, md::Box(10, 10, 10), 30);
  PmeParams params;
  params.nx = 16;
  params.ny = 16;
  params.nz = 16;
  net::ClusterConfig config;
  config.nranks = 2;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(2);
  sim::Engine engine(2);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    double charged = 0.0;
    ParallelPme pme(params, sys.box, mw,
                    [&](double flops) { charged += flops; });
    PmeWork work;
    std::vector<Vec3> f(static_cast<std::size_t>(sys.topo.natoms()));
    pme.reciprocal(sys.topo, sys.positions, f, &work);
    EXPECT_GT(work.atoms_spread, 0u);
    EXPECT_GT(work.stencil_points, 0u);
    EXPECT_GT(work.mesh_points, 0u);
    EXPECT_GT(charged, 0.0);
  });
}

}  // namespace
}  // namespace repro::pme
