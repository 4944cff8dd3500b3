#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <numbers>
#include <vector>

#include "fft/fft.hpp"
#include "fft/parallel_fft.hpp"
#include "middleware/middleware.hpp"
#include "net/cluster.hpp"
#include "perf/recorder.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace repro::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

// --- accuracy against a long-double DFT -----------------------------------

using LongComplex = std::complex<long double>;

// O(n^2) DFT in long double, with long-double twiddles: exact to well
// below double rounding for these sizes. `inverse` includes the 1/n.
std::vector<LongComplex> long_double_dft(const std::vector<Complex>& x,
                                         bool inverse) {
  const std::size_t n = x.size();
  const long double sign = inverse ? 2.0L : -2.0L;
  std::vector<LongComplex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    LongComplex acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const long double ang = sign * std::numbers::pi_v<long double> *
                              static_cast<long double>(j * k % n) /
                              static_cast<long double>(n);
      acc += LongComplex(x[j].real(), x[j].imag()) *
             LongComplex(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<long double>(n) : acc;
  }
  return out;
}

// max_k |got_k - want_k| / max_k |want_k| (the absolute error when the
// reference is all zero).
double relative_error(const std::vector<Complex>& got,
                      const std::vector<LongComplex>& want) {
  long double err = 0.0L, scale = 0.0L;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const LongComplex g(got[k].real(), got[k].imag());
    err = std::max(err, std::abs(g - want[k]));
    scale = std::max(scale, std::abs(want[k]));
  }
  return static_cast<double>(scale > 0.0L ? err / scale : err);
}

// The bound is the accuracy of the recursive combine this FFT replaced,
// measured on these sizes and inputs: at most 1.821 eps log2(n) (at n = 6;
// Bluestein sizes reached 2.3e-15). The butterfly passes measure at most
// 0.65 eps log2(n), so the bound requires the FFT to stay at least as
// accurate as the form it replaced. n == 1 is the identity: error 0.
double error_bound(std::size_t n) {
  constexpr double kOldErrorPerLog2 = 1.83;
  return kOldErrorPerLog2 * std::numeric_limits<double>::epsilon() *
         std::log2(static_cast<double>(n));
}

void expect_accurate(const Fft1D& plan, const std::vector<Complex>& x,
                     const char* what) {
  const std::size_t n = x.size();
  for (const bool inverse : {false, true}) {
    auto got = x;
    inverse ? plan.inverse(got.data()) : plan.forward(got.data());
    for (const Complex& c : got) {
      ASSERT_TRUE(std::isfinite(c.real()) && std::isfinite(c.imag()))
          << what << (inverse ? " inverse" : " forward") << " n=" << n;
    }
    EXPECT_LE(relative_error(got, long_double_dft(x, inverse)),
              error_bound(n))
        << what << (inverse ? " inverse" : " forward") << " n=" << n;
  }
}

std::vector<std::size_t> accuracy_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (std::size_t n : {80, 36, 48, 37, 97, 101}) sizes.push_back(n);
  return sizes;
}

class Fft1DAccuracyTest : public ::testing::TestWithParam<std::size_t> {};

// Random signals and unit impulses (at 0, 1 and n-1), forward and inverse.
TEST_P(Fft1DAccuracyTest, WithinOldErrorOfLongDoubleDft) {
  const std::size_t n = GetParam();
  const Fft1D plan(n);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_accurate(plan, random_signal(n, 7 + n + 1000 * seed), "random");
  }
  for (const std::size_t at : {std::size_t{0}, 1 % n, n - 1}) {
    std::vector<Complex> x(n, Complex(0, 0));
    x[at] = Complex(1, 0);
    expect_accurate(plan, x, "impulse");
  }
}

// Signed-zero inputs: all -0.0 must transform to zeros (of either sign,
// never NaN), and a sparse mix of ones and signed zeros stays accurate.
TEST_P(Fft1DAccuracyTest, SignedZeroInputs) {
  const std::size_t n = GetParam();
  const Fft1D plan(n);
  const std::vector<Complex> zeros(n, Complex(-0.0, -0.0));
  for (const bool inverse : {false, true}) {
    auto got = zeros;
    inverse ? plan.inverse(got.data()) : plan.forward(got.data());
    for (const Complex& c : got) {
      EXPECT_EQ(c.real(), 0.0) << "n=" << n << " inverse=" << inverse;
      EXPECT_EQ(c.imag(), 0.0) << "n=" << n << " inverse=" << inverse;
    }
  }
  std::vector<Complex> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (i % 2 == 0) ? 0.0 : -0.0;
    x[i] = i % 5 == 1 ? Complex(1.0, -0.0) : Complex(-z, z);
  }
  expect_accurate(plan, x, "signed-zero mix");
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1DAccuracyTest,
                         ::testing::ValuesIn(accuracy_sizes()));

class Fft1DTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Fft1D plan(n);
  auto x = random_signal(n, 10 + n);
  const auto expect = long_double_dft(x, false);
  plan.forward(x.data());
  for (std::size_t k = 0; k < n; ++k) {
    const LongComplex got(x[k].real(), x[k].imag());
    EXPECT_NEAR(static_cast<double>(std::abs(got - expect[k])), 0.0,
                1e-8 * std::sqrt(n))
        << "n=" << n << " k=" << k;
  }
}

TEST_P(Fft1DTest, RoundTrip) {
  const std::size_t n = GetParam();
  Fft1D plan(n);
  const auto orig = random_signal(n, n);
  auto x = orig;
  plan.forward(x.data());
  plan.inverse(x.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-10);
  }
}

TEST_P(Fft1DTest, ParsevalIdentity) {
  const std::size_t n = GetParam();
  Fft1D plan(n);
  auto x = random_signal(n, 3 * n + 1);
  double time_energy = 0.0;
  for (const auto& c : x) time_energy += std::norm(c);
  plan.forward(x.data());
  double freq_energy = 0.0;
  for (const auto& c : x) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1DTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 15,
                                           16, 30, 36, 48, 64, 80, 97, 101,
                                           120));

TEST(Fft1DBasicsTest, ImpulseGivesFlatSpectrum) {
  Fft1D plan(16);
  std::vector<Complex> x(16, Complex(0, 0));
  x[0] = Complex(1, 0);
  plan.forward(x.data());
  for (const auto& c : x) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1DBasicsTest, DcGivesDeltaAtZero) {
  Fft1D plan(12);
  std::vector<Complex> x(12, Complex(2, 0));
  plan.forward(x.data());
  EXPECT_NEAR(x[0].real(), 24.0, 1e-12);
  for (std::size_t k = 1; k < 12; ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-12);
  }
}

TEST(Fft1DBasicsTest, Linearity) {
  const std::size_t n = 48;
  Fft1D plan(n);
  auto a = random_signal(n, 1);
  auto b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(sum.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 0.0, 1e-9);
  }
}

TEST(Fft1DBasicsTest, FlopsEstimatePositive) {
  EXPECT_GT(Fft1D(80).flops(), 0.0);
  EXPECT_GT(Fft1D(97).flops(), Fft1D(96).flops());  // Bluestein overhead
  EXPECT_EQ(Fft1D(1).flops(), 0.0);
}

TEST(Fft1DBasicsTest, CircularShiftTheorem) {
  // x[(j - s) mod n] transforms to X[k] * exp(-2 pi i k s / n).
  const std::size_t n = 48;
  const std::size_t shift = 7;
  Fft1D plan(n);
  auto x = random_signal(n, 99);
  std::vector<Complex> shifted(n);
  for (std::size_t j = 0; j < n; ++j) shifted[(j + shift) % n] = x[j];
  plan.forward(x.data());
  plan.forward(shifted.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -2.0 * std::numbers::pi *
                       static_cast<double>(k * shift % n) /
                       static_cast<double>(n);
    const Complex phase(std::cos(ang), std::sin(ang));
    EXPECT_NEAR(std::abs(shifted[k] - x[k] * phase), 0.0, 1e-9);
  }
}

TEST(Fft1DBasicsTest, RealInputHasConjugateSymmetry) {
  const std::size_t n = 36;
  Fft1D plan(n);
  util::Rng rng(5);
  std::vector<Complex> x(n);
  for (auto& c : x) c = Complex(rng.uniform(-1, 1), 0.0);
  plan.forward(x.data());
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(std::abs(x[k] - std::conj(x[n - k])), 0.0, 1e-10);
  }
}

struct GridCase {
  std::size_t nx, ny, nz;
};

class Fft3DGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(Fft3DGridTest, RoundTripAndParseval) {
  const auto [nx, ny, nz] = GetParam();
  Fft3D plan(nx, ny, nz);
  auto grid = random_signal(nx * ny * nz, nx * 1000 + ny * 10 + nz);
  const auto orig = grid;
  double time_energy = 0.0;
  for (const auto& c : grid) time_energy += std::norm(c);
  plan.forward(grid.data());
  double freq_energy = 0.0;
  for (const auto& c : grid) freq_energy += std::norm(c);
  const auto volume = static_cast<double>(nx * ny * nz);
  EXPECT_NEAR(freq_energy, time_energy * volume,
              1e-8 * time_energy * volume);
  plan.inverse(grid.data());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(std::abs(grid[i] - orig[i]), 0.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Fft3DGridTest,
    ::testing::Values(GridCase{80, 36, 48},  // the paper's PME grid
                      GridCase{1, 1, 1}, GridCase{2, 3, 5},
                      GridCase{16, 16, 16}, GridCase{7, 9, 11},
                      GridCase{32, 4, 10}));

TEST(Fft3DTest, RoundTripPaperGrid) {
  Fft3D plan(20, 9, 12);
  auto grid = random_signal(20 * 9 * 12, 55);
  const auto orig = grid;
  plan.forward(grid.data());
  plan.inverse(grid.data());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(std::abs(grid[i] - orig[i]), 0.0, 1e-10);
  }
}

TEST(Fft3DTest, SingleModeTransformsToDelta) {
  const std::size_t nx = 8;
  const std::size_t ny = 6;
  const std::size_t nz = 10;
  Fft3D plan(nx, ny, nz);
  std::vector<Complex> grid(nx * ny * nz);
  // Plane wave exp(+2 pi i (2x/nx + y/ny + 3z/nz)) -> delta at (2,1,3)
  // under the e^{-i} forward convention.
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t z = 0; z < nz; ++z) {
        const double phase =
            2.0 * std::numbers::pi *
            (2.0 * x / nx + 1.0 * y / ny + 3.0 * z / nz);
        grid[(x * ny + y) * nz + z] =
            Complex(std::cos(phase), std::sin(phase));
      }
    }
  }
  plan.forward(grid.data());
  const double total = static_cast<double>(nx * ny * nz);
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t z = 0; z < nz; ++z) {
        const double expect =
            (x == 2 && y == 1 && z == 3) ? total : 0.0;
        EXPECT_NEAR(std::abs(grid[(x * ny + y) * nz + z]), expect, 1e-8);
      }
    }
  }
}

// --- slab partition ---------------------------------------------------------

TEST(SlabPartitionTest, CoversAllPlanes) {
  for (std::size_t n : {1u, 5u, 48u, 80u}) {
    for (int p : {1, 2, 3, 7, 8, 16}) {
      SlabPartition part(n, p);
      std::size_t covered = 0;
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(part.begin(r), covered);
        covered += part.count(r);
      }
      EXPECT_EQ(covered, n);
      for (std::size_t plane = 0; plane < n; ++plane) {
        const int owner = part.owner(plane);
        EXPECT_GE(plane, part.begin(owner));
        EXPECT_LT(plane, part.end(owner));
      }
    }
  }
}

TEST(SlabPartitionTest, BalancedWithinOne) {
  SlabPartition part(48, 7);
  std::size_t lo = 48;
  std::size_t hi = 0;
  for (int r = 0; r < 7; ++r) {
    lo = std::min(lo, part.count(r));
    hi = std::max(hi, part.count(r));
  }
  EXPECT_LE(hi - lo, 1u);
}

// --- parallel FFT -----------------------------------------------------------

class ParallelFftTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFftTest, MatchesSerial3D) {
  const int p = GetParam();
  const std::size_t nx = 20;
  const std::size_t ny = 9;
  const std::size_t nz = 12;
  auto full = random_signal(nx * ny * nz, 123);

  // Serial reference.
  auto reference = full;
  Fft3D serial(nx, ny, nz);
  serial.forward(reference.data());

  // Distributed run: forward then backward, checking both against the
  // reference and the round trip.
  net::ClusterConfig config;
  config.nranks = p;
  config.network = net::Network::kMyrinetGM;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelFft3D pfft(nx, ny, nz, mw);
    const int me = comm.rank();
    const std::size_t x0 = pfft.x_slabs().begin(me);
    const std::size_t lx = pfft.x_slabs().count(me);

    std::vector<Complex> xslab(full.begin() + static_cast<long>(x0 * ny * nz),
                               full.begin() +
                                   static_cast<long>((x0 + lx) * ny * nz));
    std::vector<Complex> zslab(pfft.z_slab_size());
    pfft.forward(xslab.data(), zslab.data());

    // Check my z-slab of k-space against the serial transform:
    // z-slab layout is [lz][ny][nx].
    const std::size_t z0 = pfft.z_slabs().begin(me);
    for (std::size_t zl = 0; zl < pfft.local_z_count(); ++zl) {
      for (std::size_t y = 0; y < ny; ++y) {
        for (std::size_t x = 0; x < nx; ++x) {
          const Complex got = zslab[(zl * ny + y) * nx + x];
          const Complex want = reference[(x * ny + y) * nz + (z0 + zl)];
          EXPECT_NEAR(std::abs(got - want), 0.0, 1e-8)
              << "p=" << p << " x=" << x << " y=" << y << " z=" << z0 + zl;
        }
      }
    }

    // Round trip back to the x-slab.
    std::vector<Complex> back(pfft.x_slab_size());
    pfft.backward(zslab.data(), back.data());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_NEAR(std::abs(back[i] - full[x0 * ny * nz + i]), 0.0, 1e-10);
    }

    // A second pass on the same slab serves all four local stages from
    // the stage memo: both outputs must be the first pass's exact bytes.
    std::vector<Complex> zslab2(zslab.size());
    std::vector<Complex> back2(back.size());
    pfft.forward(xslab.data(), zslab2.data());
    pfft.backward(zslab2.data(), back2.data());
    const auto same_bytes = [](const std::vector<Complex>& a,
                               const std::vector<Complex>& b) {
      return a.size() == b.size() &&
             (a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) ==
                  0);
    };
    EXPECT_TRUE(same_bytes(zslab2, zslab)) << "p=" << p << " rank " << me;
    EXPECT_TRUE(same_bytes(back2, back)) << "p=" << p << " rank " << me;
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelFftTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(ParallelFftTest2, OddMixedRadixGridMatchesSerial) {
  // Fully odd/mixed-radix extents: every axis hits the Bluestein/odd
  // factor paths and the slab partition is uneven on both transposed
  // dimensions.
  const std::size_t nx = 15;
  const std::size_t ny = 9;
  const std::size_t nz = 7;
  const int p = 4;
  auto full = random_signal(nx * ny * nz, 77);
  auto reference = full;
  Fft3D serial(nx, ny, nz);
  serial.forward(reference.data());

  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelFft3D pfft(nx, ny, nz, mw);
    const int me = comm.rank();
    const std::size_t x0 = pfft.x_slabs().begin(me);
    std::vector<Complex> xslab(
        full.begin() + static_cast<long>(x0 * ny * nz),
        full.begin() + static_cast<long>(pfft.x_slabs().end(me) * ny * nz));
    std::vector<Complex> zslab(pfft.z_slab_size());
    pfft.forward(xslab.data(), zslab.data());
    const std::size_t z0 = pfft.z_slabs().begin(me);
    for (std::size_t zl = 0; zl < pfft.local_z_count(); ++zl) {
      for (std::size_t y = 0; y < ny; ++y) {
        for (std::size_t x = 0; x < nx; ++x) {
          const Complex got = zslab[(zl * ny + y) * nx + x];
          const Complex want = reference[(x * ny + y) * nz + (z0 + zl)];
          EXPECT_NEAR(std::abs(got - want), 0.0, 1e-8);
        }
      }
    }
    std::vector<Complex> back(pfft.x_slab_size());
    pfft.backward(zslab.data(), back.data());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_NEAR(std::abs(back[i] - xslab[i]), 0.0, 1e-10);
    }
  });
}

TEST(ParallelFftTest2, WorksWithEmptySlabs) {
  // More ranks than z-planes: some ranks own zero planes in k-space.
  const std::size_t nx = 16;
  const std::size_t ny = 4;
  const std::size_t nz = 4;
  const int p = 8;
  auto full = random_signal(nx * ny * nz, 9);
  auto reference = full;
  Fft3D serial(nx, ny, nz);
  serial.forward(reference.data());

  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelFft3D pfft(nx, ny, nz, mw);
    const int me = comm.rank();
    const std::size_t x0 = pfft.x_slabs().begin(me);
    std::vector<Complex> xslab(
        full.begin() + static_cast<long>(x0 * ny * nz),
        full.begin() +
            static_cast<long>(pfft.x_slabs().end(me) * ny * nz));
    std::vector<Complex> zslab(pfft.z_slab_size());
    std::vector<Complex> back(pfft.x_slab_size());
    pfft.forward(xslab.data(), zslab.data());
    pfft.backward(zslab.data(), back.data());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_NEAR(std::abs(back[i] - xslab[i]), 0.0, 1e-10);
    }
  });
}

TEST(ParallelFftTest2, ChargesComputeTime) {
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
    ParallelFft3D pfft(12, 6, 8, mw,
                       [&](double flops) { charged += flops; });
    std::vector<Complex> x(pfft.x_slab_size());
    std::vector<Complex> z(pfft.z_slab_size());
    pfft.forward(x.data(), z.data());
    EXPECT_GT(charged, 0.0);
  });
}

// --- layout independence ----------------------------------------------------
//
// Every 3-D transform runs Fft1D line by line, so each line it produces must
// be bit-identical to Fft1D run on that line alone, copied out of the grid
// into its own vector. decomposition_test's exact energy equalities across
// decompositions rest on this.

struct Dims {
  std::size_t nx, ny, nz;
  std::size_t at(std::size_t x, std::size_t y, std::size_t z) const {
    return (x * ny + y) * nz + z;
  }
};

// Transforms every line of the row-major [nx][ny][nz] grid along `axis`
// (0 = x, 1 = y, 2 = z), one line at a time through a fresh vector.
void transform_lines(const Dims& d, std::vector<Complex>& grid, int axis,
                     bool inverse) {
  const std::size_t len = axis == 0 ? d.nx : axis == 1 ? d.ny : d.nz;
  const std::size_t stride = axis == 0 ? d.ny * d.nz : axis == 1 ? d.nz : 1;
  const Fft1D plan(len);
  for (std::size_t x = 0; x < (axis == 0 ? 1 : d.nx); ++x) {
    for (std::size_t y = 0; y < (axis == 1 ? 1 : d.ny); ++y) {
      for (std::size_t z = 0; z < (axis == 2 ? 1 : d.nz); ++z) {
        const std::size_t base = d.at(x, y, z);
        std::vector<Complex> line(len);
        for (std::size_t i = 0; i < len; ++i) line[i] = grid[base + i * stride];
        inverse ? plan.inverse(line.data()) : plan.forward(line.data());
        for (std::size_t i = 0; i < len; ++i) grid[base + i * stride] = line[i];
      }
    }
  }
}

// The grid after transforming along `axes` in order.
std::vector<Complex> lines_reference(const Dims& d, std::vector<Complex> grid,
                                     std::initializer_list<int> axes,
                                     bool inverse) {
  for (const int axis : axes) transform_lines(d, grid, axis, inverse);
  return grid;
}

bool same_bits(const Complex& a, const Complex& b) {
  return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

// 37 is a Bluestein size; 10 x-planes and 12 z-planes leave slabs empty
// for p > 10 and p > 12.
constexpr Dims kLayoutDims{10, 37, 12};

TEST(FftLayoutTest, Fft3DLinesMatchFft1DAlone) {
  for (const Dims d : {kLayoutDims, Dims{80, 36, 48}}) {
    const auto input = random_signal(d.nx * d.ny * d.nz, 31);
    // Fft3D: forward along z, y, x; inverse along x, y, z.
    const auto fwd = lines_reference(d, input, {2, 1, 0}, false);
    const auto inv = lines_reference(d, fwd, {0, 1, 2}, true);
    const Fft3D plan(d.nx, d.ny, d.nz);
    auto grid = input;
    plan.forward(grid.data());
    EXPECT_EQ(std::memcmp(grid.data(), fwd.data(),
                          grid.size() * sizeof(Complex)),
              0)
        << d.nx << "x" << d.ny << "x" << d.nz;
    plan.inverse(grid.data());
    EXPECT_EQ(std::memcmp(grid.data(), inv.data(),
                          grid.size() * sizeof(Complex)),
              0)
        << d.nx << "x" << d.ny << "x" << d.nz;
  }
}

TEST(FftLayoutTest, SlabLinesMatchFft1DAlone) {
  const Dims d = kLayoutDims;
  const auto input = random_signal(d.nx * d.ny * d.nz, 32);
  // The slab chain transforms along z and y per x-plane, then along x;
  // backward reverses it.
  const auto fwd = lines_reference(d, input, {2, 1, 0}, false);
  const auto inv = lines_reference(d, fwd, {0, 1, 2}, true);
  for (int p = 1; p <= 16; ++p) {
    net::ClusterConfig config;
    config.nranks = p;
    net::ClusterNetwork cluster(config);
    std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
    sim::Engine engine(p);
    engine.run([&](sim::RankCtx& ctx) {
      mpi::Comm comm(ctx, cluster,
                     recs[static_cast<std::size_t>(ctx.rank())]);
      middleware::MpiMiddleware mw(comm);
      ParallelFft3D pfft(d.nx, d.ny, d.nz, mw);
      const int me = comm.rank();
      const std::size_t x0 = pfft.x_slabs().begin(me);
      const std::size_t z0 = pfft.z_slabs().begin(me);
      std::vector<Complex> xslab(
          input.begin() + static_cast<long>(d.at(x0, 0, 0)),
          input.begin() + static_cast<long>(d.at(x0, 0, 0) +
                                            pfft.x_slab_size()));
      std::vector<Complex> zslab(pfft.z_slab_size());
      pfft.forward(xslab.data(), zslab.data());
      std::size_t mismatches = 0;
      for (std::size_t zl = 0; zl < pfft.local_z_count(); ++zl) {
        for (std::size_t y = 0; y < d.ny; ++y) {
          for (std::size_t x = 0; x < d.nx; ++x) {
            mismatches += !same_bits(zslab[(zl * d.ny + y) * d.nx + x],
                                     fwd[d.at(x, y, z0 + zl)]);
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "forward p=" << p << " rank " << me;
      std::vector<Complex> back(pfft.x_slab_size());
      pfft.backward(zslab.data(), back.data());
      mismatches = 0;
      for (std::size_t i = 0; i < back.size(); ++i) {
        mismatches += !same_bits(back[i], inv[d.at(x0, 0, 0) + i]);
      }
      EXPECT_EQ(mismatches, 0u) << "backward p=" << p << " rank " << me;
    });
  }
}

TEST(FftLayoutTest, PencilLinesMatchFft1DAlone) {
  const Dims d = kLayoutDims;
  const auto input = random_signal(d.nx * d.ny * d.nz, 33);
  // The pencil chain transforms along x, y, z; backward along z, y, x.
  const auto fwd = lines_reference(d, input, {0, 1, 2}, false);
  const auto inv = lines_reference(d, fwd, {2, 1, 0}, true);
  struct Shape {
    int py, pz, nranks;
  };
  // Includes a degenerate 1 x Pz grid and an idle extra rank.
  for (const Shape sh : {Shape{1, 1, 1}, Shape{1, 4, 4}, Shape{2, 3, 6},
                         Shape{3, 4, 13}, Shape{10, 1, 10}}) {
    const PencilGrid grid(d.nx, d.ny, d.nz, sh.py, sh.pz);
    net::ClusterConfig config;
    config.nranks = sh.nranks;
    net::ClusterNetwork cluster(config);
    std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(sh.nranks));
    sim::Engine engine(sh.nranks);
    engine.run([&](sim::RankCtx& ctx) {
      const int me = ctx.rank();
      mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(me)]);
      PencilFft3D pfft(grid, comm);
      if (!grid.participates(me)) {
        pfft.forward(nullptr, nullptr, 1, 2);
        pfft.backward(nullptr, nullptr, 3, 4);
        return;
      }
      const int yc = grid.ycoord(me);
      const int zc = grid.zcoord(me);
      const std::size_t ly1 = grid.ypart.count(yc);
      const std::size_t lz1 = grid.zpart.count(zc);
      const std::size_t y0 = grid.ypart.begin(yc);
      const std::size_t z0 = grid.zpart.begin(zc);
      const std::size_t lx2 = grid.xpart.count(yc);
      const std::size_t ly3 = grid.y2part.count(zc);
      const std::size_t x2 = grid.xpart.begin(yc);
      const std::size_t y3 = grid.y2part.begin(zc);
      // Stage 1 is [ly1][lz1][nx]; stage 3 is [lx2][ly3][nz].
      std::vector<Complex> stage1(grid.stage1_size(me));
      for (std::size_t yl = 0; yl < ly1; ++yl) {
        for (std::size_t zl = 0; zl < lz1; ++zl) {
          for (std::size_t x = 0; x < d.nx; ++x) {
            stage1[(yl * lz1 + zl) * d.nx + x] =
                input[d.at(x, y0 + yl, z0 + zl)];
          }
        }
      }
      std::vector<Complex> stage3(grid.stage3_size(me));
      pfft.forward(stage1.data(), stage3.data(), 1, 2);
      std::size_t mismatches = 0;
      for (std::size_t xl = 0; xl < lx2; ++xl) {
        for (std::size_t yl = 0; yl < ly3; ++yl) {
          for (std::size_t z = 0; z < d.nz; ++z) {
            mismatches += !same_bits(stage3[(xl * ly3 + yl) * d.nz + z],
                                     fwd[d.at(x2 + xl, y3 + yl, z)]);
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "forward " << sh.py << "x" << sh.pz
                                << " rank " << me;
      std::vector<Complex> back(stage1.size());
      pfft.backward(stage3.data(), back.data(), 3, 4);
      mismatches = 0;
      for (std::size_t yl = 0; yl < ly1; ++yl) {
        for (std::size_t zl = 0; zl < lz1; ++zl) {
          for (std::size_t x = 0; x < d.nx; ++x) {
            mismatches += !same_bits(back[(yl * lz1 + zl) * d.nx + x],
                                     inv[d.at(x, y0 + yl, z0 + zl)]);
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "backward " << sh.py << "x" << sh.pz
                                << " rank " << me;
    });
  }
}

}  // namespace
}  // namespace repro::fft
