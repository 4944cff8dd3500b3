#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
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

// O(n^2) reference DFT.
std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(j * k % n) /
                         static_cast<double>(n);
      acc += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

// --- recursive oracle -------------------------------------------------------
//
// The recursive Cooley-Tukey form Fft1D's table-driven combine replaced,
// kept here as its bit-exact reference: the same radix order, root
// twiddle table (with exact conjugates for the inverse), per-radix
// exponent counters, and a zero-initialised std::complex accumulator that
// sums the radix terms in ascending j. Bluestein sizes run the same
// chirp-z wrapper over this recursion.
class RecursiveFft {
 public:
  explicit RecursiveFft(std::size_t n) : n_(n) {
    if (n == 1) return;
    std::size_t rest = n;
    for (std::size_t radix : {8, 4, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}) {
      while (rest % radix == 0) {
        factors_.push_back(radix);
        rest /= radix;
      }
      if (rest == 1) break;
    }
    if (rest != 1) {
      factors_.clear();
      init_bluestein();
      return;
    }
    tw_.resize(n);
    tw_conj_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(n);
      tw_[k] = Complex(std::cos(angle), std::sin(angle));
      tw_conj_[k] = std::conj(tw_[k]);
    }
  }

  void forward(Complex* data) const { transform(data, +1); }
  void inverse(Complex* data) const {
    transform(data, -1);
    const double scale = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) data[i] *= scale;
  }

 private:
  void init_bluestein() {
    m_ = 1;
    while (m_ < 2 * n_ - 1) m_ <<= 1;
    helper_ = std::make_unique<RecursiveFft>(m_);
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      const auto k2 = static_cast<double>((k * k) % (2 * n_));
      const double angle = std::numbers::pi * k2 / static_cast<double>(n_);
      chirp_[k] = Complex(std::cos(angle), -std::sin(angle));
    }
    b_fwd_.assign(m_, Complex(0, 0));
    b_inv_.assign(m_, Complex(0, 0));
    for (std::size_t k = 0; k < n_; ++k) {
      b_fwd_[k] = std::conj(chirp_[k]);
      b_inv_[k] = chirp_[k];
      if (k > 0) {
        b_fwd_[m_ - k] = std::conj(chirp_[k]);
        b_inv_[m_ - k] = chirp_[k];
      }
    }
    helper_->forward(b_fwd_.data());
    helper_->forward(b_inv_.data());
  }

  void transform(Complex* data, int sign) const {
    if (n_ == 1) return;
    if (helper_) {
      std::vector<Complex> a(m_, Complex(0, 0));
      for (std::size_t k = 0; k < n_; ++k) {
        a[k] = data[k] * (sign > 0 ? chirp_[k] : std::conj(chirp_[k]));
      }
      helper_->forward(a.data());
      const auto& b = sign > 0 ? b_fwd_ : b_inv_;
      for (std::size_t i = 0; i < m_; ++i) a[i] *= b[i];
      helper_->inverse(a.data());
      for (std::size_t k = 0; k < n_; ++k) {
        data[k] = a[k] * (sign > 0 ? chirp_[k] : std::conj(chirp_[k]));
      }
      return;
    }
    std::vector<Complex> out(n_), scratch(n_);
    rec(n_, 1, data, out.data(), scratch.data(), sign);
    std::copy(out.begin(), out.end(), data);
  }

  void rec(std::size_t n, std::size_t stride, const Complex* in, Complex* out,
           Complex* scratch, int sign) const {
    std::size_t r = 0;
    for (std::size_t f : factors_) {
      if (n % f == 0) {
        r = f;
        break;
      }
    }
    const std::size_t m = n / r;
    if (m == 1) {
      for (std::size_t j = 0; j < r; ++j) scratch[j] = in[j * stride];
    } else {
      for (std::size_t j = 0; j < r; ++j) {
        rec(m, stride * r, in + j * stride, scratch + j * m, out + j * m,
            sign);
      }
    }
    const std::size_t tw_step = n_ / n;
    const Complex* tw = sign < 0 ? tw_conj_.data() : tw_.data();
    std::size_t tvals[32] = {};
    std::size_t k2 = 0;
    for (std::size_t k = 0; k < n; ++k) {
      Complex acc(0, 0);
      for (std::size_t j = 0; j < r; ++j) {
        acc += tw[tvals[j] * tw_step] * scratch[j * m + k2];
        tvals[j] += j;
        if (tvals[j] >= n) tvals[j] -= n;
      }
      out[k] = acc;
      if (++k2 == m) k2 = 0;
    }
  }

  std::size_t n_;
  std::vector<std::size_t> factors_;
  std::vector<Complex> tw_, tw_conj_;
  std::size_t m_ = 0;
  std::unique_ptr<RecursiveFft> helper_;
  std::vector<Complex> chirp_, b_fwd_, b_inv_;
};

// Byte-for-byte comparison: the plan must reproduce the oracle's doubles
// exactly, signed zeros included.
bool same_bytes(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

void expect_matches_oracle(std::size_t n, const std::vector<Complex>& x) {
  const Fft1D plan(n);
  const RecursiveFft oracle(n);
  auto got = x;
  auto want = x;
  plan.forward(got.data());
  oracle.forward(want.data());
  EXPECT_TRUE(same_bytes(got, want)) << "forward n=" << n;
  plan.inverse(got.data());
  oracle.inverse(want.data());
  EXPECT_TRUE(same_bytes(got, want)) << "inverse n=" << n;
}

std::vector<std::size_t> oracle_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (std::size_t n : {80, 36, 48, 37, 97, 101}) sizes.push_back(n);
  return sizes;
}

class Fft1DOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DOracleTest, BitIdenticalToRecursiveOracle) {
  const std::size_t n = GetParam();
  expect_matches_oracle(n, random_signal(n, 7 + n));
}

// Inputs of signed zeros (all -0.0, and a sparse mix with ones): the
// combine's zero-initialised accumulation must reproduce the oracle's
// zero signs too.
TEST_P(Fft1DOracleTest, SignedZerosMatchOracle) {
  const std::size_t n = GetParam();
  expect_matches_oracle(n, std::vector<Complex>(n, Complex(-0.0, -0.0)));
  std::vector<Complex> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (i % 2 == 0) ? 0.0 : -0.0;
    x[i] = i % 5 == 1 ? Complex(1.0, -0.0) : Complex(-z, z);
  }
  expect_matches_oracle(n, x);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1DOracleTest,
                         ::testing::ValuesIn(oracle_sizes()));

class Fft1DTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Fft1D plan(n);
  auto x = random_signal(n, 10 + n);
  const auto expect = naive_dft(x);
  plan.forward(x.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(x[k] - expect[k]), 0.0, 1e-8 * std::sqrt(n))
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

}  // namespace
}  // namespace repro::fft
