#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace repro::fft {

namespace {

// Factor n into small radixes (largest useful radix first keeps recursion
// shallow). Returns empty when a prime factor > 31 remains, signalling the
// Bluestein path.
std::vector<std::size_t> factorize(std::size_t n) {
  std::vector<std::size_t> factors;
  for (std::size_t radix : {8, 4, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}) {
    while (n % radix == 0) {
      factors.push_back(radix);
      n /= radix;
    }
    if (n == 1) break;
  }
  if (n != 1) return {};
  return factors;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

struct Fft1D::BluesteinPlan {
  explicit BluesteinPlan(std::size_t n)
      : m(next_pow2(2 * n - 1)), fft_m(m), chirp(n), b_fwd(m), b_inv(m) {
    // chirp[k] = exp(-i pi k^2 / n); the quadratic phase of the chirp-z
    // identity jk = (j^2 + k^2 - (k-j)^2) / 2.
    for (std::size_t k = 0; k < n; ++k) {
      // k^2 mod 2n keeps the angle argument small for large n.
      const auto k2 = static_cast<double>((k * k) % (2 * n));
      const double angle = std::numbers::pi * k2 / static_cast<double>(n);
      chirp[k] = Complex(std::cos(angle), -std::sin(angle));
    }
    // b[j] = conj(chirp[|j|]) zero-padded and wrapped, pre-transformed.
    std::vector<Complex> b(m, Complex(0, 0));
    for (std::size_t k = 0; k < n; ++k) {
      b[k] = std::conj(chirp[k]);
      if (k > 0) b[m - k] = std::conj(chirp[k]);
    }
    b_fwd = b;
    fft_m.forward(b_fwd.data());
    // For the inverse transform the chirp conjugates; precompute that too.
    std::vector<Complex> bi(m, Complex(0, 0));
    for (std::size_t k = 0; k < n; ++k) {
      bi[k] = chirp[k];
      if (k > 0) bi[m - k] = chirp[k];
    }
    b_inv = bi;
    fft_m.forward(b_inv.data());
  }

  std::size_t m;
  Fft1D fft_m;  // power-of-two helper plan (never recurses into Bluestein)
  std::vector<Complex> chirp;
  std::vector<Complex> b_fwd;
  std::vector<Complex> b_inv;
};

Fft1D::Fft1D(std::size_t n) : n_(n) {
  REPRO_REQUIRE(n >= 1, "FFT size must be positive");
  if (n == 1) return;  // identity transform; no radixes or Bluestein needed
  const std::vector<std::size_t> factors = factorize(n);
  if (factors.empty()) {
    // Large prime factor: Bluestein's chirp-z (the helper plan is a power
    // of two, so this never recurses more than one level).
    blue_ = std::make_shared<BluesteinPlan>(n);
    return;
  }
  // Root table W_n^k = exp(-2 pi i k / n); every level entry is a copy of
  // one of these values (or its conjugate, which only flips a sign bit).
  std::vector<Complex> twiddle(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n);
    twiddle[k] = Complex(std::cos(angle), std::sin(angle));
  }
  // A level of size n' takes the first radix in factorize()'s order that
  // divides it; W_{n'}^t == W_n^{t * n/n'}.
  std::size_t level_n = n;
  while (level_n > 1) {
    std::size_t r = 0;
    for (std::size_t f : factors) {
      if (level_n % f == 0) {
        r = f;
        break;
      }
    }
    REPRO_REQUIRE(r != 0, "internal: lost radix during FFT table build");
    Level lvl;
    lvl.n = level_n;
    lvl.r = r;
    lvl.m = level_n / r;
    lvl.fwd.resize(2 * r * level_n);
    lvl.inv.resize(2 * r * level_n);
    const std::size_t tw_step = n / level_n;
    for (std::size_t j = 0; j < r; ++j) {
      for (std::size_t k = 0; k < level_n; ++k) {
        const Complex w = twiddle[(j * k) % level_n * tw_step];
        const std::size_t at = 2 * (j * level_n + k);
        lvl.fwd[at] = w.real();
        lvl.fwd[at + 1] = w.imag();
        lvl.inv[at] = w.real();
        lvl.inv[at + 1] = -w.imag();
      }
    }
    levels_.push_back(std::move(lvl));
    level_n /= r;
  }
}

double Fft1D::flops() const {
  if (n_ <= 1) return 0.0;
  const double n = static_cast<double>(n_);
  double work = 5.0 * n * std::log2(n);
  if (blue_) work *= 4.0;  // three pow-2 transforms of ~2n plus chirps
  return work;
}

void Fft1D::forward(Complex* data) const { transform(data, false); }

void Fft1D::inverse(Complex* data) const {
  transform(data, true);
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) data[i] *= scale;
}

void Fft1D::transform(Complex* data, bool inverse) const {
  if (n_ == 1) return;
  if (blue_) {
    bluestein(data, inverse);
    return;
  }
  // Persistent per-thread scratch: transform() runs once per grid pencil,
  // so per-call allocation dominated small-n transforms. combine() writes
  // each sub-result fully before reading it, and the only nested transform
  // (Bluestein's helper) uses its own buffer, so reuse is safe.
  static thread_local std::vector<double> out_buf;
  static thread_local std::vector<double> scratch_buf;
  if (out_buf.size() < 2 * n_) {
    out_buf.resize(2 * n_);
    scratch_buf.resize(2 * n_);
  }
  // std::complex<double> is layout-compatible with double[2].
  auto* d = reinterpret_cast<double*>(data);
  combine(0, 1, d, out_buf.data(), scratch_buf.data(), inverse);
  std::copy(out_buf.begin(), out_buf.begin() + 2 * n_, d);
}

void Fft1D::combine(std::size_t level, std::size_t stride, const double* in,
                    double* out, double* scratch, bool inverse) const {
  const Level& lvl = levels_[level];
  const std::size_t n = lvl.n;
  const std::size_t r = lvl.r;
  const std::size_t m = lvl.m;
  // X[k2 + m*k1] = sum_j W_n^{j*(k2 + m*k1)} * Y_j[k2], accumulated in
  // ascending j from +0.0, so even signed zeros match a zero-initialised
  // accumulator. Sub-transform j handles inputs j, j+r, j+2r, ...
  const double* table = inverse ? lvl.inv.data() : lvl.fwd.data();
  if (m == 1) {
    // Leaf level: Y_j is the single input element j, so this is a direct
    // r-point DFT with the accumulator in registers.
    for (std::size_t k = 0; k < r; ++k) {
      double re = 0.0, im = 0.0;
      for (std::size_t j = 0; j < r; ++j) {
        const double tr = table[2 * (j * r + k)];
        const double ti = table[2 * (j * r + k) + 1];
        const double sr = in[2 * j * stride], si = in[2 * j * stride + 1];
        re += tr * sr - ti * si;
        im += tr * si + ti * sr;
      }
      out[2 * k] = re;
      out[2 * k + 1] = im;
    }
    return;
  }
  for (std::size_t j = 0; j < r; ++j) {
    combine(level + 1, stride * r, in + 2 * j * stride, scratch + 2 * j * m,
            out + 2 * j * m, inverse);
  }
  // j-outer/k-inner: contiguous multiply-accumulate streams. Sub-results
  // are sums started from +0.0, which round-to-nearest never leaves at
  // -0.0, so storing the j == 0 term bare equals adding it to +0.0.
  for (std::size_t j = 0; j < r; ++j) {
    const double* s = scratch + 2 * j * m;
    for (std::size_t k1 = 0; k1 < r; ++k1) {
      double* o = out + 2 * k1 * m;
      const double* t = table + 2 * (j * n + k1 * m);
      if (j == 0) {
#pragma omp simd
        for (std::size_t k2 = 0; k2 < m; ++k2) {
          const double tr = t[2 * k2], ti = t[2 * k2 + 1];
          const double sr = s[2 * k2], si = s[2 * k2 + 1];
          o[2 * k2] = tr * sr - ti * si;
          o[2 * k2 + 1] = tr * si + ti * sr;
        }
      } else {
#pragma omp simd
        for (std::size_t k2 = 0; k2 < m; ++k2) {
          const double tr = t[2 * k2], ti = t[2 * k2 + 1];
          const double sr = s[2 * k2], si = s[2 * k2 + 1];
          o[2 * k2] += tr * sr - ti * si;
          o[2 * k2 + 1] += tr * si + ti * sr;
        }
      }
    }
  }
}

void Fft1D::bluestein(Complex* data, bool inverse) const {
  const BluesteinPlan& bp = *blue_;
  const std::size_t m = bp.m;
  // Separate from transform()'s buffers: bp.fft_m's transforms below run
  // while `a` is live. The helper plan is a power of two, so it never
  // reaches this function recursively.
  static thread_local std::vector<Complex> a;
  a.assign(m, Complex(0, 0));
  for (std::size_t k = 0; k < n_; ++k) {
    const Complex c = inverse ? std::conj(bp.chirp[k]) : bp.chirp[k];
    a[k] = data[k] * c;
  }
  bp.fft_m.forward(a.data());
  const auto& b = inverse ? bp.b_inv : bp.b_fwd;
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  bp.fft_m.inverse(a.data());
  for (std::size_t k = 0; k < n_; ++k) {
    const Complex c = inverse ? std::conj(bp.chirp[k]) : bp.chirp[k];
    data[k] = a[k] * c;
  }
}

// --- 3-D -------------------------------------------------------------------

Fft3D::Fft3D(std::size_t nx, std::size_t ny, std::size_t nz)
    : nx_(nx), ny_(ny), nz_(nz), fx_(nx), fy_(ny), fz_(nz) {}

double Fft3D::flops() const {
  const auto dx = static_cast<double>(nx_);
  const auto dy = static_cast<double>(ny_);
  const auto dz = static_cast<double>(nz_);
  return dy * dz * fx_.flops() + dx * dz * fy_.flops() + dx * dy * fz_.flops();
}

void Fft3D::axis_z(Complex* grid, bool fwd) const {
  for (std::size_t x = 0; x < nx_; ++x) {
    for (std::size_t y = 0; y < ny_; ++y) {
      Complex* row = grid + (x * ny_ + y) * nz_;
      fwd ? fz_.forward(row) : fz_.inverse(row);
    }
  }
}

void Fft3D::axis_y(Complex* grid, bool fwd) const {
  std::vector<Complex> pencil(ny_);
  for (std::size_t x = 0; x < nx_; ++x) {
    for (std::size_t z = 0; z < nz_; ++z) {
      Complex* base = grid + x * ny_ * nz_ + z;
      for (std::size_t y = 0; y < ny_; ++y) pencil[y] = base[y * nz_];
      fwd ? fy_.forward(pencil.data()) : fy_.inverse(pencil.data());
      for (std::size_t y = 0; y < ny_; ++y) base[y * nz_] = pencil[y];
    }
  }
}

void Fft3D::axis_x(Complex* grid, bool fwd) const {
  std::vector<Complex> pencil(nx_);
  const std::size_t stride = ny_ * nz_;
  for (std::size_t y = 0; y < ny_; ++y) {
    for (std::size_t z = 0; z < nz_; ++z) {
      Complex* base = grid + y * nz_ + z;
      for (std::size_t x = 0; x < nx_; ++x) pencil[x] = base[x * stride];
      fwd ? fx_.forward(pencil.data()) : fx_.inverse(pencil.data());
      for (std::size_t x = 0; x < nx_; ++x) base[x * stride] = pencil[x];
    }
  }
}

void Fft3D::forward(Complex* grid) const {
  axis_z(grid, true);
  axis_y(grid, true);
  axis_x(grid, true);
}

void Fft3D::inverse(Complex* grid) const {
  axis_x(grid, false);
  axis_y(grid, false);
  axis_z(grid, false);
}

}  // namespace repro::fft
