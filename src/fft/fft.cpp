#include "fft/fft.hpp"

#include <cmath>
#include <numbers>
#include <utility>

#include "util/error.hpp"

namespace repro::fft {

namespace {

// Factor n into the radixes the passes implement. Radix 4 comes first: one
// radix-4 pass does the work of two radix-2 passes in fewer operations.
// Returns empty when a prime factor > 31 remains, signalling the Bluestein
// path.
std::vector<std::size_t> factorize(std::size_t n) {
  std::vector<std::size_t> factors;
  for (std::size_t radix : {4, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}) {
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

constexpr std::size_t kMaxRadix = 31;

// (cos, sin) of 2 pi k / n, evaluated in long double so each stored
// double is the root rounded once rather than the cosine of a rounded
// double angle.
std::pair<double, double> unit_root(std::size_t k, std::size_t n) {
  const long double angle = 2.0L * std::numbers::pi_v<long double> *
                            static_cast<long double>(k) /
                            static_cast<long double>(n);
  return {static_cast<double>(std::cos(angle)),
          static_cast<double>(std::sin(angle))};
}

// In-place forward butterflies on r values (re[j], im[j]): afterwards
// slot k holds sum_j W_r^{jk} a_j with W_r = exp(-2 pi i / r).
inline void butterfly2(double* re, double* im) {
  const double r0 = re[0], i0 = im[0];
  re[0] = r0 + re[1];
  im[0] = i0 + im[1];
  re[1] = r0 - re[1];
  im[1] = i0 - im[1];
}

inline void butterfly4(double* re, double* im) {
  const double t0r = re[0] + re[2], t0i = im[0] + im[2];
  const double t1r = re[0] - re[2], t1i = im[0] - im[2];
  const double t2r = re[1] + re[3], t2i = im[1] + im[3];
  const double t3r = re[1] - re[3], t3i = im[1] - im[3];
  re[0] = t0r + t2r;
  im[0] = t0i + t2i;
  re[2] = t0r - t2r;
  im[2] = t0i - t2i;
  // W_4 = -i: slot 1 is t1 - i t3, slot 3 is t1 + i t3.
  re[1] = t1r + t3i;
  im[1] = t1i - t3r;
  re[3] = t1r - t3i;
  im[3] = t1i + t3r;
}

// Odd r: pairs j and r - j share a cosine and flip a sine, so with
// s_j = a_j + a_{r-j} and d_j = a_j - a_{r-j} (j = 1..h, h = (r-1)/2)
//   X_k, X_{r-k} = a_0 + sum_j cos(2 pi jk/r) s_j  -/+  i sum_j sin(..) d_j
// which halves the multiplies of the plain r-point sum. `cs` holds
// (cos, sin) of 2 pi t / r for t in [0, r). R > 0 fixes r at compile time
// (the radix-3 and radix-5 butterflies); R == 0 reads it from `r`.
template <std::size_t R>
inline void butterfly_odd(double* re, double* im, std::size_t r,
                          const double* cs) {
  if constexpr (R != 0) r = R;
  const std::size_t h = (r - 1) / 2;
  double sr[kMaxRadix / 2], si[kMaxRadix / 2];
  double dr[kMaxRadix / 2], di[kMaxRadix / 2];
  for (std::size_t j = 1; j <= h; ++j) {
    sr[j - 1] = re[j] + re[r - j];
    si[j - 1] = im[j] + im[r - j];
    dr[j - 1] = re[j] - re[r - j];
    di[j - 1] = im[j] - im[r - j];
  }
  const double a0r = re[0], a0i = im[0];
  double x0r = a0r, x0i = a0i;
  for (std::size_t j = 0; j < h; ++j) {
    x0r += sr[j];
    x0i += si[j];
  }
  re[0] = x0r;
  im[0] = x0i;
  for (std::size_t k = 1; k <= h; ++k) {
    double pr = a0r, pi = a0i, qr = 0.0, qi = 0.0;
    std::size_t t = 0;  // j * k mod r
    for (std::size_t j = 0; j < h; ++j) {
      t += k;
      if (t >= r) t -= r;
      const double c = cs[2 * t], s = cs[2 * t + 1];
      pr += c * sr[j];
      pi += c * si[j];
      qr += s * dr[j];
      qi += s * di[j];
    }
    re[k] = pr + qi;
    im[k] = pi - qr;
    re[r - k] = pr - qi;
    im[r - k] = pi + qr;
  }
}

}  // namespace

// One Cooley-Tukey pass over `blocks` consecutive blocks of n = r*m
// complex values (interleaved re/im). Within a block, sub-transform j
// occupies entries [j*m, (j+1)*m); output k2 + m*k1 is the r-point DFT
// over j of W_n^{j*k2} * sub_j[k2]. Leaf passes (m == 1) skip the
// twiddles, which are all W^0 there.
template <std::size_t R>
void Fft1D::pass(const Level& lvl, std::size_t blocks, const double* in,
                 double* out) {
  const std::size_t r = R != 0 ? R : lvl.r;
  const std::size_t m = lvl.m;
  const double* tw = lvl.tw.data();
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* src = in + 2 * b * r * m;
    double* dst = out + 2 * b * r * m;
    for (std::size_t k2 = 0; k2 < m; ++k2) {
      double re[kMaxRadix], im[kMaxRadix];
      re[0] = src[2 * k2];
      im[0] = src[2 * k2 + 1];
      for (std::size_t j = 1; j < r; ++j) {
        const double xr = src[2 * (j * m + k2)];
        const double xi = src[2 * (j * m + k2) + 1];
        if (m == 1) {
          re[j] = xr;
          im[j] = xi;
        } else {
          const double wr = tw[2 * ((j - 1) * m + k2)];
          const double wi = tw[2 * ((j - 1) * m + k2) + 1];
          re[j] = xr * wr - xi * wi;
          im[j] = xr * wi + xi * wr;
        }
      }
      if constexpr (R == 2) {
        butterfly2(re, im);
      } else if constexpr (R == 4) {
        butterfly4(re, im);
      } else {
        butterfly_odd<R>(re, im, r, lvl.cs.data());
      }
      for (std::size_t k1 = 0; k1 < r; ++k1) {
        dst[2 * (k1 * m + k2)] = re[k1];
        dst[2 * (k1 * m + k2) + 1] = im[k1];
      }
    }
  }
}

struct Fft1D::BluesteinPlan {
  explicit BluesteinPlan(std::size_t n)
      : m(next_pow2(2 * n - 1)), fft_m(m), chirp(n), b_fwd(m), b_inv(m) {
    // chirp[k] = exp(-i pi k^2 / n); the quadratic phase of the chirp-z
    // identity jk = (j^2 + k^2 - (k-j)^2) / 2.
    for (std::size_t k = 0; k < n; ++k) {
      // k^2 mod 2n keeps the angle argument small for large n.
      const auto [c, s] = unit_root((k * k) % (2 * n), 2 * n);
      chirp[k] = Complex(c, -s);
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
  // Level 0 is the whole transform; each level's sub-transforms are the
  // next level, taking the radixes in factorize()'s order.
  std::size_t level_n = n;
  for (const std::size_t r : factors) {
    Level lvl;
    lvl.n = level_n;
    lvl.r = r;
    lvl.m = level_n / r;
    // tw[(j-1)*m + k2] = W_{n'}^{j*k2}; j*k2 < n' needs no reduction.
    if (lvl.m > 1) {
      lvl.tw.resize(2 * (r - 1) * lvl.m);
      for (std::size_t j = 1; j < r; ++j) {
        for (std::size_t k2 = 0; k2 < lvl.m; ++k2) {
          const auto [c, s] = unit_root(j * k2, level_n);
          const std::size_t at = 2 * ((j - 1) * lvl.m + k2);
          lvl.tw[at] = c;
          lvl.tw[at + 1] = -s;
        }
      }
    }
    if (r % 2 == 1) {
      lvl.cs.resize(2 * r);
      for (std::size_t t = 0; t < r; ++t) {
        const auto [c, s] = unit_root(t, r);
        lvl.cs[2 * t] = c;
        lvl.cs[2 * t + 1] = s;
      }
    }
    levels_.push_back(std::move(lvl));
    level_n /= r;
  }
  // Mixed-radix digit reversal: position p's digits (which sub-transform
  // it sits in at each level, weighted by the sub-transform sizes m) are
  // reread against the input strides 1, r0, r0*r1, ... at which those
  // sub-transforms take their elements.
  perm_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::size_t rest = p, idx = 0, stride = 1;
    for (const Level& lvl : levels_) {
      idx += rest / lvl.m * stride;
      rest %= lvl.m;
      stride *= lvl.r;
    }
    perm_[p] = idx;
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
  // Persistent per-thread ping-pong buffers: transform() runs once per grid
  // line, so per-call allocation dominated small-n transforms. Bluestein
  // plans return above without touching them, so the transforms of their
  // power-of-two helper never overwrite a live buffer.
  static thread_local std::vector<double> buf_a, buf_b;
  if (buf_a.size() < 2 * n_) {
    buf_a.resize(2 * n_);
    buf_b.resize(2 * n_);
  }
  // std::complex<double> is layout-compatible with double[2].
  auto* d = reinterpret_cast<double*>(data);
  // Pass i (1 = leaf, L = level 0) reads what pass i-1 wrote and writes
  // `d` when L - i is even, buf_a otherwise, so the last pass lands in `d`.
  // The gather writes buf_a, or buf_b when pass 1 writes buf_a (L even):
  // no pass reads the buffer it writes, and `d` is overwritten only after
  // the gather has read it.
  const std::size_t passes = levels_.size();
  double* const a = buf_a.data();
  double* src = passes % 2 == 0 ? buf_b.data() : a;
  // The inverse DFT is the forward DFT of x[(n - j) mod n]: fold that
  // index reversal into the gather instead of conjugating twiddles.
  for (std::size_t p = 0; p < n_; ++p) {
    const std::size_t j = perm_[p];
    const std::size_t at = inverse && j != 0 ? n_ - j : j;
    src[2 * p] = d[2 * at];
    src[2 * p + 1] = d[2 * at + 1];
  }
  for (std::size_t i = 1; i <= passes; ++i) {
    const Level& lvl = levels_[passes - i];
    double* dst = (passes - i) % 2 == 0 ? d : a;
    const std::size_t blocks = n_ / lvl.n;
    switch (lvl.r) {
      case 2: pass<2>(lvl, blocks, src, dst); break;
      case 3: pass<3>(lvl, blocks, src, dst); break;
      case 4: pass<4>(lvl, blocks, src, dst); break;
      case 5: pass<5>(lvl, blocks, src, dst); break;
      default: pass<0>(lvl, blocks, src, dst); break;
    }
    src = dst;
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
