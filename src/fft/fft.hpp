// Complex-to-complex FFTs (from scratch; no external FFT dependency).
//
// Fft1D is a reusable plan for a fixed size n. Any n is supported: mixed
// radix for smooth sizes (the PME grid 80 x 36 x 48 factors into 2/3/5),
// Bluestein's chirp-z algorithm for sizes with large prime factors.
// Fft3D applies 1-D plans along the three axes of a row-major
// [nx][ny][nz] grid.
//
// There is one radix path: iterative decimation-in-time Cooley-Tukey.
// The input is gathered once in mixed-radix digit-reversed order (index-
// reversed for the inverse, which is the forward DFT of x[(n - j) mod n]),
// then one pass per radix level runs from the leaves up, ping-ponging
// between a scratch buffer and the caller's line. Each pass multiplies
// sub-transform j by the twiddle W_n^{j*k2} and does one r-point
// butterfly per k2: explicit radix-2 and radix-4 butterflies, and one
// symmetric-pair kernel for odd radixes (unrolled for 3 and 5, table-
// driven for 7..31). Twiddles are rounded from long-double roots. The
// loops work on explicit real/imaginary doubles rather than std::complex,
// whose operator* carries a NaN-recovery branch (a call to __muldc3).
// A line's result depends only on its values and the plan, never on where
// the line sits in memory, so every 1-D and 3-D transform that hands Fft1D
// the same line gets the same bits (tests/fft_test.cpp pins both that and
// the accuracy against a long-double DFT).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace repro::fft {

using Complex = std::complex<double>;

class Fft1D {
 public:
  explicit Fft1D(std::size_t n);

  std::size_t size() const { return n_; }

  // In-place transforms. inverse() includes the 1/n scaling, so
  // inverse(forward(x)) == x.
  void forward(Complex* data) const;
  void inverse(Complex* data) const;

  // Nominal floating-point work of one transform (the classic 5 n log2 n),
  // used by the simulator's compute-cost model.
  double flops() const;

 private:
  // Radix-chain level: a transform of size n = r * m built from r
  // sub-transforms of size m (the next level). Twiddles are interleaved
  // re/im: tw[2*((j-1)*m + k2)] is Re W_n^{j*k2} for j in [1, r) (empty at
  // the leaf, m == 1); odd radixes also carry cs[2t], cs[2t+1] =
  // cos, sin of 2 pi t / r for their butterfly.
  struct Level {
    std::size_t n = 0, r = 0, m = 0;
    std::vector<double> tw, cs;
  };

  void transform(Complex* data, bool inverse) const;
  template <std::size_t R>
  static void pass(const Level& lvl, std::size_t blocks, const double* in,
                   double* out);
  void bluestein(Complex* data, bool inverse) const;

  std::size_t n_;
  // Empty for n == 1 and for Bluestein sizes; levels_[0] is the whole
  // transform, levels_.back() the leaf.
  std::vector<Level> levels_;
  // perm_[p]: the input element gathered into position p.
  std::vector<std::size_t> perm_;
  // Bluestein machinery (only allocated when needed).
  struct BluesteinPlan;
  std::shared_ptr<BluesteinPlan> blue_;
};

class Fft3D {
 public:
  Fft3D(std::size_t nx, std::size_t ny, std::size_t nz);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  std::size_t volume() const { return nx_ * ny_ * nz_; }

  // In-place transform of a row-major [nx][ny][nz] grid.
  void forward(Complex* grid) const;
  void inverse(Complex* grid) const;

  double flops() const;  // one full 3-D transform

 private:
  void axis_z(Complex* grid, bool fwd) const;
  void axis_y(Complex* grid, bool fwd) const;
  void axis_x(Complex* grid, bool fwd) const;

  std::size_t nx_, ny_, nz_;
  Fft1D fx_, fy_, fz_;
};

}  // namespace repro::fft
