// Complex-to-complex FFTs (from scratch; no external FFT dependency).
//
// Fft1D is a reusable plan for a fixed size n. Any n is supported: mixed
// radix for smooth sizes (the PME grid 80 x 36 x 48 factors into 2/3/5),
// Bluestein's chirp-z algorithm for sizes with large prime factors.
// Fft3D applies 1-D plans along the three axes of a row-major
// [nx][ny][nz] grid.
//
// There is one combine path: decimation in time over a flat chain of
// per-level twiddle tables. Entry [j*n + k] of a level's table holds
// W_n^{(j*k) mod n}, copied from one root table, so the combine loop
// streams twiddles contiguously with no index arithmetic. The loop is
// written on explicit real/imaginary doubles rather than std::complex:
// std::complex's operator* carries a NaN-recovery branch (a call to
// __muldc3) that blocks vectorisation, and the inputs here are always
// finite. Each out[k] accumulates its radix terms in ascending j, starting
// from +0.0 and multiplying the j == 0 term by W^0, so every transform
// performs the classic recursive Cooley-Tukey's floating-point operations
// in the same order (tests/fft_test.cpp keeps that form as the oracle).
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
  void transform(Complex* data, bool inverse) const;
  // One decimation-in-time level into `out` (interleaved re/im doubles),
  // using `scratch` for the r sub-results. `level` indexes levels_: every
  // same-size call sits at the same depth of the radix chain, so the
  // chain is a flat vector, not a tree.
  void combine(std::size_t level, std::size_t stride, const double* in,
               double* out, double* scratch, bool inverse) const;
  void bluestein(Complex* data, bool inverse) const;

  std::size_t n_;
  // Radix-chain level tables (empty for n == 1 and for Bluestein sizes),
  // interleaved re/im: fwd[2*(j*n + k)] is Re W_n^{(j*k) mod n}; inv holds
  // the exact conjugates.
  struct Level {
    std::size_t n = 0, r = 0, m = 0;
    std::vector<double> fwd, inv;
  };
  std::vector<Level> levels_;
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
