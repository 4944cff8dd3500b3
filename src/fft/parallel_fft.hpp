// Slab-decomposed parallel 3-D FFT (the PME communication kernel).
//
// The grid is distributed in x-slabs: rank r owns x-planes
// [x_begin(r), x_end(r)) of a row-major [nx][ny][nz] grid. A forward
// transform does the (y,z) 2-D FFTs locally per owned plane, then performs
// an all-to-all personalized transpose into z-slabs (layout [lz][ny][nx])
// and finishes with the x-direction FFTs. This is exactly the structure
// the paper attributes to PME: "a FFT adds a communication step with an
// all-to-all personalized communication pattern."
//
// Computation is charged through a caller-provided hook (flops -> virtual
// time); communication goes through the Middleware so the middleware factor
// of the experiment shapes the transpose.
#pragma once

#include <functional>
#include <vector>

#include "fft/fft.hpp"
#include "middleware/middleware.hpp"
#include "mpi/comm.hpp"

namespace repro::fft {

// Plane partition of n planes over p ranks: front ranks get the remainder.
struct SlabPartition {
  SlabPartition(std::size_t n, int p);

  std::size_t begin(int rank) const {
    return begins_[static_cast<std::size_t>(rank)];
  }
  std::size_t end(int rank) const {
    return begins_[static_cast<std::size_t>(rank) + 1];
  }
  std::size_t count(int rank) const { return end(rank) - begin(rank); }
  int owner(std::size_t plane) const;

 private:
  std::vector<std::size_t> begins_;
};

class ParallelFft3D {
 public:
  // `charge` converts kernel flops into simulated compute time; it may be
  // empty (tests that only check numerics).
  ParallelFft3D(std::size_t nx, std::size_t ny, std::size_t nz,
                middleware::Middleware& mw,
                std::function<void(double flops)> charge = {});

  const SlabPartition& x_slabs() const { return xpart_; }
  const SlabPartition& z_slabs() const { return zpart_; }
  std::size_t local_x_count() const { return xpart_.count(mw_.rank()); }
  std::size_t local_z_count() const { return zpart_.count(mw_.rank()); }

  // x-slab buffer: [local_x][ny][nz]; z-slab buffer: [local_z][ny][nx].
  std::size_t x_slab_size() const { return local_x_count() * ny_ * nz_; }
  std::size_t z_slab_size() const { return local_z_count() * ny_ * nx_; }

  // Forward: x-slab (real-space) -> z-slab (k-space). In-place semantics on
  // separate buffers; `zslab` must hold z_slab_size() elements.
  void forward(const Complex* xslab, Complex* zslab);
  // Backward: z-slab (k-space) -> x-slab (real-space), including the 1/N
  // normalization so backward(forward(x)) == x.
  void backward(const Complex* zslab, Complex* xslab);

 private:
  void charge(double flops) const {
    if (charge_) charge_(flops);
  }
  // The four pure local stages of forward()/backward(), memoized on their
  // exact input bytes (parallel_fft.cpp).
  enum StageId : int {
    kForwardYZ = 0,   // forward: per-plane (y,z) 2-D FFTs on the x-slab
    kForwardX = 1,    // forward: x-direction FFTs on the z-slab
    kBackwardX = 2,   // backward: inverse x FFTs on the z-slab
    kBackwardYZ = 3,  // backward: per-plane inverse (y,z) FFTs on the x-slab
  };
  // Writes `kernel` applied in place to a copy of the `count` elements at
  // `in` into `out` (which may be `in`), or the stored result for the same
  // stage and input bytes.
  void run_stage(StageId stage, const Complex* in, Complex* out,
                 std::size_t count,
                 const std::function<void(Complex*)>& kernel);
  // Packs my x-slab into per-destination blocks ordered (z, y, x) and
  // exchanges; unpacks into the z-slab layout. `forward` direction.
  void transpose_xz(const Complex* xslab, Complex* zslab);
  void transpose_zx(const Complex* zslab, Complex* xslab);

  std::size_t nx_, ny_, nz_;
  middleware::Middleware& mw_;
  std::function<void(double)> charge_;
  SlabPartition xpart_;
  SlabPartition zpart_;
  Fft1D fx_, fy_, fz_;
  std::vector<Complex> sendbuf_;
  std::vector<Complex> recvbuf_;
};

// --- 2-D pencil decomposition -----------------------------------------------
//
// The slab transform above runs out of parallelism at p = min(nx, nz)
// ranks and its transpose is a full p x p all-to-all. The pencil plan
// distributes the grid over a Py x Pz process grid instead (the
// GROMACS-era fix for the PME wall): rank q < Py*Pz sits at pencil
// coordinate (yc, zc) = (q / Pz, q % Pz) and the transform moves through
// three 1-D stages, each followed by a transpose confined to one row or
// column of the process grid:
//
//   stage 1 (x-pencils): owns y in Yp(yc), z in Zp(zc), all x
//       local 1-D FFTs along x
//   == X<->Y transpose, Py-rank group sharing zc, pairwise rounds ==
//   stage 2 (y-pencils): owns x in Xp(yc), z in Zp(zc), all y
//       local 1-D FFTs along y
//   == Y<->Z transpose, Pz-rank group sharing yc, pairwise rounds ==
//   stage 3 (z-pencils): owns x in Xp(yc), y in Y2p(zc), all z
//       local 1-D FFTs along z
//
// so each transpose exchanges only 1/Pz (or 1/Py) of the grid in groups
// of Py (or Pz) ranks, instead of the slab's whole-grid p x p exchange.
// Ranks >= Py*Pz own nothing and all calls no-op on them.
struct PencilGrid {
  PencilGrid(std::size_t nx, std::size_t ny, std::size_t nz, int py, int pz);

  std::size_t nx, ny, nz;
  int py, pz;
  SlabPartition ypart;   // ny planes over the Py process-grid rows
  SlabPartition zpart;   // nz planes over the Pz process-grid columns
  SlabPartition xpart;   // nx planes over Py (stage-2/3 x ownership)
  SlabPartition y2part;  // ny planes over Pz (stage-3 y ownership)

  bool participates(int rank) const { return rank < py * pz; }
  int ycoord(int rank) const { return rank / pz; }
  int zcoord(int rank) const { return rank % pz; }
  int rank_of(int yc, int zc) const { return yc * pz + zc; }

  // Per-rank stage extents (all zero for non-participants).
  // Stage-1 buffer layout: [ly1][lz1][nx], x contiguous.
  std::size_t stage1_size(int rank) const;
  // Stage-2 buffer layout: [lx2][lz1][ny], y contiguous.
  std::size_t stage2_size(int rank) const;
  // Stage-3 buffer layout: [lx2][ly3][nz], z contiguous.
  std::size_t stage3_size(int rank) const;
};

// Pencil-decomposed 3-D FFT over the raw Comm (the decomposition's
// explicit-tag schedule idiom: the caller owns the tag space, so the
// predictor can pin every message). No memoization — pencil stages are
// cheap per rank and the buffers differ per pencil coordinate.
class PencilFft3D {
 public:
  PencilFft3D(const PencilGrid& grid, mpi::Comm& comm,
              std::function<void(double flops)> charge = {});

  const PencilGrid& grid() const { return grid_; }

  // Forward: stage-1 x-pencils (real space) -> stage-3 z-pencils
  // (k-space). `tag_xy` / `tag_yz` tag the two transposes' messages.
  void forward(const Complex* stage1, Complex* stage3, int tag_xy,
               int tag_yz);
  // Backward: stage-3 -> stage-1, including the 1/N normalization so
  // backward(forward(x)) == x.
  void backward(const Complex* stage3, Complex* stage1, int tag_zy,
                int tag_yx);

  // The four grouped pairwise transposes, public for the property-test
  // harness. Buffers use the stage layouts documented on PencilGrid.
  void transpose_xy(const Complex* stage1, Complex* stage2, int tag);
  void transpose_yx(const Complex* stage2, Complex* stage1, int tag);
  void transpose_yz(const Complex* stage2, Complex* stage3, int tag);
  void transpose_zy(const Complex* stage3, Complex* stage2, int tag);

  // Total 1-D FFT flops this rank charges for one forward (== one
  // backward) pass; the predictor's compute model uses the same value.
  double local_fft_flops() const;

 private:
  void charge(double flops) const {
    if (charge_) charge_(flops);
  }

  PencilGrid grid_;
  mpi::Comm& comm_;
  std::function<void(double)> charge_;
  Fft1D fx_, fy_, fz_;
  std::vector<Complex> sendbuf_;
  std::vector<Complex> recvbuf_;
};

}  // namespace repro::fft
