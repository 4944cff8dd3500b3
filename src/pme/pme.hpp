// Smooth particle-mesh Ewald (Essmann et al., J. Chem. Phys. 103:8577).
//
// The total electrostatic energy under PME is
//   E = E_direct (erfc, in the short-range non-bonded loop)
//     + E_reciprocal (charge mesh + 3-D FFT convolution, here)
//     + E_self + E_exclusion-correction (analytic, here).
//
// Three implementations share the spline/influence machinery:
//  - SerialPme: full grid + sequential 3-D FFT (reference, examples).
//  - ParallelPme: x-slab decomposition on top of ParallelFft3D; the only
//    communication is the two all-to-all personalized transposes inside
//    the forward/backward FFTs, matching the structure in the paper's
//    Figure 2. Per-rank partial energies/forces are combined by the
//    caller's global reduction (the classic part's collective).
//  - PencilPme: the charge grid over a Py x Pz pencil process grid fed by
//    the spatial decomposition (below).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "fft/fft.hpp"
#include "fft/parallel_fft.hpp"
#include "md/box.hpp"
#include "md/topology.hpp"
#include "util/kernel.hpp"
#include "util/vec3.hpp"

namespace repro::pme {

struct PmeParams {
  std::size_t nx = 32, ny = 32, nz = 32;
  int order = 4;       // B-spline interpolation order
  double beta = 0.34;  // Ewald splitting parameter (1/Å)
};

// Work counters for the simulator's compute-cost model.
struct PmeWork {
  std::size_t atoms_spread = 0;       // atoms this rank spread/interpolated
  std::size_t stencil_points = 0;     // grid points touched (spread+interp)
  std::size_t mesh_points = 0;        // k-space points convolved
  double fft_flops = 0.0;
};

// E_self = -kCoulomb * beta/sqrt(pi) * sum q_i^2.
double ewald_self_energy(const md::Topology& topo, double beta);

// Correction for excluded pairs (whose full interaction is contained in the
// mesh term): subtracts kCoulomb q_i q_j erf(beta r)/r with forces. Shard
// semantics as in the md kernels. Returns the energy contribution.
double ewald_exclusion_correction(const md::Topology& topo,
                                  const md::Box& box,
                                  const std::vector<util::Vec3>& pos,
                                  double beta,
                                  std::vector<util::Vec3>& forces,
                                  int shard = 0, int stride = 1);

// Spatial-decomposition variant: only pairs whose FIRST atom has
// owned_mask set are corrected (excluded pairs are bonded-graph local, so
// the partner is always resident as owned or ghost). Disjoint masks
// partition the pair set exactly as shard/stride does for the replicated
// kernels.
double ewald_exclusion_correction_owned(
    const md::Topology& topo, const md::Box& box,
    const std::vector<util::Vec3>& pos,
    const std::vector<std::uint8_t>& owned_mask, double beta,
    std::vector<util::Vec3>& forces);

class SerialPme {
 public:
  SerialPme(const PmeParams& params, const md::Box& box);
  // SerialPme has one kernel path; this overload accepts and ignores the
  // kernel variant for callers that still pass it (perfbench's probe).
  SerialPme(const PmeParams& params, const md::Box& box, util::KernelKind)
      : SerialPme(params, box) {}

  // Computes the reciprocal-space energy and accumulates forces on all
  // atoms. Positions may lie outside the box (wrapped internally).
  double reciprocal(const md::Topology& topo,
                    const std::vector<util::Vec3>& pos,
                    std::vector<util::Vec3>& forces, PmeWork* work = nullptr);

  const PmeParams& params() const { return params_; }

 private:
  PmeParams params_;
  md::Box box_;
  fft::Fft3D fft_;
  std::vector<double> influence_;  // influence_table() of the whole grid
  std::vector<fft::Complex> grid_;
  // Real staging grid and SoA spline data per dimension.
  std::vector<double> rgrid_;
  std::vector<double> sw_[3], sdw_[3], sfrac_[3];
  std::vector<int> sk0_[3];
};

// --- Pencil-decomposed PME --------------------------------------------------

// A wrapped box of grid planes: the axis-aligned region of the charge
// grid one spatial rank's atoms can touch. Each dimension is an interval
// [start, start+count) taken modulo n (count == n means the whole
// dimension). Empty when any count is zero (a rank that owns no cells).
struct GridRegion {
  std::size_t x0 = 0, cx = 0;
  std::size_t y0 = 0, cy = 0;
  std::size_t z0 = 0, cz = 0;

  bool empty() const { return cx == 0 || cy == 0 || cz == 0; }
  bool operator==(const GridRegion&) const = default;
};

// Influence factor of every wavevector in the k-space box `k` (read
// without wrap), in the order a convolution visits it: [x][y][z], z
// fastest, or with `x_fastest` [z][y][x]. Each value is
//   kCoulomb/(pi V) * exp(-pi^2 mhat^2 / beta^2) / mhat^2 * B(m)
// (0 at m = 0), the multiplier applied to |Q^(m)|^2 / 2 for the energy
// (Essmann eq. 4.7). Box and parameters are fixed per PME object, so each
// builds its table once at construction.
std::vector<double> influence_table(const PmeParams& p, const md::Box& box,
                                    const GridRegion& k, bool x_fastest);

// Number of k in [0, count) whose wrapped plane index (start + k) mod n
// falls in [b, e). The block-size primitive shared by the pencil plane
// exchange and the predictor that pins it.
std::size_t wrapped_overlap(std::size_t start, std::size_t count,
                            std::size_t n, std::size_t b, std::size_t e);

// A run of consecutive region-local indices [local, local+len) whose
// wrapped planes are [plane, plane+len).
struct PlaneRun {
  std::size_t local = 0, plane = 0, len = 0;
};

// The block of one region that lands on one stage-1 pencil: the region's
// whole x extent times its y and z member runs (at most two each, since a
// wrapped interval no longer than its dimension crosses the seam at most
// once). for_each() visits the block's points in region-local (x, y, z)
// order — the order every plane-exchange message is packed in — calling
// f(region_index, stage1_index) with indices into the region's
// [cx][cy][cz] buffer and the pencil owner's [ly1][lz1][nx] stage-1
// buffer. Host work is proportional to the block, not the region.
struct PlaneBlock {
  std::size_t x0 = 0, cx = 0, cy = 0, cz = 0, nx = 0;  // region x / strides
  std::size_t yb = 0, zb = 0, lz1 = 0;  // owner's stage-1 origin, z extent
  PlaneRun y[2], z[2];
  int ny_runs = 0, nz_runs = 0;

  std::size_t size() const;

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t xl = 0; xl < cx; ++xl) {
      const std::size_t x = x0 + xl < nx ? x0 + xl : x0 + xl - nx;
      for (int a = 0; a < ny_runs; ++a) {
        for (std::size_t k = 0; k < y[a].len; ++k) {
          const std::size_t row = xl * cy + y[a].local + k;
          const std::size_t prow = y[a].plane + k - yb;
          for (int b = 0; b < nz_runs; ++b) {
            const std::size_t ri = row * cz + z[b].local;
            const std::size_t pi = (prow * lz1 + z[b].plane - zb) * nx + x;
            for (std::size_t i = 0; i < z[b].len; ++i) f(ri + i, pi + i * nx);
          }
        }
      }
    }
  }
};

// The block of `reg` that pencil-grid rank q owns at stage 1 (empty when
// the region is empty or q holds no pencil). Its size() equals
// reg.cx * wrapped_overlap(y) * wrapped_overlap(z), the count the
// predictor charges.
PlaneBlock plane_block(const GridRegion& reg, const fft::PencilGrid& g,
                       int q);

// Pencil-parallel PME: the charge grid is distributed over a Py x Pz
// pencil process grid (fft::PencilGrid) and the spatial decomposition
// feeds it locally instead of replicating positions:
//
//   spread (owned atoms -> my region planes)
//   == charge plane exchange: region blocks -> stage-1 pencil owners ==
//   pencil forward FFT (X -> Y -> Z with grouped pairwise transposes)
//   convolution + partial energy over my stage-3 pencils
//   pencil backward FFT
//   == potential plane exchange: stage-1 owners -> region blocks ==
//   interpolate forces for owned atoms (whole stencil is in-region)
//
// Regions are static for a run (the cell -> rank map never changes), so
// the message schedule is a fixed function of the layout and the
// predictor can pin it exactly. Runs over the raw Comm with a
// caller-owned tag base, like the decomposition's other schedules.
class PencilPme {
 public:
  // `regions[r]` is rank r's spread/interpolation region (empty for
  // cell-less ranks); every rank passes the same vector. `py * pz` ranks
  // participate in the FFT; the rest only ship their region blocks.
  PencilPme(const PmeParams& params, const md::Box& box, mpi::Comm& comm,
            int py, int pz, std::vector<GridRegion> regions,
            std::function<void(double flops)> charge_compute = {});

  // Reciprocal sum for the owned atoms. Returns this rank's partial
  // energy (each wavevector is counted on exactly one stage-3 owner);
  // forces on owned atoms are complete — no reciprocal-force reduction
  // is needed. Uses tags tag_base + 0..5: charge plane exchange, X->Y
  // and Y->Z forward transposes, Z->Y and Y->X backward transposes,
  // potential plane exchange.
  double reciprocal(const md::Topology& topo,
                    const std::vector<util::Vec3>& pos,
                    const std::vector<int>& owned,
                    std::vector<util::Vec3>& forces, int tag_base,
                    PmeWork* work = nullptr);

  const PmeParams& params() const { return params_; }
  const fft::PencilGrid& grid() const { return pfft_.grid(); }
  const GridRegion& my_region() const {
    return regions_[static_cast<std::size_t>(comm_.rank())];
  }

 private:
  void charge(double flops) const {
    if (charge_) charge_(flops);
  }
  // Region blocks <-> stage-1 pencil slabs. `gather` accumulates charges
  // into stage-1 (+=); `scatter` returns potentials into the region (=).
  void exchange_charges(int tag);
  void return_potential(int tag);

  PmeParams params_;
  md::Box box_;
  mpi::Comm& comm_;
  std::function<void(double)> charge_;
  fft::PencilFft3D pfft_;
  std::vector<GridRegion> regions_;
  std::vector<double> influence_;      // of my stage-3 pencils (z fastest)
  std::vector<double> region_;         // [cx][cy][cz] charges / potentials
  std::vector<fft::Complex> stage1_;   // [ly1][lz1][nx]
  std::vector<fft::Complex> stage3_;   // [lx2][ly3][nz]
  std::vector<double> msgbuf_;         // plane-exchange pack/unpack scratch
};

class ParallelPme {
 public:
  // `charge_compute` converts flops to simulated time (may be empty).
  ParallelPme(const PmeParams& params, const md::Box& box,
              middleware::Middleware& mw,
              std::function<void(double flops)> charge_compute = {});

  // Slab-parallel reciprocal sum. Returns this rank's *partial* energy;
  // forces accumulated are partial too — both become total after the
  // caller's global sum. Work counters let the caller charge spread/
  // interpolation cost (FFT cost is charged internally via the hook).
  double reciprocal(const md::Topology& topo,
                    const std::vector<util::Vec3>& pos,
                    std::vector<util::Vec3>& forces, PmeWork* work = nullptr);

  const PmeParams& params() const { return params_; }

 private:
  PmeParams params_;
  md::Box box_;
  middleware::Middleware& mw_;
  std::function<void(double)> charge_;
  fft::ParallelFft3D pfft_;
  std::vector<double> influence_;  // of my z-slab, [lz][ny][nx]
  std::vector<fft::Complex> xslab_;
  std::vector<fft::Complex> zslab_;
};

}  // namespace repro::pme
