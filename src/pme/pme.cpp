#include "pme/pme.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "pme/bspline.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace repro::pme {

namespace {

using md::Box;
using md::Topology;
using util::Vec3;

// Per-atom spline data in the three dimensions.
struct AtomSpline {
  int k0[3];                      // floor of the fractional grid coordinate
  double w[3][kMaxOrder];         // weights per dimension
  double dw[3][kMaxOrder];        // derivatives per dimension
};

// Fractional grid coordinate in [0, n).
double frac_coord(double x, double box_len, std::size_t n) {
  double u = x / box_len * static_cast<double>(n);
  u -= std::floor(u / static_cast<double>(n)) * static_cast<double>(n);
  if (u >= static_cast<double>(n)) u -= static_cast<double>(n);
  return u;
}

AtomSpline make_spline(const PmeParams& p, const Box& box, const Vec3& r) {
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

// Grid line index of stencil point j in dimension d.
inline std::size_t line(const AtomSpline& s, int d, int j, std::size_t n) {
  int k = s.k0[d] - j;
  if (k < 0) k += static_cast<int>(n);
  return static_cast<std::size_t>(k);
}

// Convolution + energy over one PME object's k-space points: each point
// contributes f |Q^(m)|^2 / 2 to the energy and is scaled by f K, where K
// compensates the normalized inverse so the real-space grid is the
// unnormalized convolution (the potential phi).
double convolve(const std::vector<double>& influence, fft::Complex* grid,
                double K) {
  double energy = 0.0;
  for (std::size_t i = 0; i < influence.size(); ++i) {
    const double f = influence[i];
    energy += 0.5 * f * std::norm(grid[i]);
    grid[i] *= f * K;
  }
  return energy;
}

}  // namespace

std::size_t wrapped_overlap(std::size_t start, std::size_t count,
                            std::size_t n, std::size_t b, std::size_t e) {
  if (count >= n) return e - b;  // whole dimension: plain interval size
  auto seg = [&](std::size_t s0, std::size_t s1) {
    const std::size_t lo = std::max(s0, b);
    const std::size_t hi = std::min(s1, e);
    return hi > lo ? hi - lo : std::size_t{0};
  };
  const std::size_t end = start + count;
  if (end <= n) return seg(start, end);
  return seg(start, n) + seg(0, end - n);
}

std::vector<double> influence_table(const PmeParams& p, const Box& box,
                                    const GridRegion& k, bool x_fastest) {
  const std::vector<double> bx = bspline_moduli(p.nx, p.order);
  const std::vector<double> by = bspline_moduli(p.ny, p.order);
  const std::vector<double> bz = bspline_moduli(p.nz, p.order);
  auto wrap = [](std::size_t m, std::size_t n) {
    const auto mi = static_cast<double>(m);
    return m > n / 2 ? mi - static_cast<double>(n) : mi;
  };
  auto factor = [&](std::size_t mx, std::size_t my, std::size_t mz) {
    if (mx == 0 && my == 0 && mz == 0) return 0.0;
    const double hx = wrap(mx, p.nx) / box.lx();
    const double hy = wrap(my, p.ny) / box.ly();
    const double hz = wrap(mz, p.nz) / box.lz();
    const double m2 = hx * hx + hy * hy + hz * hz;
    const double pi = std::numbers::pi;
    const double expo = std::exp(-pi * pi * m2 / (p.beta * p.beta));
    return units::kCoulomb / (pi * box.volume()) * expo / m2 * bx[mx] *
           by[my] * bz[mz];
  };
  std::vector<double> table;
  table.reserve(k.cx * k.cy * k.cz);
  if (x_fastest) {
    for (std::size_t mz = k.z0; mz < k.z0 + k.cz; ++mz) {
      for (std::size_t my = k.y0; my < k.y0 + k.cy; ++my) {
        for (std::size_t mx = k.x0; mx < k.x0 + k.cx; ++mx) {
          table.push_back(factor(mx, my, mz));
        }
      }
    }
  } else {
    for (std::size_t mx = k.x0; mx < k.x0 + k.cx; ++mx) {
      for (std::size_t my = k.y0; my < k.y0 + k.cy; ++my) {
        for (std::size_t mz = k.z0; mz < k.z0 + k.cz; ++mz) {
          table.push_back(factor(mx, my, mz));
        }
      }
    }
  }
  return table;
}

namespace {

// Runs of k in [0, count) with (start + k) mod n in [b, e), ascending k.
int wrapped_runs(std::size_t start, std::size_t count, std::size_t n,
                 std::size_t b, std::size_t e, PlaneRun* out) {
  int nruns = 0;
  auto seg = [&](std::size_t local, std::size_t p0, std::size_t p1) {
    const std::size_t lo = std::max(p0, b);
    const std::size_t hi = std::min(p1, e);
    if (hi > lo) out[nruns++] = PlaneRun{local + (lo - p0), lo, hi - lo};
  };
  const std::size_t head = std::min(count, n - start);
  seg(0, start, start + head);
  if (count > head) seg(head, 0, count - head);
  return nruns;
}

}  // namespace

std::size_t PlaneBlock::size() const {
  std::size_t ny = 0, nz = 0;
  for (int a = 0; a < ny_runs; ++a) ny += y[a].len;
  for (int b = 0; b < nz_runs; ++b) nz += z[b].len;
  return cx * ny * nz;
}

PlaneBlock plane_block(const GridRegion& reg, const fft::PencilGrid& g,
                       int q) {
  PlaneBlock blk;
  if (reg.empty() || !g.participates(q)) return blk;
  REPRO_REQUIRE(reg.x0 < g.nx && reg.cx <= g.nx && reg.y0 < g.ny &&
                    reg.cy <= g.ny && reg.z0 < g.nz && reg.cz <= g.nz,
                "PME grid region exceeds the charge grid");
  const int yc = g.ycoord(q);
  const int zc = g.zcoord(q);
  blk.x0 = reg.x0;
  blk.cx = reg.cx;
  blk.cy = reg.cy;
  blk.cz = reg.cz;
  blk.nx = g.nx;
  blk.yb = g.ypart.begin(yc);
  blk.zb = g.zpart.begin(zc);
  blk.lz1 = g.zpart.count(zc);
  blk.ny_runs = wrapped_runs(reg.y0, reg.cy, g.ny, blk.yb, g.ypart.end(yc),
                             blk.y);
  blk.nz_runs = wrapped_runs(reg.z0, reg.cz, g.nz, blk.zb, g.zpart.end(zc),
                             blk.z);
  return blk;
}

double ewald_self_energy(const Topology& topo, double beta) {
  double q2 = 0.0;
  for (int i = 0; i < topo.natoms(); ++i) {
    const double q = topo.atom(i).charge;
    q2 += q * q;
  }
  return -units::kCoulomb * beta / std::sqrt(std::numbers::pi) * q2;
}

double ewald_exclusion_correction(const Topology& topo, const Box& box,
                                  const std::vector<Vec3>& pos, double beta,
                                  std::vector<Vec3>& forces, int shard,
                                  int stride) {
  REPRO_REQUIRE(stride >= 1 && shard >= 0 && shard < stride,
                "bad shard/stride");
  double energy = 0.0;
  const auto& pairs = topo.excluded_pairs();
  for (std::size_t t = static_cast<std::size_t>(shard); t < pairs.size();
       t += static_cast<std::size_t>(stride)) {
    const auto [i, j] = pairs[t];
    const double qq =
        units::kCoulomb * topo.atom(i).charge * topo.atom(j).charge;
    if (qq == 0.0) continue;
    const Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                                 pos[static_cast<std::size_t>(j)]);
    const double r = util::norm(d);
    const double br = beta * r;
    const double erf_br = std::erf(br);
    energy -= qq * erf_br / r;
    // E = -qq erf(br)/r; dE/dr = -qq [2b/sqrt(pi) e^{-b^2r^2}/r - erf/r^2].
    const double dEdr =
        -qq * (2.0 * beta / std::sqrt(std::numbers::pi) *
                   std::exp(-br * br) / r -
               erf_br / (r * r));
    const Vec3 f = d * (-dEdr / r);
    forces[static_cast<std::size_t>(i)] += f;
    forces[static_cast<std::size_t>(j)] -= f;
  }
  return energy;
}

double ewald_exclusion_correction_owned(
    const Topology& topo, const Box& box, const std::vector<Vec3>& pos,
    const std::vector<std::uint8_t>& owned_mask, double beta,
    std::vector<Vec3>& forces) {
  REPRO_REQUIRE(owned_mask.size() == pos.size(),
                "ownership mask size mismatch");
  double energy = 0.0;
  for (const auto& [i, j] : topo.excluded_pairs()) {
    if (!owned_mask[static_cast<std::size_t>(i)]) continue;
    const double qq =
        units::kCoulomb * topo.atom(i).charge * topo.atom(j).charge;
    if (qq == 0.0) continue;
    const Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                                 pos[static_cast<std::size_t>(j)]);
    const double r = util::norm(d);
    const double br = beta * r;
    const double erf_br = std::erf(br);
    energy -= qq * erf_br / r;
    const double dEdr =
        -qq * (2.0 * beta / std::sqrt(std::numbers::pi) *
                   std::exp(-br * br) / r -
               erf_br / (r * r));
    const Vec3 f = d * (-dEdr / r);
    forces[static_cast<std::size_t>(i)] += f;
    forces[static_cast<std::size_t>(j)] -= f;
  }
  return energy;
}

// --- SerialPme --------------------------------------------------------------

SerialPme::SerialPme(const PmeParams& params, const Box& box)
    : params_(params),
      box_(box),
      fft_(params.nx, params.ny, params.nz),
      influence_(influence_table(
          params, box, GridRegion{0, params.nx, 0, params.ny, 0, params.nz},
          false)),
      grid_(params.nx * params.ny * params.nz) {}

// Batched spline construction (SoA lanes across atoms via
// bspline_weights_batch), a real staging grid so spread/interpolation
// touch contiguous doubles instead of Complex real parts, and contiguous
// descending z-tap inner loops when the stencil does not wrap. Every
// floating-point operation matches the per-atom scalar form in value and
// order (tests/pme_test.cpp keeps that form as a bit-exact oracle).
double SerialPme::reciprocal(const Topology& topo,
                             const std::vector<Vec3>& pos,
                             std::vector<Vec3>& forces, PmeWork* work) {
  const auto n = static_cast<std::size_t>(topo.natoms());
  REPRO_REQUIRE(pos.size() == n, "position array size mismatch");
  const int order = params_.order;
  const std::size_t dims[3] = {params_.nx, params_.ny, params_.nz};
  const double lens[3] = {box_.lx(), box_.ly(), box_.lz()};
  const std::size_t ny = params_.ny;
  const std::size_t nz = params_.nz;

  for (int d = 0; d < 3; ++d) {
    sfrac_[d].resize(n);
    sk0_[d].resize(n);
    sw_[d].resize(static_cast<std::size_t>(kMaxOrder) * n);
    sdw_[d].resize(static_cast<std::size_t>(kMaxOrder) * n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double coords[3] = {pos[i].x, pos[i].y, pos[i].z};
    for (int d = 0; d < 3; ++d) {
      const double u = frac_coord(coords[d], lens[d], dims[d]);
      const double k0 = std::floor(u);
      sk0_[d][i] = static_cast<int>(k0);
      sfrac_[d][i] = u - k0;
    }
  }
  for (int d = 0; d < 3; ++d) {
    bspline_weights_batch(order, sfrac_[d].data(), n, sw_[d].data(),
                          sdw_[d].data());
  }

  // Charge spreading through the real staging grid.
  rgrid_.assign(grid_.size(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    const int k0z = sk0_[2][i];
    double wz[kMaxOrder];
    for (int jz = 0; jz < order; ++jz) {
      wz[jz] = sw_[2][static_cast<std::size_t>(jz) * n + i];
    }
    for (int jx = 0; jx < order; ++jx) {
      int kx = sk0_[0][i] - jx;
      if (kx < 0) kx += static_cast<int>(dims[0]);
      const double wxv = sw_[0][static_cast<std::size_t>(jx) * n + i];
      for (int jy = 0; jy < order; ++jy) {
        int ky = sk0_[1][i] - jy;
        if (ky < 0) ky += static_cast<int>(dims[1]);
        const double wxy =
            q * wxv * sw_[1][static_cast<std::size_t>(jy) * n + i];
        double* row =
            rgrid_.data() +
            (static_cast<std::size_t>(kx) * ny + static_cast<std::size_t>(ky)) *
                nz;
        if (k0z >= order - 1) {
          // Non-wrapping stencil: taps k0z, k0z-1, ... are contiguous.
          double* tap = row + k0z;
#pragma omp simd
          for (int jz = 0; jz < order; ++jz) tap[-jz] += wxy * wz[jz];
        } else {
          for (int jz = 0; jz < order; ++jz) {
            int kz = k0z - jz;
            if (kz < 0) kz += static_cast<int>(nz);
            row[kz] += wxy * wz[jz];
          }
        }
      }
    }
  }
#pragma omp simd
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    grid_[i] = fft::Complex(rgrid_[i], 0.0);
  }

  fft_.forward(grid_.data());
  const double energy =
      convolve(influence_, grid_.data(), static_cast<double>(grid_.size()));
  fft_.inverse(grid_.data());

#pragma omp simd
  for (std::size_t i = 0; i < grid_.size(); ++i) rgrid_[i] = grid_[i].real();

  // Force interpolation from the real potential grid. The jz accumulation
  // stays a plain loop (no reduction pragma) so the three force sums add
  // in exactly the scalar order.
  const double sx = static_cast<double>(params_.nx) / box_.lx();
  const double sy = static_cast<double>(params_.ny) / box_.ly();
  const double sz = static_cast<double>(params_.nz) / box_.lz();
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    const int k0z = sk0_[2][i];
    double wz[kMaxOrder];
    double dwz[kMaxOrder];
    for (int jz = 0; jz < order; ++jz) {
      wz[jz] = sw_[2][static_cast<std::size_t>(jz) * n + i];
      dwz[jz] = sdw_[2][static_cast<std::size_t>(jz) * n + i];
    }
    Vec3 f{};
    for (int jx = 0; jx < order; ++jx) {
      int kx = sk0_[0][i] - jx;
      if (kx < 0) kx += static_cast<int>(dims[0]);
      const double wxv = sw_[0][static_cast<std::size_t>(jx) * n + i];
      const double dwxv = sdw_[0][static_cast<std::size_t>(jx) * n + i];
      for (int jy = 0; jy < order; ++jy) {
        int ky = sk0_[1][i] - jy;
        if (ky < 0) ky += static_cast<int>(dims[1]);
        const double wyv = sw_[1][static_cast<std::size_t>(jy) * n + i];
        const double dwyv = sdw_[1][static_cast<std::size_t>(jy) * n + i];
        const double* row =
            rgrid_.data() +
            (static_cast<std::size_t>(kx) * ny + static_cast<std::size_t>(ky)) *
                nz;
        if (k0z >= order - 1) {
          const double* tap = row + k0z;
          for (int jz = 0; jz < order; ++jz) {
            const double phi = tap[-jz];
            f.x += dwxv * wyv * wz[jz] * phi;
            f.y += wxv * dwyv * wz[jz] * phi;
            f.z += wxv * wyv * dwz[jz] * phi;
          }
        } else {
          for (int jz = 0; jz < order; ++jz) {
            int kz = k0z - jz;
            if (kz < 0) kz += static_cast<int>(nz);
            const double phi = row[kz];
            f.x += dwxv * wyv * wz[jz] * phi;
            f.y += wxv * dwyv * wz[jz] * phi;
            f.z += wxv * wyv * dwz[jz] * phi;
          }
        }
      }
    }
    forces[i] -= Vec3{f.x * sx, f.y * sy, f.z * sz} * q;
  }

  if (work != nullptr) {
    work->atoms_spread += n;
    work->stencil_points +=
        2 * n * static_cast<std::size_t>(order * order * order);
    work->mesh_points += grid_.size();
    work->fft_flops += 2.0 * fft_.flops();
  }
  return energy;
}

// --- ParallelPme -------------------------------------------------------------

ParallelPme::ParallelPme(const PmeParams& params, const Box& box,
                         middleware::Middleware& mw,
                         std::function<void(double)> charge_compute)
    : params_(params),
      box_(box),
      mw_(mw),
      charge_(std::move(charge_compute)),
      pfft_(params.nx, params.ny, params.nz, mw, charge_),
      influence_(influence_table(
          params, box,
          GridRegion{0, params.nx, 0, params.ny,
                     pfft_.z_slabs().begin(mw.rank()), pfft_.local_z_count()},
          true)),
      xslab_(pfft_.x_slab_size()),
      zslab_(pfft_.z_slab_size()) {}

double ParallelPme::reciprocal(const Topology& topo,
                               const std::vector<Vec3>& pos,
                               std::vector<Vec3>& forces, PmeWork* work) {
  const auto n = static_cast<std::size_t>(topo.natoms());
  REPRO_REQUIRE(pos.size() == n, "position array size mismatch");
  const int order = params_.order;
  const int me = mw_.rank();
  const std::size_t xb = pfft_.x_slabs().begin(me);
  const std::size_t xe = pfft_.x_slabs().end(me);
  const auto K =
      static_cast<double>(params_.nx * params_.ny * params_.nz);

  // Spread the charges of every atom whose x-stencil intersects my slab,
  // onto the owned x-planes only. Positions are replicated, so no
  // communication is needed here; boundary atoms are handled by the slabs
  // on both sides, each accumulating its own planes.
  std::fill(xslab_.begin(), xslab_.end(), fft::Complex(0, 0));
  std::size_t atoms_touched = 0;
  std::size_t stencil = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    // Cheap rejection on the x-coordinate before computing full splines.
    const double ux = frac_coord(pos[i].x, box_.lx(), params_.nx);
    const int k0x = static_cast<int>(std::floor(ux));
    bool touches = false;
    for (int jx = 0; jx < order && !touches; ++jx) {
      int kx = k0x - jx;
      if (kx < 0) kx += static_cast<int>(params_.nx);
      touches = static_cast<std::size_t>(kx) >= xb &&
                static_cast<std::size_t>(kx) < xe;
    }
    if (!touches) continue;
    ++atoms_touched;
    const AtomSpline s = make_spline(params_, box_, pos[i]);
    for (int jx = 0; jx < order; ++jx) {
      const std::size_t kx = line(s, 0, jx, params_.nx);
      if (kx < xb || kx >= xe) continue;
      const std::size_t lx = kx - xb;
      for (int jy = 0; jy < order; ++jy) {
        const std::size_t ky = line(s, 1, jy, params_.ny);
        const double wxy = q * s.w[0][jx] * s.w[1][jy];
        for (int jz = 0; jz < order; ++jz) {
          const std::size_t kz = line(s, 2, jz, params_.nz);
          xslab_[(lx * params_.ny + ky) * params_.nz + kz] +=
              wxy * s.w[2][jz];
          ++stencil;
        }
      }
    }
  }
  if (charge_) {
    // ~6 flops per atom for the rejection test, ~20 per stencil update.
    charge_(6.0 * static_cast<double>(n) + 20.0 * static_cast<double>(stencil));
  }

  pfft_.forward(xslab_.data(), zslab_.data());

  // Convolution over my z-planes of k-space; z-slab layout is [lz][ny][nx].
  const std::size_t lz = pfft_.local_z_count();
  const double energy = convolve(influence_, zslab_.data(), K);
  if (charge_) {
    charge_(12.0 * static_cast<double>(lz * params_.ny * params_.nx));
  }

  pfft_.backward(zslab_.data(), xslab_.data());

  // Force interpolation over owned x-planes; partial sums are completed by
  // the global force reduction.
  const double sx = static_cast<double>(params_.nx) / box_.lx();
  const double sy = static_cast<double>(params_.ny) / box_.ly();
  const double sz = static_cast<double>(params_.nz) / box_.lz();
  std::size_t interp_stencil = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    const double ux = frac_coord(pos[i].x, box_.lx(), params_.nx);
    const int k0x = static_cast<int>(std::floor(ux));
    bool touches = false;
    for (int jx = 0; jx < order && !touches; ++jx) {
      int kx = k0x - jx;
      if (kx < 0) kx += static_cast<int>(params_.nx);
      touches = static_cast<std::size_t>(kx) >= xb &&
                static_cast<std::size_t>(kx) < xe;
    }
    if (!touches) continue;
    const AtomSpline s = make_spline(params_, box_, pos[i]);
    Vec3 f{};
    for (int jx = 0; jx < order; ++jx) {
      const std::size_t kx = line(s, 0, jx, params_.nx);
      if (kx < xb || kx >= xe) continue;
      const std::size_t lx = kx - xb;
      for (int jy = 0; jy < order; ++jy) {
        const std::size_t ky = line(s, 1, jy, params_.ny);
        for (int jz = 0; jz < order; ++jz) {
          const std::size_t kz = line(s, 2, jz, params_.nz);
          const double phi =
              xslab_[(lx * params_.ny + ky) * params_.nz + kz].real();
          f.x += s.dw[0][jx] * s.w[1][jy] * s.w[2][jz] * phi;
          f.y += s.w[0][jx] * s.dw[1][jy] * s.w[2][jz] * phi;
          f.z += s.w[0][jx] * s.w[1][jy] * s.dw[2][jz] * phi;
          ++interp_stencil;
        }
      }
    }
    forces[i] -= Vec3{f.x * sx, f.y * sy, f.z * sz} * q;
  }
  if (charge_) {
    charge_(6.0 * static_cast<double>(n) +
            22.0 * static_cast<double>(interp_stencil));
  }

  if (work != nullptr) {
    work->atoms_spread += atoms_touched;
    work->stencil_points += stencil + interp_stencil;
    work->mesh_points += lz * params_.ny * params_.nx;
  }
  return energy;
}

// --- PencilPme ---------------------------------------------------------------

PencilPme::PencilPme(const PmeParams& params, const Box& box, mpi::Comm& comm,
                     int py, int pz, std::vector<GridRegion> regions,
                     std::function<void(double)> charge_compute)
    : params_(params),
      box_(box),
      comm_(comm),
      charge_(std::move(charge_compute)),
      pfft_(fft::PencilGrid(params.nx, params.ny, params.nz, py, pz), comm,
            charge_),
      regions_(std::move(regions)) {
  REPRO_REQUIRE(regions_.size() == static_cast<std::size_t>(comm_.size()),
                "pencil PME needs one grid region per rank");
  REPRO_REQUIRE(py * pz <= comm_.size(),
                "pencil process grid needs more ranks than the run has");
  const int me = comm_.rank();
  const fft::PencilGrid& g = pfft_.grid();
  const GridRegion& reg = my_region();
  region_.resize(reg.cx * reg.cy * reg.cz);
  stage1_.resize(g.stage1_size(me));
  stage3_.resize(g.stage3_size(me));
  // My stage-3 pencils: x in Xp(yc), y in Y2p(zc), all z.
  if (g.participates(me)) {
    const int yc = g.ycoord(me);
    const int zc = g.zcoord(me);
    influence_ = influence_table(
        params_, box_,
        GridRegion{g.xpart.begin(yc), g.xpart.count(yc), g.y2part.begin(zc),
                   g.y2part.count(zc), 0, params_.nz},
        false);
  }
}

// Charge plane exchange: every rank ships, for each stage-1 pencil owner
// q, the part of its spread region that lands on q's (y, z) planes — all
// of the region's x extent, the y/z overlap with q's pencil
// (plane_block). Elements travel in region-local (x, y, z) order on both
// the packing and unpacking sides. Receivers ACCUMULATE: neighbor regions
// overlap by the stencil pad, and each atom is spread exactly once (by
// its owner), so summing the blocks reconstructs the full charge grid.
// Self blocks are local copies; the all-sends-then-all-recvs order is
// deadlock-free under eager sends.
void PencilPme::exchange_charges(int tag) {
  const int me = comm_.rank();
  const int nprocs = comm_.size();
  const fft::PencilGrid& g = pfft_.grid();
  const GridRegion& reg = my_region();
  std::fill(stage1_.begin(), stage1_.end(), fft::Complex(0, 0));
  std::size_t moved = 0;

  const PlaneBlock self = plane_block(reg, g, me);
  self.for_each([&](std::size_t ri, std::size_t pi) {
    stage1_[pi] += region_[ri];
  });
  moved += 2 * self.size();
  for (int q = 0; q < nprocs; ++q) {
    const PlaneBlock blk = plane_block(reg, g, q);
    const std::size_t n = blk.size();
    if (q == me || n == 0) continue;
    msgbuf_.resize(std::max(msgbuf_.size(), n));
    std::size_t at = 0;
    blk.for_each([&](std::size_t ri, std::size_t) {
      msgbuf_[at++] = region_[ri];
    });
    comm_.send(q, tag, msgbuf_.data(), n * sizeof(double));
    moved += n;
  }
  for (int r = 0; r < nprocs; ++r) {
    const PlaneBlock blk =
        plane_block(regions_[static_cast<std::size_t>(r)], g, me);
    const std::size_t n = blk.size();
    if (r == me || n == 0) continue;
    msgbuf_.resize(std::max(msgbuf_.size(), n));
    comm_.recv(r, tag, msgbuf_.data(), n * sizeof(double));
    std::size_t at = 0;
    blk.for_each([&](std::size_t, std::size_t pi) {
      stage1_[pi] += msgbuf_[at++];
    });
    moved += n;
  }
  charge(static_cast<double>(moved));  // ~1 flop per packed/unpacked element
}

// Potential plane exchange: the reverse direction with identical block
// geometry — each stage-1 owner returns the real part of the transformed
// grid to every region that overlaps its pencils. The (y, z) pencils tile
// the grid, so every region point is WRITTEN by exactly one owner and the
// receiver assigns instead of accumulating.
void PencilPme::return_potential(int tag) {
  const int me = comm_.rank();
  const int nprocs = comm_.size();
  const fft::PencilGrid& g = pfft_.grid();
  const GridRegion& reg = my_region();
  std::size_t moved = 0;

  const PlaneBlock self = plane_block(reg, g, me);
  self.for_each([&](std::size_t ri, std::size_t pi) {
    region_[ri] = stage1_[pi].real();
  });
  moved += 2 * self.size();
  for (int r = 0; r < nprocs; ++r) {
    const PlaneBlock blk =
        plane_block(regions_[static_cast<std::size_t>(r)], g, me);
    const std::size_t n = blk.size();
    if (r == me || n == 0) continue;
    msgbuf_.resize(std::max(msgbuf_.size(), n));
    std::size_t at = 0;
    blk.for_each([&](std::size_t, std::size_t pi) {
      msgbuf_[at++] = stage1_[pi].real();
    });
    comm_.send(r, tag, msgbuf_.data(), n * sizeof(double));
    moved += n;
  }
  for (int q = 0; q < nprocs; ++q) {
    const PlaneBlock blk = plane_block(reg, g, q);
    const std::size_t n = blk.size();
    if (q == me || n == 0) continue;
    msgbuf_.resize(std::max(msgbuf_.size(), n));
    comm_.recv(q, tag, msgbuf_.data(), n * sizeof(double));
    std::size_t at = 0;
    blk.for_each([&](std::size_t ri, std::size_t) {
      region_[ri] = msgbuf_[at++];
    });
    moved += n;
  }
  charge(static_cast<double>(moved));
}

double PencilPme::reciprocal(const Topology& topo,
                             const std::vector<Vec3>& pos,
                             const std::vector<int>& owned,
                             std::vector<Vec3>& forces, int tag_base,
                             PmeWork* work) {
  REPRO_REQUIRE(pos.size() == static_cast<std::size_t>(topo.natoms()),
                "position array size mismatch");
  const int order = params_.order;
  const fft::PencilGrid& g = pfft_.grid();
  const int me = comm_.rank();
  const GridRegion& reg = my_region();
  const auto K = static_cast<double>(params_.nx * params_.ny * params_.nz);
  const std::size_t dims[3] = {params_.nx, params_.ny, params_.nz};
  const std::size_t starts[3] = {reg.x0, reg.y0, reg.z0};
  const std::size_t counts[3] = {reg.cx, reg.cy, reg.cz};

  // Spread the owned atoms onto my region planes. The region was sized so
  // an owned atom's whole stencil fits (cell extent + spline support +
  // skin drift pad); the REQUIRE turns a violated pad into a loud failure
  // instead of silently wrong physics.
  std::fill(region_.begin(), region_.end(), 0.0);
  std::vector<AtomSpline> splines(owned.size());
  std::size_t atoms_touched = 0;
  std::size_t stencil = 0;
  for (std::size_t oi = 0; oi < owned.size(); ++oi) {
    const int i = owned[oi];
    const double q = topo.atom(i).charge;
    if (q == 0.0) continue;
    ++atoms_touched;
    const AtomSpline s =
        make_spline(params_, box_, pos[static_cast<std::size_t>(i)]);
    splines[oi] = s;
    std::size_t off[3][kMaxOrder];
    for (int d = 0; d < 3; ++d) {
      for (int j = 0; j < order; ++j) {
        const std::size_t k = line(s, d, j, dims[d]);
        const std::size_t o = (k + dims[d] - starts[d]) % dims[d];
        REPRO_REQUIRE(o < counts[d],
                      "owned atom's PME stencil left its rank's grid region "
                      "(stencil pad too small for this drift)");
        off[d][j] = o;
      }
    }
    for (int jx = 0; jx < order; ++jx) {
      for (int jy = 0; jy < order; ++jy) {
        const double wxy = q * s.w[0][jx] * s.w[1][jy];
        const std::size_t base = (off[0][jx] * reg.cy + off[1][jy]) * reg.cz;
        for (int jz = 0; jz < order; ++jz) {
          region_[base + off[2][jz]] += wxy * s.w[2][jz];
          ++stencil;
        }
      }
    }
  }
  charge(6.0 * static_cast<double>(owned.size()) +
         20.0 * static_cast<double>(stencil));

  exchange_charges(tag_base + 0);
  pfft_.forward(stage1_.data(), stage3_.data(), tag_base + 1, tag_base + 2);

  // Convolution + partial energy over my stage-3 pencils — each
  // wavevector on exactly one rank.
  const double energy = convolve(influence_, stage3_.data(), K);
  const std::size_t mesh = stage3_.size();
  if (g.participates(me)) charge(12.0 * static_cast<double>(mesh));

  pfft_.backward(stage3_.data(), stage1_.data(), tag_base + 3, tag_base + 4);
  return_potential(tag_base + 5);

  // Force interpolation for owned atoms only: the whole stencil is inside
  // the region, so the force on an owned atom is complete right here — no
  // reciprocal-force reduction follows.
  const double sx = static_cast<double>(params_.nx) / box_.lx();
  const double sy = static_cast<double>(params_.ny) / box_.ly();
  const double sz = static_cast<double>(params_.nz) / box_.lz();
  std::size_t interp_stencil = 0;
  for (std::size_t oi = 0; oi < owned.size(); ++oi) {
    const int i = owned[oi];
    const double q = topo.atom(i).charge;
    if (q == 0.0) continue;
    const AtomSpline& s = splines[oi];
    Vec3 f{};
    for (int jx = 0; jx < order; ++jx) {
      const std::size_t ox =
          (line(s, 0, jx, params_.nx) + params_.nx - reg.x0) % params_.nx;
      for (int jy = 0; jy < order; ++jy) {
        const std::size_t oy =
            (line(s, 1, jy, params_.ny) + params_.ny - reg.y0) % params_.ny;
        const std::size_t base = (ox * reg.cy + oy) * reg.cz;
        for (int jz = 0; jz < order; ++jz) {
          const std::size_t oz =
              (line(s, 2, jz, params_.nz) + params_.nz - reg.z0) % params_.nz;
          const double phi = region_[base + oz];
          f.x += s.dw[0][jx] * s.w[1][jy] * s.w[2][jz] * phi;
          f.y += s.w[0][jx] * s.dw[1][jy] * s.w[2][jz] * phi;
          f.z += s.w[0][jx] * s.w[1][jy] * s.dw[2][jz] * phi;
          ++interp_stencil;
        }
      }
    }
    forces[static_cast<std::size_t>(i)] -=
        Vec3{f.x * sx, f.y * sy, f.z * sz} * q;
  }
  charge(6.0 * static_cast<double>(owned.size()) +
         22.0 * static_cast<double>(interp_stencil));

  if (work != nullptr) {
    work->atoms_spread += atoms_touched;
    work->stencil_points += stencil + interp_stencil;
    work->mesh_points += mesh;
    work->fft_flops += 2.0 * pfft_.local_fft_flops();
  }
  return energy;
}

}  // namespace repro::pme
