// Property-test harness for the pencil-decomposed FFT and PME.
//
// Every transpose in the pencil chain is checked three ways:
//   - identity: transpose followed by its inverse returns the input
//     exactly (the transposes only move values, never do arithmetic);
//   - content: the distributed stages are a permutation of the global
//     grid — assembling every rank's pencils reconstructs each point
//     exactly once, and forward k-space matches both the serial Fft3D
//     and the slab ParallelFft3D layouts;
//   - round trip: backward(forward(x)) == x to 1e-12.
// Grid sizes, pencil shapes, and rank counts are swept over divisible,
// non-divisible, odd/mixed-radix, degenerate (1 x Pz), and
// idle-extra-rank combinations, plus randomized cases.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fft/fft.hpp"
#include "fft/parallel_fft.hpp"
#include "md/box.hpp"
#include "middleware/middleware.hpp"
#include "net/cluster.hpp"
#include "perf/recorder.hpp"
#include "pme/pme.hpp"
#include "sim/engine.hpp"
#include "sysbuild/builder.hpp"
#include "util/rng.hpp"

namespace repro::fft {
namespace {

using util::Vec3;

std::vector<Complex> random_grid(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

struct PencilCase {
  std::size_t nx, ny, nz;
  int py, pz;
  int nranks;  // >= py * pz; extras are idle non-participants
};

// Global grid index convention shared with the serial Fft3D: (x*ny+y)*nz+z.
std::size_t gidx(const PencilCase& c, std::size_t x, std::size_t y,
                 std::size_t z) {
  return (x * c.ny + y) * c.nz + z;
}

// Runs the full property battery for one configuration.
void run_pencil_case(const PencilCase& c) {
  SCOPED_TRACE(::testing::Message()
               << "grid " << c.nx << "x" << c.ny << "x" << c.nz
               << " pencils " << c.py << "x" << c.pz << " ranks "
               << c.nranks);
  const std::size_t volume = c.nx * c.ny * c.nz;
  const auto full =
      random_grid(volume, 1000 * c.nx + 100 * c.ny + 10 * c.nz +
                              static_cast<std::uint64_t>(c.py * c.pz));
  auto reference = full;
  Fft3D serial(c.nx, c.ny, c.nz);
  serial.forward(reference.data());

  const PencilGrid grid(c.nx, c.ny, c.nz, c.py, c.pz);

  // Stage sizes tile the grid exactly (each point owned once per stage).
  std::size_t s1 = 0, s2 = 0, s3 = 0;
  for (int r = 0; r < c.nranks; ++r) {
    s1 += grid.stage1_size(r);
    s2 += grid.stage2_size(r);
    s3 += grid.stage3_size(r);
  }
  EXPECT_EQ(s1, volume);
  EXPECT_EQ(s2, volume);
  EXPECT_EQ(s3, volume);

  net::ClusterConfig config;
  config.nranks = c.nranks;
  config.network = net::Network::kMyrinetGM;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(c.nranks));
  // Per-rank forward k-space pencils, gathered after the run to check the
  // global permutation property.
  std::vector<std::vector<Complex>> kspace(
      static_cast<std::size_t>(c.nranks));

  sim::Engine engine(c.nranks);
  engine.run([&](sim::RankCtx& ctx) {
    const int me = ctx.rank();
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(me)]);
    PencilFft3D pfft(grid, comm);

    if (!grid.participates(me)) {
      // Idle ranks: every call must be a no-op on empty buffers.
      EXPECT_EQ(grid.stage1_size(me), 0u);
      pfft.forward(nullptr, nullptr, 901, 902);
      pfft.backward(nullptr, nullptr, 903, 904);
      return;
    }
    const int yc = grid.ycoord(me);
    const int zc = grid.zcoord(me);
    const std::size_t ly1 = grid.ypart.count(yc);
    const std::size_t lz1 = grid.zpart.count(zc);
    const std::size_t y0 = grid.ypart.begin(yc);
    const std::size_t z0 = grid.zpart.begin(zc);

    // Fill my stage-1 x-pencils from the global grid.
    std::vector<Complex> stage1(grid.stage1_size(me));
    for (std::size_t yl = 0; yl < ly1; ++yl) {
      for (std::size_t zl = 0; zl < lz1; ++zl) {
        for (std::size_t x = 0; x < c.nx; ++x) {
          stage1[(yl * lz1 + zl) * c.nx + x] =
              full[gidx(c, x, y0 + yl, z0 + zl)];
        }
      }
    }

    // --- transpose o inverse-transpose identity (exact: data movement
    // only, no arithmetic) --------------------------------------------
    std::vector<Complex> stage2(grid.stage2_size(me));
    std::vector<Complex> stage3(grid.stage3_size(me));
    pfft.transpose_xy(stage1.data(), stage2.data(), 911);
    std::vector<Complex> back1(stage1.size());
    pfft.transpose_yx(stage2.data(), back1.data(), 912);
    for (std::size_t i = 0; i < stage1.size(); ++i) {
      ASSERT_EQ(back1[i], stage1[i]) << "X<->Y identity at " << i;
    }
    pfft.transpose_yz(stage2.data(), stage3.data(), 913);
    std::vector<Complex> back2(stage2.size());
    pfft.transpose_zy(stage3.data(), back2.data(), 914);
    for (std::size_t i = 0; i < stage2.size(); ++i) {
      ASSERT_EQ(back2[i], stage2[i]) << "Y<->Z identity at " << i;
    }

    // --- stage-2 content: a permutation of the (y-transformed?) no —
    // transposes carry raw values, so stage 2 must hold exactly the
    // global points (x in Xp(yc), z in Zp(zc), all y) -------------------
    const std::size_t lx2 = grid.xpart.count(yc);
    const std::size_t x20 = grid.xpart.begin(yc);
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t zl = 0; zl < lz1; ++zl) {
        for (std::size_t y = 0; y < c.ny; ++y) {
          ASSERT_EQ(stage2[(xl * lz1 + zl) * c.ny + y],
                    full[gidx(c, x20 + xl, y, z0 + zl)])
              << "stage-2 content at x=" << x20 + xl << " y=" << y
              << " z=" << z0 + zl;
        }
      }
    }

    // --- forward matches the serial transform ------------------------
    std::vector<Complex> kpencil(grid.stage3_size(me));
    pfft.forward(stage1.data(), kpencil.data(), 921, 922);
    const std::size_t ly3 = grid.y2part.count(zc);
    const std::size_t y30 = grid.y2part.begin(zc);
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t yl = 0; yl < ly3; ++yl) {
        for (std::size_t z = 0; z < c.nz; ++z) {
          const Complex got = kpencil[(xl * ly3 + yl) * c.nz + z];
          const Complex want = reference[gidx(c, x20 + xl, y30 + yl, z)];
          ASSERT_NEAR(std::abs(got - want), 0.0, 1e-8)
              << "k-space at x=" << x20 + xl << " y=" << y30 + yl
              << " z=" << z;
        }
      }
    }
    kspace[static_cast<std::size_t>(me)] = kpencil;

    // --- round trip: backward(forward(x)) == x to 1e-12 ---------------
    std::vector<Complex> round(stage1.size());
    pfft.backward(kpencil.data(), round.data(), 931, 932);
    for (std::size_t i = 0; i < stage1.size(); ++i) {
      ASSERT_NEAR(std::abs(round[i] - stage1[i]), 0.0, 1e-12)
          << "round trip at " << i;
    }
  });

  // --- global permutation property: every k-space point is produced by
  // exactly one rank, and the assembled grid equals the serial result --
  std::vector<int> owners(volume, 0);
  std::vector<Complex> assembled(volume);
  for (int r = 0; r < c.nranks; ++r) {
    if (!grid.participates(r)) continue;
    const int yc = grid.ycoord(r);
    const int zc = grid.zcoord(r);
    const std::size_t lx2 = grid.xpart.count(yc);
    const std::size_t ly3 = grid.y2part.count(zc);
    const std::size_t x20 = grid.xpart.begin(yc);
    const std::size_t y30 = grid.y2part.begin(zc);
    ASSERT_EQ(kspace[static_cast<std::size_t>(r)].size(),
              lx2 * ly3 * c.nz);
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t yl = 0; yl < ly3; ++yl) {
        for (std::size_t z = 0; z < c.nz; ++z) {
          const std::size_t g = gidx(c, x20 + xl, y30 + yl, z);
          owners[g] += 1;
          assembled[g] =
              kspace[static_cast<std::size_t>(r)][(xl * ly3 + yl) * c.nz +
                                                  z];
        }
      }
    }
  }
  for (std::size_t g = 0; g < volume; ++g) {
    ASSERT_EQ(owners[g], 1) << "k-space point " << g
                            << " owned by != 1 rank";
    EXPECT_NEAR(std::abs(assembled[g] - reference[g]), 0.0, 1e-8);
  }
}

TEST(PencilFftPropertyTest, DivisibleGrids) {
  run_pencil_case({16, 8, 8, 2, 4, 8});
  run_pencil_case({20, 12, 16, 2, 2, 4});
  run_pencil_case({8, 4, 4, 4, 4, 16});
}

TEST(PencilFftPropertyTest, NonDivisibleGrids) {
  run_pencil_case({20, 9, 12, 2, 5, 10});
  run_pencil_case({14, 10, 6, 3, 4, 12});
  run_pencil_case({80, 36, 48, 3, 5, 15});  // the paper's PME grid
}

TEST(PencilFftPropertyTest, OddAndMixedRadixGrids) {
  run_pencil_case({15, 9, 7, 3, 2, 6});
  run_pencil_case({7, 5, 11, 2, 3, 6});
  run_pencil_case({9, 3, 5, 3, 5, 15});
}

TEST(PencilFftPropertyTest, DegeneratePencilShapes) {
  run_pencil_case({12, 6, 8, 1, 1, 1});   // serial in pencil clothing
  run_pencil_case({12, 6, 8, 1, 4, 4});   // row of z-pencils
  run_pencil_case({12, 6, 8, 4, 1, 4});   // column of y-pencils
  run_pencil_case({10, 4, 6, 4, 6, 24});  // every plane its own rank
}

TEST(PencilFftPropertyTest, IdleExtraRanks) {
  // More ranks than pencils: the extras join the engine but own nothing.
  run_pencil_case({16, 8, 8, 2, 2, 7});
  run_pencil_case({15, 9, 7, 2, 2, 9});
}

TEST(PencilFftPropertyTest, RandomizedConfigurations) {
  util::Rng rng(2002);
  for (int iter = 0; iter < 6; ++iter) {
    PencilCase c;
    c.nx = 2 + rng.uniform_index(14);
    c.ny = 2 + rng.uniform_index(10);
    c.nz = 2 + rng.uniform_index(10);
    c.py = 1 + static_cast<int>(rng.uniform_index(
                   std::min<std::uint64_t>(4, c.ny)));
    c.pz = 1 + static_cast<int>(rng.uniform_index(
                   std::min<std::uint64_t>(4, c.nz)));
    c.nranks = c.py * c.pz + static_cast<int>(rng.uniform_index(3));
    run_pencil_case(c);
  }
}

// --- pencil PME against the serial reference --------------------------------

// Whole-grid regions on every rank: the plane exchange ships everything,
// and owned-atom forces must come back identical to the serial PME.
void run_pencil_pme_case(const pme::PmeParams& params, int py, int pz,
                         int nranks, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "pme grid " << params.nx << "x" << params.ny << "x"
               << params.nz << " pencils " << py << "x" << pz << " ranks "
               << nranks);
  auto sys = sysbuild::build_random_charges(36, md::Box(13, 11, 9), seed);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());

  pme::SerialPme serial(params, sys.box);
  std::vector<Vec3> serial_forces(n);
  const double serial_energy =
      serial.reciprocal(sys.topo, sys.positions, serial_forces);

  net::ClusterConfig config;
  config.nranks = nranks;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(nranks));
  std::vector<double> energies(static_cast<std::size_t>(nranks));
  std::vector<std::vector<Vec3>> forces(static_cast<std::size_t>(nranks),
                                        std::vector<Vec3>(n));
  // Round-robin atom ownership; every rank's region is the whole grid.
  std::vector<pme::GridRegion> regions(
      static_cast<std::size_t>(nranks),
      pme::GridRegion{0, params.nx, 0, params.ny, 0, params.nz});

  sim::Engine engine(nranks);
  engine.run([&](sim::RankCtx& ctx) {
    const int me = ctx.rank();
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(me)]);
    pme::PencilPme pencil(params, sys.box, comm, py, pz, regions);
    std::vector<int> owned;
    for (std::size_t i = static_cast<std::size_t>(me); i < n;
         i += static_cast<std::size_t>(nranks)) {
      owned.push_back(static_cast<int>(i));
    }
    pme::PmeWork work;
    energies[static_cast<std::size_t>(me)] = pencil.reciprocal(
        sys.topo, sys.positions, owned,
        forces[static_cast<std::size_t>(me)], 500, &work);
    EXPECT_EQ(work.atoms_spread, owned.size());
  });

  double energy = 0.0;
  std::vector<Vec3> total(n);
  for (int r = 0; r < nranks; ++r) {
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

TEST(PencilPmePropertyTest, MatchesSerialAcrossShapes) {
  pme::PmeParams params;
  params.nx = 20;
  params.ny = 12;
  params.nz = 16;
  params.order = 4;
  params.beta = 0.4;
  run_pencil_pme_case(params, 1, 1, 1, 71);
  run_pencil_pme_case(params, 2, 2, 4, 72);
  run_pencil_pme_case(params, 2, 4, 8, 73);
  run_pencil_pme_case(params, 3, 2, 8, 74);  // two idle ranks
}

TEST(PencilPmePropertyTest, OddGridMatchesSerial) {
  pme::PmeParams params;
  params.nx = 15;
  params.ny = 9;
  params.nz = 7;
  params.order = 4;
  params.beta = 0.45;
  run_pencil_pme_case(params, 3, 2, 6, 75);
  run_pencil_pme_case(params, 2, 3, 6, 76);
}


// --- plane-exchange geometry ------------------------------------------------

// A region dimension: a random wrapped interval, sometimes the whole
// dimension (from plane 0, as make_pme_regions builds it, or from a
// random start), sometimes forced to cross the seam.
void random_extent(util::Rng& rng, std::size_t n, std::size_t& start,
                   std::size_t& count) {
  switch (rng.uniform_index(4)) {
    case 0:  // whole dimension
      start = rng.uniform_index(2) == 0 ? 0 : rng.uniform_index(n);
      count = n;
      break;
    case 1:  // wrapped: start + count > n whenever n > 1
      start = n - 1 - rng.uniform_index(std::max<std::size_t>(n / 2, 1));
      count = std::min(n, n - start + 1 + rng.uniform_index(n));
      break;
    default:
      start = rng.uniform_index(n);
      count = 1 + rng.uniform_index(n);
  }
}

// plane_block splits a rank's spread region over the stage-1 pencils:
// every region point must land in exactly one peer block, at its own
// global grid point, visited in region-local order; and each block's size
// must equal the predictor's wrapped_overlap product.
TEST(PlaneBlockTest, PartitionsRandomRegionsAcrossPencils) {
  util::Rng rng(4242);
  int wrapped = 0;
  int full = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t nx = 1 + rng.uniform_index(20);
    const std::size_t ny = 1 + rng.uniform_index(16);
    const std::size_t nz = 1 + rng.uniform_index(16);
    const int py = 1 + static_cast<int>(rng.uniform_index(
                           std::min<std::size_t>(ny, 5)));
    const int pz = 1 + static_cast<int>(rng.uniform_index(
                           std::min<std::size_t>(nz, 5)));
    const PencilGrid g(nx, ny, nz, py, pz);
    pme::GridRegion reg;
    random_extent(rng, nx, reg.x0, reg.cx);
    random_extent(rng, ny, reg.y0, reg.cy);
    random_extent(rng, nz, reg.z0, reg.cz);
    wrapped += reg.x0 + reg.cx > nx ? 1 : 0;
    full += reg.cy == ny ? 1 : 0;
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " grid " << nx << "x" << ny << "x"
                 << nz << " pencils " << py << "x" << pz << " region x "
                 << reg.x0 << "+" << reg.cx << " y " << reg.y0 << "+"
                 << reg.cy << " z " << reg.z0 << "+" << reg.cz);

    std::vector<int> hits(reg.cx * reg.cy * reg.cz, 0);
    for (int q = 0; q < py * pz; ++q) {
      const int yc = g.ycoord(q);
      const int zc = g.zcoord(q);
      const pme::PlaneBlock blk = pme::plane_block(reg, g, q);
      EXPECT_EQ(blk.size(),
                reg.cx *
                    pme::wrapped_overlap(reg.y0, reg.cy, ny,
                                         g.ypart.begin(yc), g.ypart.end(yc)) *
                    pme::wrapped_overlap(reg.z0, reg.cz, nz,
                                         g.zpart.begin(zc), g.zpart.end(zc)));
      const std::size_t lz1 = g.zpart.count(zc);
      std::size_t visits = 0;
      std::size_t last = 0;
      bool bad = false;
      blk.for_each([&](std::size_t ri, std::size_t pi) {
        if (ri >= hits.size() || pi >= g.stage1_size(q) ||
            (visits > 0 && ri <= last)) {
          bad = true;
          return;
        }
        ++hits[ri];
        last = ri;
        ++visits;
        const std::size_t xl = ri / (reg.cy * reg.cz);
        const std::size_t yl = ri / reg.cz % reg.cy;
        const std::size_t zl = ri % reg.cz;
        const std::size_t x = pi % nx;
        const std::size_t y = g.ypart.begin(yc) + pi / nx / lz1;
        const std::size_t z = g.zpart.begin(zc) + pi / nx % lz1;
        if (x != (reg.x0 + xl) % nx || y != (reg.y0 + yl) % ny ||
            z != (reg.z0 + zl) % nz) {
          bad = true;
        }
      });
      EXPECT_FALSE(bad) << "pencil " << q;
      EXPECT_EQ(visits, blk.size()) << "pencil " << q;
    }
    for (std::size_t ri = 0; ri < hits.size(); ++ri) {
      ASSERT_EQ(hits[ri], 1) << "region point " << ri;
    }
    // Ranks past the pencil grid and empty regions own no blocks.
    EXPECT_EQ(pme::plane_block(reg, g, py * pz).size(), 0u);
    pme::GridRegion empty = reg;
    empty.cz = 0;
    EXPECT_EQ(pme::plane_block(empty, g, 0).size(), 0u);
  }
  EXPECT_GT(wrapped, 50);
  EXPECT_GT(full, 50);
}

}  // namespace
}  // namespace repro::fft
