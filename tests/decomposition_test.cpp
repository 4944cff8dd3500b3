// Tests for the decomposition-strategy layer: spec parsing, physics
// invariance of every strategy across rank counts and networks, the
// task-decoupling overlap, the spatial domain decomposition (halo
// schedule, migration, idle ranks, topology/grid invariance), and the
// extended analytic predictor (times within tolerance, message/byte
// counts exact against channel counters).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "charmm/decomp_spec.hpp"
#include "charmm/simulation.hpp"
#include "charmm/spatial.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "md/neighbor.hpp"
#include "net/topology.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"

namespace repro::charmm {
namespace {

// Shared, relaxed full-size system (expensive: built once per binary).
const sysbuild::BuiltSystem& system_fixture() {
  static const sysbuild::BuiltSystem sys = [] {
    sysbuild::BuiltSystem s = sysbuild::build_myoglobin_like();
    relax_system(s, 60);
    return s;
  }();
  return sys;
}

CharmmConfig short_config(DecompKind kind = DecompKind::kAtomReplicated) {
  CharmmConfig config;
  config.nsteps = 4;
  config.decomp.kind = kind;
  return config;
}

core::ExperimentResult run(const core::Platform& platform, int nprocs,
                           const CharmmConfig& config) {
  core::ExperimentSpec spec;
  spec.platform = platform;
  spec.nprocs = nprocs;
  spec.charmm = config;
  return core::run_experiment(system_fixture(), spec);
}

// The p=1 atom-decomposition reference everything is compared against.
const core::ExperimentResult& reference_run() {
  static const core::ExperimentResult ref =
      run(core::reference_platform(), 1, short_config());
  return ref;
}

// --- spec parsing ----------------------------------------------------------

TEST(DecompSpecTest, ParsesEveryKind) {
  EXPECT_EQ(parse_decomp_spec("").kind, DecompKind::kAtomReplicated);
  EXPECT_EQ(parse_decomp_spec("atom").kind, DecompKind::kAtomReplicated);
  EXPECT_EQ(parse_decomp_spec("replicated").kind,
            DecompKind::kAtomReplicated);
  EXPECT_EQ(parse_decomp_spec("force").kind, DecompKind::kForce);
  EXPECT_EQ(parse_decomp_spec("task").kind, DecompKind::kTaskPme);
  EXPECT_EQ(parse_decomp_spec("task").pme_ranks, 0);
  const DecompSpec explicit_pme = parse_decomp_spec("task:pme=3");
  EXPECT_EQ(explicit_pme.kind, DecompKind::kTaskPme);
  EXPECT_EQ(explicit_pme.pme_ranks, 3);
  EXPECT_EQ(parse_decomp_spec("spatial").kind, DecompKind::kSpatial);
  EXPECT_EQ(parse_decomp_spec("spatial").grid_x, 0);  // auto grid
  const DecompSpec grid = parse_decomp_spec("spatial:grid=6x3x4");
  EXPECT_EQ(grid.kind, DecompKind::kSpatial);
  EXPECT_EQ(grid.grid_x, 6);
  EXPECT_EQ(grid.grid_y, 3);
  EXPECT_EQ(grid.grid_z, 4);
}

TEST(DecompSpecTest, ToStringRoundTrips) {
  for (const char* text :
       {"atom", "force", "task", "task:pme=2", "spatial",
        "spatial:grid=6x3x4", "spatial:pme=pencil",
        "spatial:pme=pencil:grid=4x8",
        "spatial:grid=6x3x4:pme=pencil",
        "spatial:grid=6x3x4:pme=pencil:grid=2x4"}) {
    EXPECT_EQ(to_string(parse_decomp_spec(text)), text);
  }
}

TEST(DecompSpecTest, ParsesPencilPme) {
  const DecompSpec plain = parse_decomp_spec("spatial:pme=pencil");
  EXPECT_EQ(plain.kind, DecompKind::kSpatial);
  EXPECT_EQ(plain.pme_mode, PmeMode::kPencil);
  EXPECT_EQ(plain.pencil_y, 0);  // auto pencil grid
  EXPECT_EQ(plain.pencil_z, 0);

  const DecompSpec grid = parse_decomp_spec("spatial:pme=pencil:grid=4x8");
  EXPECT_EQ(grid.pme_mode, PmeMode::kPencil);
  EXPECT_EQ(grid.pencil_y, 4);
  EXPECT_EQ(grid.pencil_z, 8);

  // A grid= before pme=pencil is the cell grid; after, the pencil grid.
  const DecompSpec both =
      parse_decomp_spec("spatial:grid=6x3x4:pme=pencil:grid=2x4");
  EXPECT_EQ(both.grid_x, 6);
  EXPECT_EQ(both.grid_y, 3);
  EXPECT_EQ(both.grid_z, 4);
  EXPECT_EQ(both.pencil_y, 2);
  EXPECT_EQ(both.pencil_z, 4);

  // Slab is the default and has no spelled form.
  EXPECT_EQ(parse_decomp_spec("spatial").pme_mode, PmeMode::kSlab);
}

TEST(DecompSpecTest, RejectsMalformedPencilSpecs) {
  EXPECT_THROW(parse_decomp_spec("spatial:pme=slab"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencils"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme="), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:pme=pencil"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencilx"), util::Error);
  // Pencil grids are strictly positive Py x Pz — exactly two dimensions.
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=0x4"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=4x0"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=4"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=4x"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=2x2x2"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=2x2:grid=2x2"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=axb"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=2x2junk"),
               util::Error);
  EXPECT_THROW(
      parse_decomp_spec("spatial:pme=pencil:grid=99999999999999999999x2"),
      util::Error);
  // The pencil option belongs to spatial only.
  EXPECT_THROW(parse_decomp_spec("atom:pme=pencil"), util::Error);
  EXPECT_THROW(parse_decomp_spec("force:pme=pencil"), util::Error);
}

TEST(DecompSpecTest, ResolvesPencilGrid) {
  DecompSpec spec = parse_decomp_spec("spatial:pme=pencil");
  // Auto: the most-square factorization of the rank count.
  EXPECT_EQ(resolved_pencil_grid(spec, 2, 36, 48), (std::pair{1, 2}));
  EXPECT_EQ(resolved_pencil_grid(spec, 4, 36, 48), (std::pair{2, 2}));
  EXPECT_EQ(resolved_pencil_grid(spec, 8, 36, 48), (std::pair{2, 4}));
  EXPECT_EQ(resolved_pencil_grid(spec, 27, 36, 48), (std::pair{3, 9}));
  EXPECT_EQ(resolved_pencil_grid(spec, 100, 36, 48), (std::pair{10, 10}));
  EXPECT_EQ(resolved_pencil_grid(spec, 128, 36, 48), (std::pair{8, 16}));
  EXPECT_EQ(resolved_pencil_grid(spec, 7, 36, 48), (std::pair{1, 7}));

  // Explicit grids may leave ranks outside the FFT but never exceed the
  // rank count or the plane counts.
  spec = parse_decomp_spec("spatial:pme=pencil:grid=3x5");
  EXPECT_EQ(resolved_pencil_grid(spec, 16, 36, 48), (std::pair{3, 5}));
  EXPECT_THROW(resolved_pencil_grid(spec, 14, 36, 48), util::Error);
  EXPECT_THROW(resolved_pencil_grid(spec, 1, 36, 48), util::Error);
  // Pencil counts beyond the FFT plane counts cannot be laid out.
  spec = parse_decomp_spec("spatial:pme=pencil:grid=40x2");
  EXPECT_THROW(resolved_pencil_grid(spec, 128, 36, 48), util::Error);
  spec = parse_decomp_spec("spatial:pme=pencil:grid=2x50");
  EXPECT_THROW(resolved_pencil_grid(spec, 128, 36, 48), util::Error);
}

TEST(DecompSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_decomp_spec("spatia"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=0"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=-1"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=two"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme="), util::Error);
  EXPECT_THROW(parse_decomp_spec("force:pme=2"), util::Error);
  // std::atoi would silently accept every one of these: trailing garbage,
  // overflow past int, and a number with a unit glued on.
  EXPECT_THROW(parse_decomp_spec("task:pme=2x"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=99999999999999999999"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=2k"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:foo=1"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid="), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=4x2"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=4x2x"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=4x2x2x2"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=0x2x2"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=axbxc"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=99999999999999999999x2x2"),
               util::Error);
}

TEST(DecompSpecTest, ResolvesPmeRankCount) {
  DecompSpec spec;
  spec.kind = DecompKind::kTaskPme;
  EXPECT_EQ(resolved_pme_ranks(spec, 2), 1);   // auto: max(1, p/4)
  EXPECT_EQ(resolved_pme_ranks(spec, 8), 2);
  EXPECT_EQ(resolved_pme_ranks(spec, 16), 4);
  spec.pme_ranks = 3;
  EXPECT_EQ(resolved_pme_ranks(spec, 8), 3);
  EXPECT_THROW(resolved_pme_ranks(spec, 3), util::Error);  // no classic rank
  EXPECT_THROW(resolved_pme_ranks(spec, 1), util::Error);
}

// --- physics invariance ----------------------------------------------------

TEST(DecompositionPhysicsTest, SingleProcessIsBitIdenticalAcrossKinds) {
  // At p=1 every strategy degenerates to the same sequential step
  // program, so the results must match to the bit, not just to tolerance.
  const auto& atom = reference_run();
  const auto force = run(core::reference_platform(), 1,
                         short_config(DecompKind::kForce));
  const auto task = run(core::reference_platform(), 1,
                        short_config(DecompKind::kTaskPme));
  const auto spatial = run(core::reference_platform(), 1,
                           short_config(DecompKind::kSpatial));
  EXPECT_EQ(force.energy.potential(), atom.energy.potential());
  EXPECT_EQ(force.position_checksum, atom.position_checksum);
  EXPECT_EQ(task.energy.potential(), atom.energy.potential());
  EXPECT_EQ(task.position_checksum, atom.position_checksum);
  EXPECT_EQ(spatial.energy.potential(), atom.energy.potential());
  EXPECT_EQ(spatial.position_checksum, atom.position_checksum);
  EXPECT_EQ(spatial.pairs_in_list, atom.pairs_in_list);
}

TEST(DecompositionPhysicsTest, EveryDecompositionMatchesSequential) {
  const auto& ref = reference_run();
  ASSERT_TRUE(std::isfinite(ref.energy.potential()));
  for (DecompKind kind :
       {DecompKind::kAtomReplicated, DecompKind::kForce,
        DecompKind::kTaskPme, DecompKind::kSpatial}) {
    for (int p : {2, 3, 5, 8}) {
      const auto par = run(core::reference_platform(), p, short_config(kind));
      EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
                  std::abs(ref.energy.potential()) * 1e-6 + 1e-4)
          << to_string(kind) << " p=" << p;
      EXPECT_NEAR(par.position_checksum, ref.position_checksum,
                  std::abs(ref.position_checksum) * 1e-9)
          << to_string(kind) << " p=" << p;
    }
  }
}

TEST(DecompositionPhysicsTest, ExplicitPmeRanksMatchSequential) {
  const auto& ref = reference_run();
  CharmmConfig config = short_config(DecompKind::kTaskPme);
  config.decomp.pme_ranks = 3;
  const auto par = run(core::reference_platform(), 5, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(DecompositionPhysicsTest, NetworkNeverChangesPhysics) {
  // Same arithmetic under different clocks: bit-identical results.
  for (DecompKind kind : {DecompKind::kForce, DecompKind::kTaskPme}) {
    core::Platform platform;
    const auto tcp = run(platform, 4, short_config(kind));
    platform.network = net::Network::kMyrinetGM;
    const auto myri = run(platform, 4, short_config(kind));
    EXPECT_EQ(tcp.energy.potential(), myri.energy.potential())
        << to_string(kind);
    EXPECT_EQ(tcp.position_checksum, myri.position_checksum)
        << to_string(kind);
  }
}

// --- schedule / overlap behavior -------------------------------------------

TEST(DecompositionScheduleTest, TaskDecouplingOverlapsClassicAndPme) {
  // With dedicated PME ranks the two components run concurrently: the
  // run's wall clock must be shorter than the serialized sum the
  // replicated decompositions pay.
  const auto task = run(core::reference_platform(), 8,
                        short_config(DecompKind::kTaskPme));
  EXPECT_GT(task.breakdown.classic_wall.total(), 0.0);
  EXPECT_GT(task.breakdown.pme_wall.total(), 0.0);
  EXPECT_LT(task.metrics.makespan,
            task.breakdown.classic_wall.total() +
                task.breakdown.pme_wall.total());
}

TEST(DecompositionScheduleTest, PhaseAttributionCoversTheSchedule) {
  const auto force = run(core::reference_platform(), 4,
                         short_config(DecompKind::kForce));
  EXPECT_GT(force.metrics.phase_seconds.count("fold"), 0u);
  EXPECT_GT(force.metrics.phase_seconds.count("expand"), 0u);
  EXPECT_GT(force.metrics.phase_seconds.count("nonbonded"), 0u);
  const auto task = run(core::reference_platform(), 8,
                        short_config(DecompKind::kTaskPme));
  EXPECT_GT(task.metrics.phase_seconds.count("pme_recip"), 0u);
  EXPECT_GT(task.metrics.phase_seconds.count("result_bcast"), 0u);
}

// --- spatial domain decomposition ------------------------------------------

TEST(SpatialDecompositionTest, MatchesSequentialAtLargerCounts) {
  // p=27 spreads the 72-cell grid thin (2-3 cells per rank), the hardest
  // halo schedule that still keeps every rank owning atoms or cells.
  const auto& ref = reference_run();
  for (int p : {4, 27}) {
    const auto par = run(core::reference_platform(), p,
                         short_config(DecompKind::kSpatial));
    EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
                std::abs(ref.energy.potential()) * 1e-6 + 1e-4)
        << "spatial p=" << p;
    EXPECT_NEAR(par.position_checksum, ref.position_checksum,
                std::abs(ref.position_checksum) * 1e-9)
        << "spatial p=" << p;
    // Within one epoch (nsteps < list_rebuild_interval) every subset list
    // is built from the same replicated step-0 positions, so the summed
    // local pair counts must partition the replicated list exactly.
    EXPECT_EQ(par.pairs_in_list, ref.pairs_in_list) << "spatial p=" << p;
    EXPECT_EQ(par.atoms_migrated, 0u) << "spatial p=" << p;
  }
}

TEST(SpatialDecompositionTest, TopologyNeverChangesPhysics) {
  // The fabric changes clocks, never arithmetic: bit-identical results
  // across single switch, fat-tree, and torus.
  core::ExperimentSpec spec;
  spec.nprocs = 8;
  spec.charmm = short_config(DecompKind::kSpatial);
  const auto single = core::run_experiment(system_fixture(), spec);
  spec.topology = net::parse_topology_spec("fattree:radix=4");
  const auto fattree = core::run_experiment(system_fixture(), spec);
  spec.topology = net::parse_topology_spec("torus");
  const auto torus = core::run_experiment(system_fixture(), spec);
  EXPECT_EQ(fattree.energy.potential(), single.energy.potential());
  EXPECT_EQ(fattree.position_checksum, single.position_checksum);
  EXPECT_EQ(torus.energy.potential(), single.energy.potential());
  EXPECT_EQ(torus.position_checksum, single.position_checksum);
}

TEST(SpatialDecompositionTest, ExplicitGridMatchesSequential) {
  const auto& ref = reference_run();
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:grid=4x3x4");
  const auto par = run(core::reference_platform(), 8, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(SpatialDecompositionTest, RejectsGridsFinerThanTheCutoff) {
  // 80 / 7 < cutoff + skin = 12: a pair within range could span two
  // non-adjacent cells, so the layout must refuse to run.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:grid=7x3x4");
  EXPECT_THROW(run(core::reference_platform(), 8, config), util::Error);
}

TEST(SpatialDecompositionTest, IdleRanksBeyondTheCellCount) {
  // p=100 > 72 cells: 28 ranks own nothing, idle through the classic
  // routine, and still join every collective — results unchanged.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.nsteps = 2;
  CharmmConfig ref_config = short_config();
  ref_config.nsteps = 2;
  const auto ref = run(core::reference_platform(), 1, ref_config);
  const auto par = run(core::reference_platform(), 100, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(SpatialDecompositionTest, MigratesAtomsAcrossARebuild) {
  // Eight steps cross the rebuild at step 5, where atoms that drifted
  // over a cell border change owner; ownership must follow them and the
  // physics must not care. (The fixture is only lightly relaxed, so the
  // default timestep already produces a healthy migration count.)
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.nsteps = 8;
  CharmmConfig ref_config = short_config();
  ref_config.nsteps = 8;
  const auto ref = run(core::reference_platform(), 1, ref_config);
  const auto par = run(core::reference_platform(), 8, config);
  EXPECT_GT(par.atoms_migrated, 0u);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(SpatialDecompositionTest, SubsetListsUnionToTheFullList) {
  // Every rank builds its pair list from its owned + ghost atoms with its
  // owned atoms as the row mask. Owned sets partition the atoms, so the
  // per-rank rows together must be build()'s CSR arrays exactly —
  // including at p=128, where ranks beyond the 72 cells own nothing.
  const auto& sys = system_fixture();
  const CharmmConfig config = short_config(DecompKind::kSpatial);
  const auto natoms = static_cast<std::size_t>(sys.topo.natoms());
  md::NeighborList full(config.cutoff, config.skin);
  full.build(sys.topo, sys.box, sys.positions);
  for (int p : {2, 8, 27, 128}) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    const SpatialLayout layout =
        make_spatial_layout(config.decomp, sys.box, config.cutoff + config.skin,
                            p, &sys.positions);
    const SpatialEpoch epoch = make_global_epoch(layout, sys.positions);
    std::vector<std::vector<int>> rows(natoms);
    int idle = 0;
    for (int r = 0; r < p; ++r) {
      const auto& owned = epoch.owned[static_cast<std::size_t>(r)];
      idle += owned.empty() ? 1 : 0;
      std::vector<std::uint8_t> mask(natoms, 0);
      for (int i : owned) mask[static_cast<std::size_t>(i)] = 1;
      std::vector<int> candidates = owned;
      for (int s : layout.rank_neighbors[static_cast<std::size_t>(r)]) {
        const auto& back = layout.rank_neighbors[static_cast<std::size_t>(s)];
        const auto at = std::lower_bound(back.begin(), back.end(), r);
        const auto& ghosts = epoch.send[static_cast<std::size_t>(s)]
                                       [static_cast<std::size_t>(
                                           at - back.begin())];
        candidates.insert(candidates.end(), ghosts.begin(), ghosts.end());
      }
      md::NeighborList sub(config.cutoff, config.skin);
      sub.build_subset(sys.topo, sys.box, sys.positions, candidates, mask);
      for (std::size_t i = 0; i < natoms; ++i) {
        const auto b = sub.neighbors().begin() +
                       static_cast<std::ptrdiff_t>(sub.offsets()[i]);
        const auto e = sub.neighbors().begin() +
                       static_cast<std::ptrdiff_t>(sub.offsets()[i + 1]);
        if (!mask[i]) {
          EXPECT_EQ(b, e) << "unmasked row " << i << " on rank " << r;
          continue;
        }
        rows[i].assign(b, e);
      }
    }
    EXPECT_EQ(idle > 0, p > layout.ncells());
    std::vector<std::size_t> offsets(natoms + 1, 0);
    std::vector<int> neighbors;
    for (std::size_t i = 0; i < natoms; ++i) {
      neighbors.insert(neighbors.end(), rows[i].begin(), rows[i].end());
      offsets[i + 1] = neighbors.size();
    }
    EXPECT_EQ(offsets, full.offsets());
    EXPECT_EQ(neighbors, full.neighbors());
  }
}

// --- pencil-decomposed PME -------------------------------------------------

TEST(PencilDecompositionTest, SingleProcessIsBitIdenticalToSlab) {
  // p=1 runs the sequential reference program under either PME mode, so
  // pencil must match the slab spatial run (and the atom reference) to
  // the bit.
  const auto& atom = reference_run();
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  const auto pencil = run(core::reference_platform(), 1, config);
  EXPECT_EQ(pencil.energy.potential(), atom.energy.potential());
  EXPECT_EQ(pencil.position_checksum, atom.position_checksum);
  EXPECT_EQ(pencil.pairs_in_list, atom.pairs_in_list);
}

TEST(PencilDecompositionTest, MatchesSequentialAcrossRankCounts) {
  // Auto pencil grids: p=2 -> 1x2, 4 -> 2x2, 8 -> 2x4, 16 -> 4x4. The
  // pencil reciprocal sums partial energies over disjoint wavevector
  // sets and writes owned-atom forces directly, so the trajectory must
  // track the sequential reference at the same tolerance as the other
  // decompositions.
  const auto& ref = reference_run();
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  for (int p : {2, 4, 8, 16}) {
    const auto par = run(core::reference_platform(), p, config);
    EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
                std::abs(ref.energy.potential()) * 1e-6 + 1e-4)
        << "pencil p=" << p;
    EXPECT_NEAR(par.position_checksum, ref.position_checksum,
                std::abs(ref.position_checksum) * 1e-9)
        << "pencil p=" << p;
    EXPECT_EQ(par.pairs_in_list, ref.pairs_in_list) << "pencil p=" << p;
  }
}

TEST(PencilDecompositionTest, NonDivisiblePencilGridMatchesSequential) {
  // 3x5 pencils over the 36x48 grid: both plane partitions are uneven
  // (36/3 even but 48/5 ragged), and one of the 16 ranks sits outside
  // the 15-rank pencil grid entirely.
  const auto& ref = reference_run();
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil:grid=3x5");
  const auto par = run(core::reference_platform(), 16, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(PencilDecompositionTest, IdleRanksBeyondTheCellCount) {
  // p=100 > 72 cells: 28 ranks own no cells (empty PME regions, no plane
  // traffic of their own) while the auto 10x10 pencil grid still uses
  // them for FFT stages.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  config.nsteps = 2;
  CharmmConfig ref_config = short_config();
  ref_config.nsteps = 2;
  const auto ref = run(core::reference_platform(), 1, ref_config);
  const auto par = run(core::reference_platform(), 100, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(PencilDecompositionTest, MigratesAtomsAcrossARebuild) {
  // The PME regions are padded by the neighbor-list skin, so an atom
  // drifting within an epoch must never leave its rank's region; eight
  // steps cross the rebuild at step 5 where ownership changes hands.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  config.nsteps = 8;
  CharmmConfig ref_config = short_config();
  ref_config.nsteps = 8;
  const auto ref = run(core::reference_platform(), 1, ref_config);
  const auto par = run(core::reference_platform(), 8, config);
  EXPECT_GT(par.atoms_migrated, 0u);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(PencilDecompositionTest, RejectsInfeasiblePencilGrids) {
  // More pencils than ranks, and pencil counts exceeding the FFT plane
  // counts, must fail fast before any rank spins up.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil:grid=4x4");
  EXPECT_THROW(run(core::reference_platform(), 8, config), util::Error);
  config.decomp = parse_decomp_spec("spatial:pme=pencil:grid=40x2");
  EXPECT_THROW(run(core::reference_platform(), 80, config), util::Error);
  config.decomp = parse_decomp_spec("spatial:pme=pencil:grid=2x50");
  EXPECT_THROW(run(core::reference_platform(), 100, config), util::Error);
  // Pencil PME requires PME: with use_pme off the spec is contradictory.
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  config.use_pme = false;
  EXPECT_THROW(run(core::reference_platform(), 8, config), util::Error);
}

TEST(PencilDecompositionTest, MessageAndByteCountsAreExact) {
  // The pencil schedule — plane exchanges both ways plus the four
  // grouped transposes — is a fixed function of the layout and pencil
  // grid, so the predictor pins it exactly, like the halo schedule.
  core::Platform platform;
  platform.network = net::Network::kScoreGigE;
  const net::NetworkParams params = net::params_for(platform.network);
  for (const char* spec_text :
       {"spatial:pme=pencil", "spatial:pme=pencil:grid=3x5"}) {
    for (int p : {2, 4, 8, 16, 27}) {
      if (std::string(spec_text).find("3x5") != std::string::npos &&
          p < 16) {
        continue;  // 3x5 pencils need at least 15 ranks
      }
      CharmmConfig config = short_config(DecompKind::kSpatial);
      config.decomp = parse_decomp_spec(spec_text);
      config.coherency_barriers = false;
      const auto sim = run(platform, p, config);
      const core::OverheadPrediction pred = core::predict_step_overheads(
          params, p, system_fixture(), config);
      double sim_messages = 0.0;
      double sim_bytes = 0.0;
      for (const auto& ch : sim.metrics.channels) {
        sim_messages += static_cast<double>(ch.messages);
        sim_bytes += ch.bytes;
      }
      const double epilogue_messages = 2.0 * (p - 1);
      const double epilogue_bytes = 2.0 * (p - 1) * 24.0;
      EXPECT_DOUBLE_EQ(
          pred.messages_per_step() * config.nsteps + epilogue_messages,
          sim_messages)
          << spec_text << " p=" << p;
      EXPECT_DOUBLE_EQ(pred.bytes_per_step() * config.nsteps + epilogue_bytes,
                       sim_bytes)
          << spec_text << " p=" << p;
    }
  }
}

// --- analytic predictor ----------------------------------------------------

TEST(DecompositionModelTest, PredictsContentionFreeCommTimes) {
  // Same tolerance discipline as AnalyticModelTest in core_test: on the
  // deterministic stacks the closed-form model must land within 0.3x-3x
  // of the simulator's per-step communication time. Task decoupling is
  // checked on the combined schedule (its classic/pme split does not line
  // up with the breakdown's component attribution under overlap).
  const pme::PmeParams grid{80, 36, 48, 4, 0.34};
  for (net::Network network :
       {net::Network::kScoreGigE, net::Network::kMyrinetGM}) {
    core::Platform platform;
    platform.network = network;
    for (int p : {2, 4, 8}) {
      {
        const auto sim = run(platform, p, short_config(DecompKind::kForce));
        const core::OverheadPrediction pred = core::predict_step_overheads(
            net::params_for(network), p, sysbuild::kTotalAtoms, grid,
            DecompSpec{DecompKind::kForce, 0});
        const double sim_classic = sim.breakdown.classic_wall.comm / 4.0;
        const double sim_pme = sim.breakdown.pme_wall.comm / 4.0;
        EXPECT_GT(pred.classic_comm_per_step, 0.3 * sim_classic)
            << "force " << net::to_string(network) << " p=" << p;
        EXPECT_LT(pred.classic_comm_per_step, 3.0 * sim_classic)
            << "force " << net::to_string(network) << " p=" << p;
        EXPECT_GT(pred.pme_comm_per_step, 0.3 * sim_pme);
        EXPECT_LT(pred.pme_comm_per_step, 3.0 * sim_pme);
      }
      {
        const auto sim = run(platform, p, short_config(DecompKind::kTaskPme));
        const core::OverheadPrediction pred = core::predict_step_overheads(
            net::params_for(network), p, sysbuild::kTotalAtoms, grid,
            DecompSpec{DecompKind::kTaskPme, 0});
        const double sim_comm = (sim.breakdown.classic_wall.comm +
                                 sim.breakdown.pme_wall.comm) /
                                4.0;
        const double pred_comm =
            pred.classic_comm_per_step + pred.pme_comm_per_step;
        EXPECT_GT(pred_comm, 0.3 * sim_comm)
            << "task " << net::to_string(network) << " p=" << p;
        EXPECT_LT(pred_comm, 3.0 * sim_comm)
            << "task " << net::to_string(network) << " p=" << p;
      }
    }
  }
}

TEST(DecompositionModelTest, MessageAndByteCountsAreExact) {
  // The predicted schedule shape is not a model but a count: with the
  // coherency barriers off (their zero-byte rounds are excluded from the
  // prediction) the per-step message and byte totals must match the
  // simulator's channel counters exactly.
  // task:pme=3 at p=6 and p=7 puts three ranks in the PME group beside
  // three or four classic ranks, so the group reduces run on trees whose
  // size is not a power of two.
  const pme::PmeParams grid{80, 36, 48, 4, 0.34};
  core::Platform platform;
  platform.network = net::Network::kScoreGigE;
  const std::vector<std::pair<const char*, std::vector<int>>> cases = {
      {"atom", {3, 8}},
      {"force", {3, 8}},
      {"task", {3, 8}},
      {"task:pme=3", {6, 7}},
  };
  for (const auto& [spec_text, procs] : cases) {
    const DecompSpec spec = parse_decomp_spec(spec_text);
    for (int p : procs) {
      CharmmConfig config = short_config(spec.kind);
      config.decomp = spec;
      config.coherency_barriers = false;
      const auto sim = run(platform, p, config);
      const core::OverheadPrediction pred = core::predict_step_overheads(
          net::params_for(platform.network), p, sysbuild::kTotalAtoms, grid,
          spec);
      double sim_messages = 0.0;
      double sim_bytes = 0.0;
      for (const auto& ch : sim.metrics.channels) {
        sim_messages += static_cast<double>(ch.messages);
        sim_bytes += ch.bytes;
      }
      EXPECT_DOUBLE_EQ(pred.messages_per_step() * config.nsteps,
                       sim_messages)
          << spec_text << " p=" << p;
      EXPECT_DOUBLE_EQ(pred.bytes_per_step() * config.nsteps, sim_bytes)
          << spec_text << " p=" << p;
    }
  }
}

TEST(DecompositionModelTest, SpatialMessageAndByteCountsAreExact) {
  // The system-aware overload reproduces the simulator's own layout and
  // step-0 epoch, so within one epoch the halo schedule is an exact
  // count, not an estimate. The only traffic outside the per-step
  // schedule is the one-time 3-double result allreduce after the loop:
  // 2(p-1) messages of 24 bytes.
  core::Platform platform;
  platform.network = net::Network::kScoreGigE;
  const net::NetworkParams params = net::params_for(platform.network);
  for (bool use_pme : {true, false}) {
    for (int p : {2, 4, 8, 27}) {
      if (!use_pme && p != 8) continue;  // one PME-off pin is enough
      CharmmConfig config = short_config(DecompKind::kSpatial);
      config.coherency_barriers = false;
      config.use_pme = use_pme;
      const auto sim = run(platform, p, config);
      const core::OverheadPrediction pred = core::predict_step_overheads(
          params, p, system_fixture(), config);
      double sim_messages = 0.0;
      double sim_bytes = 0.0;
      for (const auto& ch : sim.metrics.channels) {
        sim_messages += static_cast<double>(ch.messages);
        sim_bytes += ch.bytes;
      }
      const double epilogue_messages = 2.0 * (p - 1);
      const double epilogue_bytes = 2.0 * (p - 1) * 24.0;
      EXPECT_DOUBLE_EQ(
          pred.messages_per_step() * config.nsteps + epilogue_messages,
          sim_messages)
          << "spatial p=" << p << " pme=" << use_pme;
      EXPECT_DOUBLE_EQ(pred.bytes_per_step() * config.nsteps + epilogue_bytes,
                       sim_bytes)
          << "spatial p=" << p << " pme=" << use_pme;
      if (!use_pme) {
        EXPECT_EQ(pred.pme_messages_per_step, 0.0);
        EXPECT_EQ(pred.pme_bytes_per_step, 0.0);
      }
    }
  }
}

TEST(DecompositionModelTest, SpatialPredictionNeedsTheBuiltSystem) {
  // The halo volumes are the border-cell populations, which an atom count
  // cannot capture — the natoms-only overload must refuse loudly rather
  // than return a wrong schedule.
  EXPECT_THROW(core::predict_step_overheads(
                   net::params_for(net::Network::kScoreGigE), 8,
                   sysbuild::kTotalAtoms, pme::PmeParams{80, 36, 48, 4, 0.34},
                   DecompSpec{DecompKind::kSpatial, 0}),
               util::Error);
}

TEST(DecompositionModelTest, SequentialHasNoScheduleTraffic) {
  const core::OverheadPrediction pred = core::predict_step_overheads(
      net::params_for(net::Network::kScoreGigE), 1, 3552,
      pme::PmeParams{80, 36, 48, 4, 0.34},
      DecompSpec{DecompKind::kForce, 0});
  EXPECT_EQ(pred.total_per_step(), 0.0);
  EXPECT_EQ(pred.messages_per_step(), 0.0);
  EXPECT_EQ(pred.bytes_per_step(), 0.0);
}

}  // namespace
}  // namespace repro::charmm
