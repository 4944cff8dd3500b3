#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "md/neighbor.hpp"
#include "sysbuild/builder.hpp"
#include "sysbuild/io.hpp"
#include "util/error.hpp"

namespace repro::sysbuild {
namespace {

using util::Vec3;

// The full system is expensive to build; share one instance.
const BuiltSystem& myoglobin() {
  static const BuiltSystem sys = build_myoglobin_like();
  return sys;
}

TEST(MyoglobinTest, PaperCompositionExact) {
  const auto& sys = myoglobin();
  EXPECT_EQ(sys.topo.natoms(), kTotalAtoms);
  EXPECT_EQ(sys.topo.natoms(), 3552);
  EXPECT_EQ(static_cast<int>(sys.positions.size()), 3552);
  // Box matches the PME grid of the paper (80 x 36 x 48 at ~1 Å).
  EXPECT_DOUBLE_EQ(sys.box.lx(), 80.0);
  EXPECT_DOUBLE_EQ(sys.box.ly(), 36.0);
  EXPECT_DOUBLE_EQ(sys.box.lz(), 48.0);
}

TEST(MyoglobinTest, ChargeNeutral) {
  EXPECT_NEAR(myoglobin().topo.total_charge(), 0.0, 1e-9);
}

TEST(MyoglobinTest, RealisticTermCounts) {
  const auto& topo = myoglobin().topo;
  // All-atom protein + waters: counts in the range of real CHARMM systems.
  EXPECT_GT(topo.bonds().size(), 3000u);
  EXPECT_LT(topo.bonds().size(), 4200u);
  EXPECT_GT(topo.angles().size(), 3500u);
  EXPECT_GT(topo.dihedrals().size(), 4000u);
  EXPECT_EQ(topo.impropers().size(), 152u);  // one per peptide carbonyl
}

TEST(MyoglobinTest, RoughlyHalfHydrogens) {
  const auto& topo = myoglobin().topo;
  int hydrogens = 0;
  for (int i = 0; i < topo.natoms(); ++i) {
    if (topo.atom(i).mass < 2.0) ++hydrogens;
  }
  const double frac = static_cast<double>(hydrogens) / topo.natoms();
  EXPECT_GT(frac, 0.30);
  EXPECT_LT(frac, 0.60);
}

TEST(MyoglobinTest, NoCatastrophicContacts) {
  const auto& sys = myoglobin();
  double worst = 1e30;
  // Cell-assisted scan via the neighbor list with a small cutoff.
  md::NeighborList nbl(3.0, 0.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    for (std::size_t t = nbl.offsets()[static_cast<std::size_t>(i)];
         t < nbl.offsets()[static_cast<std::size_t>(i) + 1]; ++t) {
      const int j = nbl.neighbors()[t];
      worst = std::min(
          worst, util::norm(sys.box.min_image(
                     sys.positions[static_cast<std::size_t>(i)] -
                     sys.positions[static_cast<std::size_t>(j)])));
    }
  }
  // Non-bonded pairs must never be inside the hard floor where the r^-12
  // wall dominates the total energy.
  EXPECT_GT(worst, 0.7);
}

TEST(MyoglobinTest, BondsAtEquilibrium) {
  // Self-consistent parameterization: b0 equals the built length.
  const auto& sys = myoglobin();
  for (const auto& b : sys.topo.bonds()) {
    const double r = util::norm(sys.box.min_image(
        sys.positions[static_cast<std::size_t>(b.i)] -
        sys.positions[static_cast<std::size_t>(b.j)]));
    EXPECT_NEAR(r, b.b0, 1e-9);
  }
}

TEST(MyoglobinTest, DeterministicForSeed) {
  const auto a = build_myoglobin_like(123);
  const auto b = build_myoglobin_like(123);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
  }
  const auto c = build_myoglobin_like(124);
  bool any_differ = false;
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    if (!(a.positions[i] == c.positions[i])) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(MyoglobinTest, AtomsInsideBox) {
  const auto& sys = myoglobin();
  for (const auto& r : sys.positions) {
    EXPECT_GE(r.x, 0.0);
    EXPECT_LT(r.x, sys.box.lx());
    EXPECT_GE(r.y, 0.0);
    EXPECT_LT(r.y, sys.box.ly());
    EXPECT_GE(r.z, 0.0);
    EXPECT_LT(r.z, sys.box.lz());
  }
}

TEST(WaterBoxTest, CompositionAndDensity) {
  const auto sys = build_water_box(4);
  EXPECT_EQ(sys.topo.natoms(), 4 * 4 * 4 * 3);
  EXPECT_EQ(sys.topo.bonds().size(), 2u * 64u);
  EXPECT_EQ(sys.topo.angles().size(), 64u);
  // ~1 g/cm^3: 64 waters * 18 amu in the box volume.
  const double density_amu_per_a3 =
      sys.topo.total_mass() / sys.box.volume();
  EXPECT_NEAR(density_amu_per_a3, 0.60, 0.05);  // 1 g/cm^3 = 0.602 amu/Å^3
  EXPECT_NEAR(sys.topo.total_charge(), 0.0, 1e-9);
}

TEST(WaterBoxTest, GeometryIsTip3pLike) {
  const auto sys = build_water_box(2);
  for (const auto& b : sys.topo.bonds()) {
    EXPECT_NEAR(b.b0, 0.9572, 1e-6);
  }
  for (const auto& a : sys.topo.angles()) {
    EXPECT_NEAR(a.theta0, 104.52 * std::numbers::pi / 180.0, 1e-6);
  }
}

TEST(RandomChargesTest, NeutralAndInBox) {
  const md::Box box(9, 11, 13);
  const auto sys = build_random_charges(24, box, 5);
  EXPECT_EQ(sys.topo.natoms(), 24);
  EXPECT_NEAR(sys.topo.total_charge(), 0.0, 1e-12);
  EXPECT_TRUE(sys.topo.bonds().empty());
  for (const auto& r : sys.positions) {
    EXPECT_GE(r.x, 0.0);
    EXPECT_LT(r.x, 9.0);
  }
  EXPECT_THROW(build_random_charges(7, box, 1), util::Error);
}

TEST(TestChainTest, HasAllBondedTermTypes) {
  const auto sys = build_test_chain(10, 2);
  EXPECT_EQ(sys.topo.natoms(), 10);
  EXPECT_EQ(sys.topo.bonds().size(), 9u);
  EXPECT_EQ(sys.topo.angles().size(), 8u);
  EXPECT_EQ(sys.topo.dihedrals().size(), 7u);
  EXPECT_EQ(sys.topo.impropers().size(), 1u);
}


// --- .rsys loading: malformed files fail loudly ------------------------------

// A valid system file for a 10-atom chain, as lines.
std::vector<std::string> chain_file_lines() {
  std::stringstream out;
  write_system(out, build_test_chain(10, 2));
  std::vector<std::string> lines;
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  return lines;
}

std::size_t line_of(const std::vector<std::string>& lines,
                    const std::string& prefix) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind(prefix, 0) == 0) return i;
  }
  ADD_FAILURE() << "no line starting with " << prefix;
  return 0;
}

// Writes `lines` to a temporary .rsys file, loads it, and returns the
// loader's error message ("" when it loads).
std::string load_error(const std::vector<std::string>& lines) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_sysbuild_test.rsys")
          .string();
  {
    std::ofstream f(path);
    for (const auto& line : lines) f << line << "\n";
  }
  std::string message;
  try {
    load_system(path);
  } catch (const util::Error& e) {
    message = e.what();
  }
  std::filesystem::remove(path);
  return message;
}

TEST(SystemLoadTest, ValidFileLoads) {
  EXPECT_EQ(load_error(chain_file_lines()), "");
}

TEST(SystemLoadTest, HugeDeclaredCountStopsAtFirstMissingTerm) {
  // Formerly spun through four billion failed reads.
  auto lines = chain_file_lines();
  lines[line_of(lines, "bonds ")] = "bonds 4000000000";
  const std::string message = load_error(lines);
  EXPECT_NE(message.find("section 'bonds' term 9"), std::string::npos)
      << message;
  EXPECT_NE(message.find("truncated or malformed"), std::string::npos);

  lines = chain_file_lines();
  lines[line_of(lines, "atoms ")] = "atoms 2000000000";
  EXPECT_NE(load_error(lines).find("section 'atoms' atom 10"),
            std::string::npos);
}

TEST(SystemLoadTest, RejectsOutOfRangeTermIndices) {
  // Formerly loaded, then segfaulted in the bonded kernels.
  auto lines = chain_file_lines();
  const std::size_t bond0 = line_of(lines, "bonds ") + 1;
  lines[bond0] = "0 4000 300 1.5";
  std::string message = load_error(lines);
  EXPECT_NE(message.find("section 'bonds' term 0"), std::string::npos)
      << message;
  EXPECT_NE(message.find("atom index 4000 outside [0, 10)"),
            std::string::npos)
      << message;

  lines = chain_file_lines();
  lines[line_of(lines, "angles ") + 2] = "-1 1 2 50 1.9 0 0";
  message = load_error(lines);
  EXPECT_NE(message.find("section 'angles' term 1"), std::string::npos)
      << message;
  EXPECT_NE(message.find("atom index -1 outside"), std::string::npos);
}

TEST(SystemLoadTest, RejectsRepeatedAtomsWithinATerm) {
  auto lines = chain_file_lines();
  lines[line_of(lines, "dihedrals ") + 1] = "0 1 2 1 0.2 3 0";
  std::string message = load_error(lines);
  EXPECT_NE(message.find("section 'dihedrals' term 0"), std::string::npos)
      << message;
  EXPECT_NE(message.find("atom index 1 repeated"), std::string::npos);

  lines = chain_file_lines();
  lines[line_of(lines, "impropers ") + 1] = "3 3 4 5 10 0";
  EXPECT_NE(load_error(lines).find("section 'impropers' term 0"),
            std::string::npos);
}

}  // namespace
}  // namespace repro::sysbuild
