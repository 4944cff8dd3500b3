#include "sysbuild/io.hpp"

#include <array>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace repro::sysbuild {

namespace {

// Full round-trip precision for doubles.
std::ostream& prec(std::ostream& out) {
  return out << std::setprecision(17);
}

std::string expect_section(std::istream& in, const std::string& name) {
  std::string token;
  in >> token;
  REPRO_REQUIRE(in.good() && token == name,
                "system file: expected section '" + name + "', got '" +
                    token + "'");
  return token;
}

// Reads one bonded-term section: its header, its count, then one term
// per record. `read(in, term)` parses a record and returns its atom
// indices. Reading stops at the first failed record (a declared count
// larger than the file never spins), and a term whose indices fall
// outside [0, natoms) or repeat is rejected, naming the section and term.
template <typename Term, typename Read>
void read_terms(std::istream& in, const std::string& section, int natoms,
                std::vector<Term>& out, Read read) {
  expect_section(in, section);
  std::size_t count = 0;
  in >> count;
  REPRO_REQUIRE(!in.fail(), "system file: bad " + section + " count");
  for (std::size_t t = 0; t < count; ++t) {
    Term term;
    const auto ids = read(in, term);
    const auto where = [&] {
      return "system file: section '" + section + "' term " +
             std::to_string(t) + ": ";
    };
    REPRO_REQUIRE(!in.fail(), where() + "truncated or malformed");
    for (std::size_t a = 0; a < ids.size(); ++a) {
      REPRO_REQUIRE(ids[a] >= 0 && ids[a] < natoms,
                    where() + "atom index " + std::to_string(ids[a]) +
                        " outside [0, " + std::to_string(natoms) + ")");
      for (std::size_t b = 0; b < a; ++b) {
        REPRO_REQUIRE(ids[a] != ids[b], where() + "atom index " +
                                            std::to_string(ids[a]) +
                                            " repeated");
      }
    }
    out.push_back(term);
  }
}

}  // namespace

void write_system(std::ostream& out, const BuiltSystem& sys) {
  prec(out);
  out << "RSYS 1\n";
  out << "name " << (sys.name.empty() ? "unnamed" : sys.name) << "\n";
  out << "box " << sys.box.lx() << " " << sys.box.ly() << " " << sys.box.lz()
      << "\n";
  out << "atoms " << sys.topo.natoms() << "\n";
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    const md::AtomParams& a = sys.topo.atom(i);
    const util::Vec3& r = sys.positions[static_cast<std::size_t>(i)];
    out << a.mass << " " << a.charge << " " << a.eps << " " << a.rmin_half
        << " " << r.x << " " << r.y << " " << r.z << "\n";
  }
  out << "bonds " << sys.topo.bonds().size() << "\n";
  for (const auto& b : sys.topo.bonds()) {
    out << b.i << " " << b.j << " " << b.kb << " " << b.b0 << "\n";
  }
  out << "angles " << sys.topo.angles().size() << "\n";
  for (const auto& a : sys.topo.angles()) {
    out << a.i << " " << a.j << " " << a.k << " " << a.ktheta << " "
        << a.theta0 << " " << a.kub << " " << a.s0 << "\n";
  }
  out << "dihedrals " << sys.topo.dihedrals().size() << "\n";
  for (const auto& d : sys.topo.dihedrals()) {
    out << d.i << " " << d.j << " " << d.k << " " << d.l << " " << d.kchi
        << " " << d.n << " " << d.delta << "\n";
  }
  out << "impropers " << sys.topo.impropers().size() << "\n";
  for (const auto& im : sys.topo.impropers()) {
    out << im.i << " " << im.j << " " << im.k << " " << im.l << " "
        << im.kpsi << " " << im.psi0 << "\n";
  }
  out << "end\n";
}

void save_system(const std::string& path, const BuiltSystem& sys) {
  std::ofstream out(path);
  REPRO_REQUIRE(out.good(), "cannot open system file for writing: " + path);
  write_system(out, sys);
  REPRO_REQUIRE(out.good(), "system file write failed: " + path);
}

BuiltSystem read_system(std::istream& in) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  REPRO_REQUIRE(magic == "RSYS" && version == 1,
                "not an RSYS version-1 system file");
  expect_section(in, "name");
  std::string name;
  in >> name;
  expect_section(in, "box");
  double lx, ly, lz;
  in >> lx >> ly >> lz;
  REPRO_REQUIRE(!in.fail(), "system file: bad box lengths");
  expect_section(in, "atoms");
  int natoms = 0;
  in >> natoms;
  REPRO_REQUIRE(in.good() && natoms > 0, "system file: bad atom count");

  // Atoms are read before the system is sized, so a declared count the
  // file cannot back fails at the first missing record instead of
  // allocating for it up front.
  std::vector<md::AtomParams> atoms;
  std::vector<util::Vec3> positions;
  for (int i = 0; i < natoms; ++i) {
    md::AtomParams a;
    util::Vec3 r;
    in >> a.mass >> a.charge >> a.eps >> a.rmin_half >> r.x >> r.y >> r.z;
    REPRO_REQUIRE(!in.fail(), "system file: section 'atoms' atom " +
                                  std::to_string(i) +
                                  ": truncated or malformed");
    atoms.push_back(a);
    positions.push_back(r);
  }
  BuiltSystem sys(natoms, md::Box(lx, ly, lz), name);
  for (int i = 0; i < natoms; ++i) {
    sys.topo.atom(i) = atoms[static_cast<std::size_t>(i)];
  }
  sys.positions = std::move(positions);

  read_terms(in, "bonds", natoms, sys.topo.bonds(),
             [](std::istream& s, md::Bond& b) {
               s >> b.i >> b.j >> b.kb >> b.b0;
               return std::array{b.i, b.j};
             });
  read_terms(in, "angles", natoms, sys.topo.angles(),
             [](std::istream& s, md::Angle& a) {
               s >> a.i >> a.j >> a.k >> a.ktheta >> a.theta0 >> a.kub >>
                   a.s0;
               return std::array{a.i, a.j, a.k};
             });
  read_terms(in, "dihedrals", natoms, sys.topo.dihedrals(),
             [](std::istream& s, md::Dihedral& d) {
               s >> d.i >> d.j >> d.k >> d.l >> d.kchi >> d.n >> d.delta;
               return std::array{d.i, d.j, d.k, d.l};
             });
  read_terms(in, "impropers", natoms, sys.topo.impropers(),
             [](std::istream& s, md::Improper& im) {
               s >> im.i >> im.j >> im.k >> im.l >> im.kpsi >> im.psi0;
               return std::array{im.i, im.j, im.k, im.l};
             });
  expect_section(in, "end");
  REPRO_REQUIRE(!in.fail(), "system file: truncated or malformed");
  sys.topo.build_exclusions();
  return sys;
}

BuiltSystem load_system(const std::string& path) {
  std::ifstream in(path);
  REPRO_REQUIRE(in.good(), "cannot open system file for reading: " + path);
  return read_system(in);
}

namespace {

const char* element_from_mass(double mass) {
  if (mass < 2.0) return " H";
  if (mass < 13.0) return " C";
  if (mass < 15.0) return " N";
  if (mass < 17.0) return " O";
  if (mass < 33.0) return " S";
  return " X";
}

}  // namespace

void write_pdb(std::ostream& out, const BuiltSystem& sys) {
  char line[96];
  std::snprintf(line, sizeof(line),
                "CRYST1%9.3f%9.3f%9.3f  90.00  90.00  90.00 P 1\n",
                sys.box.lx(), sys.box.ly(), sys.box.lz());
  out << line;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    const util::Vec3& r = sys.positions[static_cast<std::size_t>(i)];
    const char* element = element_from_mass(sys.topo.atom(i).mass);
    // PDB atom serials are 5 columns wide; wrap like the big-system tools.
    std::snprintf(line, sizeof(line),
                  "ATOM  %5d %2s   MOL A   1    %8.3f%8.3f%8.3f  1.00  "
                  "0.00          %2s\n",
                  (i % 99999) + 1, element + 1, r.x, r.y, r.z, element);
    out << line;
  }
  // CONECT records only fit 5-digit serials; emit while within range.
  for (const auto& b : sys.topo.bonds()) {
    if (b.i >= 99999 || b.j >= 99999) continue;
    std::snprintf(line, sizeof(line), "CONECT%5d%5d\n", b.i + 1, b.j + 1);
    out << line;
  }
  out << "END\n";
}

void save_pdb(const std::string& path, const BuiltSystem& sys) {
  std::ofstream out(path);
  REPRO_REQUIRE(out.good(), "cannot open PDB file for writing: " + path);
  write_pdb(out, sys);
  REPRO_REQUIRE(out.good(), "PDB write failed: " + path);
}

}  // namespace repro::sysbuild
