// Molecular topology: per-atom parameters, bonded terms, exclusions.
//
// The functional forms follow the CHARMM all-atom force field:
//   bonds      E = Kb (b - b0)^2
//   angles     E = Ktheta (theta - theta0)^2   [+ Urey-Bradley 1-3 term]
//   dihedrals  E = Kchi (1 + cos(n chi - delta))
//   impropers  E = Kpsi (psi - psi0)^2
//   LJ         E = eps [ (Rmin/r)^12 - 2 (Rmin/r)^6 ]  (Emin/Rmin form)
//   Coulomb    E = kCoulomb qi qj / r  (modified by the chosen method)
//
// Non-bonded exclusions follow CHARMM's NBXMOD convention: NBXMOD 2
// excludes 1-2 pairs, NBXMOD 3 (our default) also excludes 1-3 pairs, and
// NBXMOD 4 additionally excludes 1-4 pairs. (CHARMM's NBXMOD 5 — special
// 1-4 parameters — is approximated by NBXMOD 3 with full 1-4 parameters, a
// simplification that does not affect the workload shape; see DESIGN.md.)
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace repro::md {

struct AtomParams {
  double mass = 1.0;       // amu
  double charge = 0.0;     // e
  double eps = 0.0;        // kcal/mol (positive well depth)
  double rmin_half = 0.0;  // Å (Rmin/2 of the CHARMM LJ form)
};

struct Bond {
  int i = 0, j = 0;
  double kb = 0.0;  // kcal/mol/Å^2
  double b0 = 0.0;  // Å
};

struct Angle {
  int i = 0, j = 0, k = 0;  // j is the vertex
  double ktheta = 0.0;      // kcal/mol/rad^2
  double theta0 = 0.0;      // rad
  double kub = 0.0;         // Urey-Bradley (0 => none), kcal/mol/Å^2
  double s0 = 0.0;          // Urey-Bradley 1-3 distance, Å
};

struct Dihedral {
  int i = 0, j = 0, k = 0, l = 0;
  double kchi = 0.0;   // kcal/mol
  int n = 1;           // multiplicity
  double delta = 0.0;  // phase, rad
};

struct Improper {
  int i = 0, j = 0, k = 0, l = 0;
  double kpsi = 0.0;  // kcal/mol/rad^2
  double psi0 = 0.0;  // rad
};

// CHARMM NBXMOD levels (see the header comment).
enum class ExclusionPolicy {
  kBonds = 2,          // exclude 1-2
  kBondsAngles = 3,    // exclude 1-2 and 1-3 (default)
  kBondsAnglesDihedrals = 4,  // exclude 1-2, 1-3 and 1-4
};

class Topology {
 public:
  explicit Topology(int natoms) : atoms_(static_cast<std::size_t>(natoms)) {}

  int natoms() const { return static_cast<int>(atoms_.size()); }

  AtomParams& atom(int i) { return atoms_[static_cast<std::size_t>(i)]; }
  const AtomParams& atom(int i) const {
    return atoms_[static_cast<std::size_t>(i)];
  }

  std::vector<Bond>& bonds() { return bonds_; }
  const std::vector<Bond>& bonds() const { return bonds_; }
  std::vector<Angle>& angles() { return angles_; }
  const std::vector<Angle>& angles() const { return angles_; }
  std::vector<Dihedral>& dihedrals() { return dihedrals_; }
  const std::vector<Dihedral>& dihedrals() const { return dihedrals_; }
  std::vector<Improper>& impropers() { return impropers_; }
  const std::vector<Improper>& impropers() const { return impropers_; }

  // Derives the exclusion lists from the bond graph per the policy. Must
  // be called after all bonds are added (and again if bonds change).
  void build_exclusions(
      ExclusionPolicy policy = ExclusionPolicy::kBondsAngles);

  // True when the (unordered) pair i,j is excluded from non-bonded
  // interactions. Valid after build_exclusions().
  bool excluded(int i, int j) const;

  // Sorted exclusion partners of atom i (both directions: j is listed
  // for i exactly when i is listed for j). Valid after build_exclusions().
  const std::vector<int>& exclusions_of(int i) const {
    REPRO_REQUIRE(!exclusions_.empty(),
                  "call build_exclusions() before querying exclusions");
    return exclusions_[static_cast<std::size_t>(i)];
  }

  // All excluded pairs with i < j (for Ewald exclusion corrections).
  const std::vector<std::pair<int, int>>& excluded_pairs() const {
    return excluded_pairs_;
  }

  double total_charge() const;
  double total_mass() const;

 private:
  std::vector<AtomParams> atoms_;
  std::vector<Bond> bonds_;
  std::vector<Angle> angles_;
  std::vector<Dihedral> dihedrals_;
  std::vector<Improper> impropers_;
  std::vector<std::vector<int>> exclusions_;
  std::vector<std::pair<int, int>> excluded_pairs_;
};

}  // namespace repro::md
