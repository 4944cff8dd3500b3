// Non-bonded energy/force kernels.
//
// Lennard-Jones uses CHARMM's Emin/Rmin form with an energy switching
// function between switch_on and cutoff (VSWITCH). Electrostatics is one
// of:
//   kShift       — CHARMM SHIFT: qq/r (1 - r^2/rc^2)^2, the paper's
//                  "electrostatic interactions shifted to zero at 10 Å"
//                  (the classic, non-PME model), and
//   kEwaldDirect — the real-space Ewald term qq erfc(beta r)/r used for the
//                  direct sum when PME handles the long-range part.
//
// Every kernel ships two variants behind NonbondedOptions::kernel:
//   kScalar — the straight-line reference; bit-identical to the historical
//             implementation and to the goldens.
//   kSimd   — SoA-staged, width-agnostic vector lanes (#pragma omp simd)
//             with a chunked gather/compact/compute structure and
//             Hermite-table erfc/exp. Deterministic across reruns; agrees
//             with kScalar to ~1e-12 (pinned by kernel_variant_test).
// Both variants report identical NonbondedWork counters, so the DES cost
// model charges the same simulated time either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "md/box.hpp"
#include "md/energy.hpp"
#include "md/neighbor.hpp"
#include "md/topology.hpp"
#include "util/kernel.hpp"
#include "util/vec3.hpp"

namespace repro::md {

// Precomputed LJ mixing table: atoms are deduplicated into LJ types by
// their exact (eps, rmin_half) values and the CHARMM combining rules are
// applied once per type pair instead of once per interaction
// (sqrt(eps_i eps_j) on identical inputs is correctly rounded, so the
// scalar path through the table is bit-identical to the per-pair math it
// replaces). charge is the SoA copy the simd gather loops read.
struct PairTable {
  int ntypes = 0;
  std::vector<int> type_of;    // natoms -> LJ type id
  std::vector<double> eps;     // ntypes^2: sqrt(eps_i * eps_j)
  std::vector<double> rmin;    // ntypes^2: rmin_half_i + rmin_half_j
  std::vector<double> charge;  // natoms (e)
};

// Builds the table once at topology setup; callers stash it on
// NonbondedOptions::table so per-step kernel calls skip the dedup pass.
std::shared_ptr<const PairTable> build_pair_table(const Topology& topo);

struct NonbondedOptions {
  double cutoff = 10.0;     // Å (ctofnb)
  double switch_on = 8.0;   // Å (ctonnb, vdW switching)
  enum class Elec { kShift, kEwaldDirect } elec = Elec::kShift;
  double beta = 0.34;       // Ewald splitting parameter, 1/Å
  util::KernelKind kernel = util::KernelKind::kScalar;
  // Optional precomputed mixing table; when null the kernels build a
  // local one per call (identical results, just repeated setup work).
  std::shared_ptr<const PairTable> table;
};

struct NonbondedWork {
  std::size_t pairs_listed = 0;   // pairs examined from the list
  std::size_t pairs_in_cutoff = 0;
  double lj = 0.0;
  double elec = 0.0;
};

// Evaluates the shard's share of the pair list (i-atoms with
// i % stride == shard), accumulating into forces/energy.
//
// Sharded calls (stride > 1) on a build() list go through an exact-input
// memo (util/memo.hpp, nonbonded.cpp): the replicated ranks of a factorial
// sweep repeat the same calls cell after cell. The key is every input the
// kernel reads (options, box, shard/stride, positions, incoming forces,
// the pair table's bytes and the list's identity()). A hit copies out the
// stored forces and work and adds work.lj / work.elec to energy exactly as
// the kernel does, so it is byte-identical to evaluating. stride == 1
// calls and build_subset() lists (no identity) always evaluate.
NonbondedWork nonbonded_energy(const Topology& topo, const Box& box,
                               const std::vector<util::Vec3>& pos,
                               const NeighborList& nbl,
                               const NonbondedOptions& opts,
                               std::vector<util::Vec3>& forces,
                               EnergyTerms& energy, int shard = 0,
                               int stride = 1);

// Lookups of the sharded pair memo since process start that hit / missed
// (tests assert the memo is used through these; no result depends on them).
std::uint64_t pair_memo_hits();
std::uint64_t pair_memo_misses();

// Force-decomposition variant: evaluates pair (i, j) of the list iff
// (block[i] + block[j]) % nowners == owner, where block[] maps each atom
// to its contiguous block (one block per rank). Every pair of the list
// belongs to exactly one owner, so summing over owners reproduces
// nonbonded_energy's totals. pairs_listed counts the owned pairs.
NonbondedWork nonbonded_energy_blocked(const Topology& topo, const Box& box,
                                       const std::vector<util::Vec3>& pos,
                                       const NeighborList& nbl,
                                       const NonbondedOptions& opts,
                                       const std::vector<int>& block,
                                       int owner, int nowners,
                                       std::vector<util::Vec3>& forces,
                                       EnergyTerms& energy);

// Reference O(N^2) evaluation (tests): identical physics without a list.
// Always runs the scalar variant — it is the oracle the simd path is
// checked against.
NonbondedWork nonbonded_energy_reference(const Topology& topo, const Box& box,
                                         const std::vector<util::Vec3>& pos,
                                         const NonbondedOptions& opts,
                                         std::vector<util::Vec3>& forces,
                                         EnergyTerms& energy);

}  // namespace repro::md
