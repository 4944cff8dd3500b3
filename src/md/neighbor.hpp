// Verlet pair list built with a cell grid under periodic boundaries.
//
// Pairs (i < j) within cutoff + skin, with excluded pairs removed, stored
// in CSR form. The list is valid until some atom moves more than skin/2
// from its position at build time.
//
// build() and build_subset() share one cell sweep (neighbor.cpp): bin the
// atoms into cell-sorted coordinate arrays, run a branch-free distance
// pass per home atom against its half stencil, drop excluded partners via
// a per-home-atom stamp, then assemble the CSR with two stable counting
// passes. The output is a pure function of the inputs: for finite
// positions, offsets() and neighbors() hold exactly the non-excluded
// pairs (i < j, ascending j within a row) whose Box::min_image distance
// is below cutoff + skin (build_subset() restricts them as documented
// there), byte for byte the same arrays however the sweep is organised.
// Grids with fewer than 3 cells along a dimension fall back to one cell
// holding every atom (all pairs tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "md/box.hpp"
#include "md/topology.hpp"
#include "util/vec3.hpp"

namespace repro::md {

class NeighborList {
 public:
  NeighborList(double cutoff, double skin) : cutoff_(cutoff), skin_(skin) {
    REPRO_REQUIRE(cutoff > 0.0 && skin >= 0.0, "bad neighbor-list radii");
  }

  void build(const Topology& topo, const Box& box,
             const std::vector<util::Vec3>& pos);

  // Spatial-decomposition build: the same CSR list restricted to a rank's
  // atoms. Only atoms in `candidates` (a rank's owned + ghost set) are
  // binned, and a pair (i < j) is kept iff row_mask[i] is set — so the
  // union over ranks of disjoint row masks reproduces build()'s exact
  // pair set when every candidate list covers the mask's range
  // neighborhood. Entries of `pos` outside `candidates` are never read.
  // Offsets still span all natoms rows (non-candidate rows are empty), so
  // the nonbonded kernels run unchanged. Bypasses the build memo (the
  // inputs are rank-local, never shared), so the list has no identity().
  void build_subset(const Topology& topo, const Box& box,
                    const std::vector<util::Vec3>& pos,
                    const std::vector<int>& candidates,
                    const std::vector<std::uint8_t>& row_mask);

  bool needs_rebuild(const Box& box,
                     const std::vector<util::Vec3>& pos) const;

  // CSR access: neighbors of atom i are neighbors()[offsets()[i] ..
  // offsets()[i+1]).
  const std::vector<std::size_t>& offsets() const { return *offsets_view_; }
  const std::vector<int>& neighbors() const { return *neighbors_view_; }
  std::size_t npairs() const { return neighbors_view_->size(); }

  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }

  // After build(): the build-memo entry whose arrays this list views (see
  // build()'s memoization in neighbor.cpp). Lists with the same identity
  // hold the same arrays, and the address cannot be reused while a copy of
  // the pointer is held, so (address, held pointer) names the pair list
  // exactly; the nonbonded pair memo keys on it. Null after build_subset().
  const std::shared_ptr<const void>& identity() const { return identity_; }

  // The views may point into a shared build-memo entry, so copying a list
  // would alias or dangle.
  NeighborList(const NeighborList&) = delete;
  NeighborList& operator=(const NeighborList&) = delete;

 private:
  double cutoff_;
  double skin_;
  // The sweep's output; after build() it has moved into the memo entry,
  // so only build_subset() lists view these members.
  std::vector<std::size_t> offsets_;
  std::vector<int> neighbors_;
  std::vector<util::Vec3> built_pos_;
  Box built_box_;

  // A build() list views its memo entry's arrays instead of copying ~MBs
  // of CSR data; identity_ pins the entry while the views point at it.
  std::shared_ptr<const void> identity_;
  const std::vector<std::size_t>* offsets_view_ = &offsets_;
  const std::vector<int>* neighbors_view_ = &neighbors_;
  const std::vector<util::Vec3>* built_pos_view_ = &built_pos_;

  // The shared sweep: candidates == nullptr bins every atom, row_mask ==
  // nullptr keeps every row. Its scratch is one thread-local set, not
  // per-list members: a build never yields, so fibers sharing a thread
  // cannot interleave inside it.
  void sweep(const Topology& topo, const Box& box,
             const std::vector<util::Vec3>& pos,
             const std::vector<int>* candidates,
             const std::vector<std::uint8_t>* row_mask);
};

}  // namespace repro::md
