#include "md/neighbor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/memo.hpp"

namespace repro::md {

namespace {

struct CellGrid {
  int ncx, ncy, ncz;
  double lx, ly, lz;

  int cell_of(const util::Vec3& r) const {
    auto idx = [](double coord, double len, int n) {
      int c = static_cast<int>(std::floor(coord / len *
                                          static_cast<double>(n)));
      c %= n;
      if (c < 0) c += n;
      return c;
    };
    const int cx = idx(r.x, lx, ncx);
    const int cy = idx(r.y, ly, ncy);
    const int cz = idx(r.z, lz, ncz);
    return (cx * ncy + cy) * ncz + cz;
  }
};

// std::nearbyint under the default rounding mode (round half to even), up
// to the sign of a zero result, written so the distance pass vectorizes
// without a libm call: adding and removing 2^52 rounds to an integer.
// |v| >= 2^52 (and NaN, inf) is already integral and passes through. Only
// constants are selected, so no floating-point op sits behind a branch.
inline double round_half_even(double v) {
  constexpr double kTwo52 = 0x1p52;
  const double m = std::fabs(v) < kTwo52 ? std::copysign(kTwo52, v) : 0.0;
  return (v + m) - m;
}

// Per-atom and per-cell sweep scratch, one set per thread. Contents are
// meaningless between builds; keeping the capacities means a warm rebuild
// allocates nothing here. The pair-sized buffers live only for one call,
// so no thread holds megabytes between full-system builds.
struct SweepScratch {
  std::vector<int> slot_cell;
  std::vector<std::size_t> cell_start;
  std::vector<std::size_t> cursor;
  std::vector<double> x, y, z;  // cell-sorted coordinates
  std::vector<int> id;          // cell-sorted atom ids
  std::vector<std::size_t> row_end;  // per cell: end of its row atoms
  std::vector<double> r2;
  std::vector<int> stamp;  // stamp[j] == i: j is excluded from home atom i
  std::vector<std::size_t> j_start;
};

SweepScratch& sweep_scratch() {
  static thread_local SweepScratch s;
  return s;
}

// --- Build memoization -----------------------------------------------------
//
// The replicated-data decomposition has every simulated rank build the
// same list from the same coordinates, and a factorial sweep replays the
// same deterministic trajectory for every network/middleware cell, so
// almost every build() call in a sweep repeats an earlier one exactly.
// An ExactMemo keyed by the full build inputs (radii, box lengths,
// positions, exclusion list) returns the stored CSR arrays, which are the
// exact arrays the sweep would have produced. A miss moves the swept
// arrays into the new entry, so every build() list views an entry and the
// entry's address is the list's identity (NeighborList::identity()).
struct BuiltList {
  std::vector<util::Vec3> pos;
  std::vector<std::size_t> offsets;
  std::vector<int> neighbors;
};

// Key element types must be padding-free (util/memo.hpp).
static_assert(sizeof(util::Vec3) == 3 * sizeof(double));
static_assert(sizeof(std::pair<int, int>) == 2 * sizeof(int));

util::ExactMemo<BuiltList>& build_memo() {
  // FIFO; a 10-step run rebuilds far fewer than 12 times.
  static util::ExactMemo<BuiltList> memo(12);
  return memo;
}

}  // namespace

void NeighborList::build(const Topology& topo, const Box& box,
                         const std::vector<util::Vec3>& pos) {
  REPRO_REQUIRE(static_cast<int>(pos.size()) == topo.natoms(),
                "position array size mismatch");
  const std::array<double, 5> radii_box{cutoff_, skin_, box.lx(), box.ly(),
                                        box.lz()};
  const util::MemoKey key{util::key_bytes(radii_box), util::key_bytes(pos),
                          util::key_bytes(topo.excluded_pairs())};
  std::shared_ptr<const BuiltList> entry = build_memo().find(key);
  if (!entry) {
    sweep(topo, box, pos, nullptr, nullptr);
    entry = build_memo().insert(
        key, BuiltList{pos, std::move(offsets_), std::move(neighbors_)});
  }
  // View the entry's arrays (immutable, pinned by identity_) on a hit and
  // on a miss alike: the list never holds a private copy of them.
  offsets_view_ = &entry->offsets;
  neighbors_view_ = &entry->neighbors;
  built_pos_view_ = &entry->pos;
  built_box_ = box;
  identity_ = std::move(entry);
}

void NeighborList::build_subset(const Topology& topo, const Box& box,
                                const std::vector<util::Vec3>& pos,
                                const std::vector<int>& candidates,
                                const std::vector<std::uint8_t>& row_mask) {
  REPRO_REQUIRE(static_cast<int>(pos.size()) == topo.natoms() &&
                    row_mask.size() == pos.size(),
                "position/mask array size mismatch");
  sweep(topo, box, pos, &candidates, &row_mask);
  built_pos_ = pos;
  built_box_ = box;
  offsets_view_ = &offsets_;
  neighbors_view_ = &neighbors_;
  built_pos_view_ = &built_pos_;
  identity_.reset();
}

void NeighborList::sweep(const Topology& topo, const Box& box,
                         const std::vector<util::Vec3>& pos,
                         const std::vector<int>* candidates,
                         const std::vector<std::uint8_t>* row_mask) {
  const double range = cutoff_ + skin_;
  REPRO_REQUIRE(2.0 * range <= box.min_length() * 1.5,
                "cutoff too large for the box (minimum image unsafe)");
  const double range2 = range * range;
  const std::size_t un = pos.size();
  const std::size_t nc = candidates ? candidates->size() : un;
  const auto atom_at = [&](std::size_t s) {
    return candidates ? (*candidates)[s] : static_cast<int>(s);
  };
  SweepScratch& s = sweep_scratch();

  // Too few cells along a dimension for a half-stencil sweep: one cell
  // holding every atom, whose self-cell pass tests all pairs.
  int ncx = std::max(1, static_cast<int>(box.lx() / range));
  int ncy = std::max(1, static_cast<int>(box.ly() / range));
  int ncz = std::max(1, static_cast<int>(box.lz() / range));
  const bool one_cell = ncx < 3 || ncy < 3 || ncz < 3;
  if (one_cell) ncx = ncy = ncz = 1;
  const CellGrid grid{ncx, ncy, ncz, box.lx(), box.ly(), box.lz()};
  const std::size_t ncells = static_cast<std::size_t>(ncx * ncy * ncz);

  // Counting-sort the atoms into cell-sorted SoA coordinates. Each cell
  // holds its row atoms (row_mask set; every atom for build()) first, then
  // the rest, each part in candidate order. Within-cell order only changes
  // the order pairs are found in, which the CSR passes below normalise.
  const auto is_row = [&](int i) {
    return !row_mask || (*row_mask)[static_cast<std::size_t>(i)] != 0;
  };
  s.slot_cell.resize(nc);
  s.cell_start.assign(ncells + 1, 0);
  s.row_end.assign(ncells, 0);
  for (std::size_t a = 0; a < nc; ++a) {
    const int i = atom_at(a);
    const int c = one_cell ? 0 : grid.cell_of(pos[static_cast<std::size_t>(i)]);
    s.slot_cell[a] = c;
    ++s.cell_start[static_cast<std::size_t>(c) + 1];
    if (is_row(i)) ++s.row_end[static_cast<std::size_t>(c)];
  }
  std::size_t max_cell = 0;
  s.cursor.resize(2 * ncells);
  for (std::size_t c = 0; c < ncells; ++c) {
    max_cell = std::max(max_cell, s.cell_start[c + 1]);
    s.cell_start[c + 1] += s.cell_start[c];
    s.row_end[c] += s.cell_start[c];
    s.cursor[c] = s.cell_start[c];
    s.cursor[ncells + c] = s.row_end[c];
  }
  s.x.resize(nc);
  s.y.resize(nc);
  s.z.resize(nc);
  s.id.resize(nc);
  for (std::size_t a = 0; a < nc; ++a) {
    const int i = atom_at(a);
    const auto c = static_cast<std::size_t>(s.slot_cell[a]);
    const std::size_t k = s.cursor[is_row(i) ? c : ncells + c]++;
    const util::Vec3& r = pos[static_cast<std::size_t>(i)];
    s.x[k] = r.x;
    s.y[k] = r.y;
    s.z[k] = r.z;
    s.id[k] = i;
  }

  // Half stencil: self cell plus 13 forward neighbor cells.
  static constexpr int kStencil[14][3] = {
      {0, 0, 0},  {1, 0, 0},   {0, 1, 0},  {0, 0, 1},  {1, 1, 0},
      {1, 0, 1},  {0, 1, 1},   {1, 1, 1},  {1, -1, 0}, {1, 0, -1},
      {0, 1, -1}, {1, -1, -1}, {1, -1, 1}, {1, 1, -1}};
  const int nstencil = one_cell ? 1 : 14;
  const double lx = box.lx(), ly = box.ly(), lz = box.lz();
  s.r2.resize(max_cell);
  s.stamp.assign(un, -1);
  std::vector<std::pair<int, int>> pairs;  // (i < j) in sweep order
  s.j_start.assign(un + 1, 0);
  offsets_.assign(un + 1, 0);
  // A pair is kept only if its smaller id is a row atom, so a home atom
  // that is not a row atom only needs the row atoms of each stencil cell.
  std::size_t span[14][3];  // stencil cell: begin, rows end, end
  for (int cx = 0; cx < ncx; ++cx) {
    for (int cy = 0; cy < ncy; ++cy) {
      for (int cz = 0; cz < ncz; ++cz) {
        const std::size_t home =
            static_cast<std::size_t>((cx * ncy + cy) * ncz + cz);
        for (int o = 0; o < nstencil; ++o) {
          const int ox = (cx + kStencil[o][0] + ncx) % ncx;
          const int oy = (cy + kStencil[o][1] + ncy) % ncy;
          const int oz = (cz + kStencil[o][2] + ncz) % ncz;
          const std::size_t other =
              static_cast<std::size_t>((ox * ncy + oy) * ncz + oz);
          span[o][0] = s.cell_start[other];
          span[o][1] = s.row_end[other];
          span[o][2] = s.cell_start[other + 1];
        }
        for (std::size_t a = s.cell_start[home]; a < s.cell_start[home + 1];
             ++a) {
          const int i = s.id[a];
          const int lim = a < s.row_end[home] ? 2 : 1;
          for (int e : topo.exclusions_of(i)) {
            s.stamp[static_cast<std::size_t>(e)] = i;
          }
          const double xi = s.x[a], yi = s.y[a], zi = s.z[a];
          for (int o = 0; o < nstencil; ++o) {
            const std::size_t b0 = o == 0 ? a + 1 : span[o][0];  // self
            const std::size_t b1 = span[o][lim];
            if (b0 >= b1) continue;
            const std::size_t m = b1 - b0;
            const double* bx = s.x.data() + b0;
            const double* by = s.y.data() + b0;
            const double* bz = s.z.data() + b0;
            double* r2 = s.r2.data();
            // Box::min_image + util::norm2, term for term, so every r2 is
            // bit-equal to the scalar expression.
#pragma omp simd
            for (std::size_t t = 0; t < m; ++t) {
              double dx = xi - bx[t];
              double dy = yi - by[t];
              double dz = zi - bz[t];
              dx -= lx * round_half_even(dx / lx);
              dy -= ly * round_half_even(dy / ly);
              dz -= lz * round_half_even(dz / lz);
              r2[t] = dx * dx + dy * dy + dz * dz;
            }
            for (std::size_t t = 0; t < m; ++t) {
              // This form (not r2 < range2) keeps a NaN distance listed.
              if (r2[t] >= range2) continue;
              const int j = s.id[b0 + t];
              // Exclusion lists are symmetric, so the home atom's stamp
              // answers Topology::excluded(lo, hi). j == i only when a
              // candidate list repeats an atom.
              if (j == i || s.stamp[static_cast<std::size_t>(j)] == i) {
                continue;
              }
              const int lo = std::min(i, j);
              const int hi = std::max(i, j);
              if (row_mask && !(*row_mask)[static_cast<std::size_t>(lo)]) {
                continue;
              }
              pairs.emplace_back(lo, hi);
              ++offsets_[static_cast<std::size_t>(lo) + 1];
              ++s.j_start[static_cast<std::size_t>(hi) + 1];
            }
          }
        }
      }
    }
  }

  // CSR by two stable counting passes: bucket the pairs by j, then walk
  // the buckets in ascending j and append each pair to its row, so every
  // row comes out in ascending j without a sort.
  for (std::size_t j = 0; j < un; ++j) s.j_start[j + 1] += s.j_start[j];
  s.cursor.assign(s.j_start.begin(), s.j_start.end() - 1);
  std::vector<int> by_j(pairs.size());
  for (const auto& [i, j] : pairs) {
    by_j[s.cursor[static_cast<std::size_t>(j)]++] = i;
  }
  for (std::size_t i = 0; i < un; ++i) offsets_[i + 1] += offsets_[i];
  s.cursor.assign(offsets_.begin(), offsets_.end() - 1);
  neighbors_.resize(pairs.size());
  for (std::size_t j = 0; j < un; ++j) {
    for (std::size_t k = s.j_start[j]; k < s.j_start[j + 1]; ++k) {
      neighbors_[s.cursor[static_cast<std::size_t>(by_j[k])]++] =
          static_cast<int>(j);
    }
  }
}

bool NeighborList::needs_rebuild(const Box& box,
                                 const std::vector<util::Vec3>& pos) const {
  const std::vector<util::Vec3>& built = *built_pos_view_;
  if (built.size() != pos.size()) return true;
  if (box.lengths() != built_box_.lengths()) return true;
  const double limit2 = 0.25 * skin_ * skin_;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const util::Vec3 d = box.min_image(pos[i] - built[i]);
    if (util::norm2(d) > limit2) return true;
  }
  return false;
}

}  // namespace repro::md
