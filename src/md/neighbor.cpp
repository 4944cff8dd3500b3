#include "md/neighbor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>

#include "util/hash.hpp"

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

// --- Build memoization -----------------------------------------------------
//
// The replicated-data decomposition has every simulated rank build the
// same list from the same coordinates, and a factorial sweep replays the
// same deterministic trajectory for every network/middleware cell — so
// almost every build() call in a sweep repeats an earlier one exactly. A
// small process-wide cache keyed by the full build inputs returns the
// stored CSR arrays instead of recomputing them. A hit requires the
// positions, box lengths, radii, and exclusion list to match
// byte-for-byte (the hash is only a cheap pre-filter), so the returned
// arrays are the exact arrays the plain build would have produced.
// Disable with REPRO_NBL_CACHE=0.
struct BuildCacheEntry {
  double cutoff;
  double skin;
  util::Vec3 box_len;
  std::uint64_t pos_hash;
  std::vector<util::Vec3> pos;
  std::vector<std::pair<int, int>> exclusions;
  std::vector<std::size_t> offsets;
  std::vector<int> neighbors;
};

constexpr std::size_t kBuildCacheCap = 12;  // FIFO; a 10-step run rebuilds
                                            // far fewer than 12 times

std::mutex build_cache_mu;  // SweepRunner workers build concurrently

std::deque<std::shared_ptr<const BuildCacheEntry>>& build_cache() {
  static std::deque<std::shared_ptr<const BuildCacheEntry>> cache;
  return cache;
}

bool build_cache_enabled() {
  static const bool on = [] {
    const char* env = std::getenv("REPRO_NBL_CACHE");
    return env == nullptr || env[0] != '0';
  }();
  return on;
}

// Bitwise equality (stricter than operator== for doubles: distinguishes
// -0.0 from 0.0 and never equates NaNs away — misses stay conservative).
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;  // data() may be null; memcmp on null is UB
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

}  // namespace

void NeighborList::build(const Topology& topo, const Box& box,
                         const std::vector<util::Vec3>& pos) {
  const int n = topo.natoms();
  REPRO_REQUIRE(static_cast<int>(pos.size()) == n,
                "position array size mismatch");
  const double range = cutoff_ + skin_;
  REPRO_REQUIRE(2.0 * range <= box.min_length() * 1.5,
                "cutoff too large for the box (minimum image unsafe)");
  const double range2 = range * range;
  const std::size_t un = static_cast<std::size_t>(n);

  const std::vector<std::pair<int, int>>& excl = topo.excluded_pairs();
  std::uint64_t pos_hash = 0;
  if (build_cache_enabled()) {
    pos_hash = pos.empty() ? 0
                           : util::fnv1a_bytes(
                                 pos.data(), pos.size() * sizeof(util::Vec3));
    std::lock_guard<std::mutex> lock(build_cache_mu);
    for (const auto& e : build_cache()) {
      if (e->cutoff == cutoff_ && e->skin == skin_ &&
          e->pos_hash == pos_hash && e->box_len == box.lengths() &&
          same_bytes(e->pos, pos) && same_bytes(e->exclusions, excl)) {
        // Borrow the entry's arrays (they are immutable and pinned by the
        // keepalive) rather than copying megabytes of CSR data per hit.
        offsets_view_ = &e->offsets;
        neighbors_view_ = &e->neighbors;
        built_pos_view_ = &e->pos;
        built_box_ = box;
        cache_keepalive_ = e;
        return;
      }
    }
  }

  const int ncx = std::max(1, static_cast<int>(box.lx() / range));
  const int ncy = std::max(1, static_cast<int>(box.ly() / range));
  const int ncz = std::max(1, static_cast<int>(box.lz() / range));

  // Pairs are appended flat and counting-sorted into CSR afterwards. The
  // final per-row sort makes the output independent of collection order,
  // so this produces the exact list the old per-atom-vector build did.
  pair_buf_.clear();
  auto consider = [&](int i, int j) {
    if (j <= i) std::swap(i, j);
    if (i == j) return;
    const util::Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                                       pos[static_cast<std::size_t>(j)]);
    if (util::norm2(d) >= range2) return;
    if (topo.excluded(i, j)) return;
    pair_buf_.emplace_back(i, j);
  };

  if (ncx < 3 || ncy < 3 || ncz < 3) {
    // Too few cells for a half-stencil sweep; quadratic fallback (used by
    // small test systems only).
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) consider(i, j);
    }
  } else {
    CellGrid grid{ncx, ncy, ncz, box.lx(), box.ly(), box.lz()};
    const std::size_t ncells = static_cast<std::size_t>(ncx * ncy * ncz);
    // Counting-sort atoms into CSR cell lists (pass 1: bin + count, pass
    // 2: scatter). Atoms land in each cell in ascending index order, same
    // as the old push_back binning.
    atom_cell_.resize(un);
    cell_start_.assign(ncells + 1, 0);
    for (std::size_t i = 0; i < un; ++i) {
      const int c = grid.cell_of(pos[i]);
      atom_cell_[i] = c;
      ++cell_start_[static_cast<std::size_t>(c) + 1];
    }
    for (std::size_t c = 0; c < ncells; ++c) {
      cell_start_[c + 1] += cell_start_[c];
    }
    cell_cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
    cell_atoms_.resize(un);
    for (std::size_t i = 0; i < un; ++i) {
      cell_atoms_[cell_cursor_[static_cast<std::size_t>(atom_cell_[i])]++] =
          static_cast<int>(i);
    }
    // Half stencil: self cell plus 13 forward neighbor cells.
    static constexpr int kStencil[14][3] = {
        {0, 0, 0},  {1, 0, 0},   {0, 1, 0},  {0, 0, 1},  {1, 1, 0},
        {1, 0, 1},  {0, 1, 1},   {1, 1, 1},  {1, -1, 0}, {1, 0, -1},
        {0, 1, -1}, {1, -1, -1}, {1, -1, 1}, {1, 1, -1}};
    for (int cx = 0; cx < ncx; ++cx) {
      for (int cy = 0; cy < ncy; ++cy) {
        for (int cz = 0; cz < ncz; ++cz) {
          const std::size_t home = static_cast<std::size_t>(
              (cx * ncy + cy) * ncz + cz);
          const std::size_t h0 = cell_start_[home];
          const std::size_t h1 = cell_start_[home + 1];
          for (const auto& offs : kStencil) {
            const int ox = (cx + offs[0] + ncx) % ncx;
            const int oy = (cy + offs[1] + ncy) % ncy;
            const int oz = (cz + offs[2] + ncz) % ncz;
            const std::size_t other = static_cast<std::size_t>(
                (ox * ncy + oy) * ncz + oz);
            const std::size_t o0 = cell_start_[other];
            const std::size_t o1 = cell_start_[other + 1];
            const bool self = offs[0] == 0 && offs[1] == 0 && offs[2] == 0;
            for (std::size_t a = h0; a < h1; ++a) {
              const std::size_t b0 = self ? a + 1 : o0;
              for (std::size_t b = b0; b < o1; ++b) {
                consider(cell_atoms_[a], cell_atoms_[b]);
              }
            }
          }
        }
      }
    }
  }

  // Two-pass CSR: count per row, exclusive prefix sum, scatter, then sort
  // each row (ascending j, as before).
  offsets_.assign(un + 1, 0);
  for (const auto& [i, j] : pair_buf_) {
    ++offsets_[static_cast<std::size_t>(i) + 1];
  }
  for (std::size_t i = 0; i < un; ++i) offsets_[i + 1] += offsets_[i];
  neighbors_.resize(pair_buf_.size());
  row_cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [i, j] : pair_buf_) {
    neighbors_[row_cursor_[static_cast<std::size_t>(i)]++] = j;
  }
  for (std::size_t i = 0; i < un; ++i) {
    std::sort(neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]),
              neighbors_.begin() +
                  static_cast<std::ptrdiff_t>(offsets_[i + 1]));
  }
  built_pos_ = pos;
  built_box_ = box;
  offsets_view_ = &offsets_;
  neighbors_view_ = &neighbors_;
  built_pos_view_ = &built_pos_;
  cache_keepalive_.reset();

  if (build_cache_enabled()) {
    auto entry = std::make_shared<BuildCacheEntry>();
    entry->cutoff = cutoff_;
    entry->skin = skin_;
    entry->box_len = box.lengths();
    entry->pos_hash = pos_hash;
    entry->pos = pos;
    entry->exclusions = excl;
    entry->offsets = offsets_;
    entry->neighbors = neighbors_;
    std::lock_guard<std::mutex> lock(build_cache_mu);
    if (build_cache().size() >= kBuildCacheCap) build_cache().pop_front();
    build_cache().push_back(std::move(entry));
  }
}

void NeighborList::build_subset(const Topology& topo, const Box& box,
                                const std::vector<util::Vec3>& pos,
                                const std::vector<int>& candidates,
                                const std::vector<std::uint8_t>& row_mask) {
  const int n = topo.natoms();
  REPRO_REQUIRE(static_cast<int>(pos.size()) == n &&
                    row_mask.size() == pos.size(),
                "position/mask array size mismatch");
  const double range = cutoff_ + skin_;
  REPRO_REQUIRE(2.0 * range <= box.min_length() * 1.5,
                "cutoff too large for the box (minimum image unsafe)");
  const double range2 = range * range;
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t nc = candidates.size();

  pair_buf_.clear();
  auto consider = [&](int i, int j) {
    if (j <= i) std::swap(i, j);
    if (i == j) return;
    if (!row_mask[static_cast<std::size_t>(i)]) return;
    const util::Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                                       pos[static_cast<std::size_t>(j)]);
    if (util::norm2(d) >= range2) return;
    if (topo.excluded(i, j)) return;
    pair_buf_.emplace_back(i, j);
  };

  const int ncx = std::max(1, static_cast<int>(box.lx() / range));
  const int ncy = std::max(1, static_cast<int>(box.ly() / range));
  const int ncz = std::max(1, static_cast<int>(box.lz() / range));

  if (ncx < 3 || ncy < 3 || ncz < 3) {
    for (std::size_t a = 0; a < nc; ++a) {
      for (std::size_t b = a + 1; b < nc; ++b) {
        consider(candidates[a], candidates[b]);
      }
    }
  } else {
    // Same half-stencil sweep as build(), binning only the candidates.
    CellGrid grid{ncx, ncy, ncz, box.lx(), box.ly(), box.lz()};
    const std::size_t ncells = static_cast<std::size_t>(ncx * ncy * ncz);
    atom_cell_.resize(nc);
    cell_start_.assign(ncells + 1, 0);
    for (std::size_t s = 0; s < nc; ++s) {
      const int c = grid.cell_of(
          pos[static_cast<std::size_t>(candidates[s])]);
      atom_cell_[s] = c;
      ++cell_start_[static_cast<std::size_t>(c) + 1];
    }
    for (std::size_t c = 0; c < ncells; ++c) {
      cell_start_[c + 1] += cell_start_[c];
    }
    cell_cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
    cell_atoms_.resize(nc);
    // A cell pair yields a kept pair only if one of its two cells holds a
    // row-masked candidate: the pair's smaller id is one of its atoms.
    cell_has_row_.assign(ncells, 0);
    for (std::size_t s = 0; s < nc; ++s) {
      const auto c = static_cast<std::size_t>(atom_cell_[s]);
      cell_atoms_[cell_cursor_[c]++] = candidates[s];
      if (row_mask[static_cast<std::size_t>(candidates[s])]) {
        cell_has_row_[c] = 1;
      }
    }
    static constexpr int kStencil[14][3] = {
        {0, 0, 0},  {1, 0, 0},   {0, 1, 0},  {0, 0, 1},  {1, 1, 0},
        {1, 0, 1},  {0, 1, 1},   {1, 1, 1},  {1, -1, 0}, {1, 0, -1},
        {0, 1, -1}, {1, -1, -1}, {1, -1, 1}, {1, 1, -1}};
    for (int cx = 0; cx < ncx; ++cx) {
      for (int cy = 0; cy < ncy; ++cy) {
        for (int cz = 0; cz < ncz; ++cz) {
          const std::size_t home = static_cast<std::size_t>(
              (cx * ncy + cy) * ncz + cz);
          const std::size_t h0 = cell_start_[home];
          const std::size_t h1 = cell_start_[home + 1];
          if (h0 == h1) continue;
          for (const auto& offs : kStencil) {
            const int ox = (cx + offs[0] + ncx) % ncx;
            const int oy = (cy + offs[1] + ncy) % ncy;
            const int oz = (cz + offs[2] + ncz) % ncz;
            const std::size_t other = static_cast<std::size_t>(
                (ox * ncy + oy) * ncz + oz);
            if (!cell_has_row_[home] && !cell_has_row_[other]) continue;
            const std::size_t o0 = cell_start_[other];
            const std::size_t o1 = cell_start_[other + 1];
            const bool self = offs[0] == 0 && offs[1] == 0 && offs[2] == 0;
            for (std::size_t a = h0; a < h1; ++a) {
              const std::size_t b0 = self ? a + 1 : o0;
              for (std::size_t b = b0; b < o1; ++b) {
                consider(cell_atoms_[a], cell_atoms_[b]);
              }
            }
          }
        }
      }
    }
  }

  offsets_.assign(un + 1, 0);
  for (const auto& [i, j] : pair_buf_) {
    ++offsets_[static_cast<std::size_t>(i) + 1];
  }
  for (std::size_t i = 0; i < un; ++i) offsets_[i + 1] += offsets_[i];
  neighbors_.resize(pair_buf_.size());
  row_cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [i, j] : pair_buf_) {
    neighbors_[row_cursor_[static_cast<std::size_t>(i)]++] = j;
  }
  for (std::size_t i = 0; i < un; ++i) {
    std::sort(neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]),
              neighbors_.begin() +
                  static_cast<std::ptrdiff_t>(offsets_[i + 1]));
  }
  built_pos_ = pos;
  built_box_ = box;
  offsets_view_ = &offsets_;
  neighbors_view_ = &neighbors_;
  built_pos_view_ = &built_pos_;
  cache_keepalive_.reset();
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
