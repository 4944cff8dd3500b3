#include "charmm/decomp_spec.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace repro::charmm {

const char* to_string(DecompKind kind) {
  switch (kind) {
    case DecompKind::kAtomReplicated:
      return "atom";
    case DecompKind::kForce:
      return "force";
    case DecompKind::kTaskPme:
      return "task";
    case DecompKind::kSpatial:
      return "spatial";
  }
  return "?";
}

const char* to_string(LdbPolicy policy) {
  switch (policy) {
    case LdbPolicy::kOff:
      return "off";
    case LdbPolicy::kGreedy:
      return "greedy";
    case LdbPolicy::kRefine:
      return "refine";
  }
  return "?";
}

std::string to_string(const DecompSpec& spec) {
  std::string out = to_string(spec.kind);
  if (spec.kind == DecompKind::kTaskPme && spec.pme_ranks > 0) {
    out += ":pme=" + std::to_string(spec.pme_ranks);
  }
  if (spec.kind == DecompKind::kSpatial) {
    if (spec.grid_x > 0) {
      out += ":grid=" + std::to_string(spec.grid_x) + "x" +
             std::to_string(spec.grid_y) + "x" + std::to_string(spec.grid_z);
    }
    if (spec.pme_mode == PmeMode::kPencil) {
      out += ":pme=pencil";
      if (spec.pencil_y > 0) {
        out += ":grid=" + std::to_string(spec.pencil_y) + "x" +
               std::to_string(spec.pencil_z);
      }
    }
    if (spec.ldb != LdbPolicy::kOff) {
      out += ":ldb=";
      out += to_string(spec.ldb);
      if (spec.units > 0) {
        out += ",units=" + std::to_string(spec.units);
      }
    }
  }
  return out;
}

DecompSpec parse_decomp_spec(const std::string& text) {
  DecompSpec spec;
  const std::string in_spec = "decomposition spec '" + text + "': ";
  if (text.empty() || text == "atom" || text == "replicated") {
    return spec;
  }
  if (text == "force") {
    spec.kind = DecompKind::kForce;
    return spec;
  }
  if (text == "task" || text.rfind("task:", 0) == 0) {
    spec.kind = DecompKind::kTaskPme;
    if (text == "task") return spec;
    const std::string opt = text.substr(5);
    REPRO_REQUIRE(opt.rfind("pme=", 0) == 0,
                  "bad decomposition option '" + opt +
                      "' (expected task:pme=N): " + text);
    spec.pme_ranks = util::parse_int(opt.substr(4), in_spec + "PME rank count");
    return spec;
  }
  if (text == "spatial" || text.rfind("spatial:", 0) == 0) {
    spec.kind = DecompKind::kSpatial;
    // Colon-separated options after "spatial". "grid=" means the cell
    // grid until "pme=pencil" has been seen, after which it means the
    // pencil process grid — mirroring how to_string prints them.
    bool after_pencil = false;
    bool seen_ldb = false;
    std::size_t pos = 7;  // strlen("spatial")
    while (pos < text.size()) {
      REPRO_REQUIRE(text[pos] == ':',
                    "bad decomposition spec (expected ':' before option): " +
                        text);
      const std::size_t next = text.find(':', pos + 1);
      const std::string opt =
          text.substr(pos + 1, next == std::string::npos ? std::string::npos
                                                         : next - pos - 1);
      pos = next == std::string::npos ? text.size() : next;
      if (opt == "pme=pencil") {
        REPRO_REQUIRE(!after_pencil,
                      "duplicate pme=pencil option in decomposition spec: " +
                          text);
        spec.pme_mode = PmeMode::kPencil;
        after_pencil = true;
        continue;
      }
      REPRO_REQUIRE(opt.rfind("pme=", 0) != 0,
                    "bad PME mode '" + opt +
                        "' in decomposition spec (only pme=pencil is "
                        "accepted; slab is the default): " + text);
      if (opt.rfind("ldb=", 0) == 0) {
        REPRO_REQUIRE(!seen_ldb,
                      "duplicate ldb option in decomposition spec: " + text);
        seen_ldb = true;
        std::string value = opt.substr(4);
        const std::size_t comma = value.find(',');
        const std::string policy = value.substr(0, comma);
        if (policy == "off") {
          spec.ldb = LdbPolicy::kOff;
        } else if (policy == "greedy") {
          spec.ldb = LdbPolicy::kGreedy;
        } else if (policy == "refine") {
          spec.ldb = LdbPolicy::kRefine;
        } else {
          util::fail("bad load-balance policy '" + policy +
                         "' (expected ldb=greedy|refine|off): " + text,
                     __FILE__, __LINE__);
        }
        if (comma != std::string::npos) {
          const std::string rest = value.substr(comma + 1);
          REPRO_REQUIRE(rest.rfind("units=", 0) == 0 &&
                            rest.find(',') == std::string::npos,
                        "bad ldb option '" + rest +
                            "' (expected ldb=POLICY[,units=K]): " + text);
          REPRO_REQUIRE(spec.ldb != LdbPolicy::kOff,
                        "units= is meaningless with ldb=off: " + text);
          spec.units =
              util::parse_int(rest.substr(6), in_spec + "work-unit count");
        }
        continue;
      }
      REPRO_REQUIRE(opt.rfind("grid=", 0) == 0,
                    "bad decomposition option '" + opt +
                        "' (expected grid=..., pme=pencil, or ldb=...): " +
                        text);
      const std::string dims = opt.substr(5);
      const std::size_t x1 = dims.find('x');
      if (after_pencil) {
        REPRO_REQUIRE(spec.pencil_y == 0,
                      "duplicate pencil grid in decomposition spec: " + text);
        REPRO_REQUIRE(x1 != std::string::npos &&
                          dims.find('x', x1 + 1) == std::string::npos,
                      "bad pencil grid (expected pme=pencil:grid=PyxPz): " +
                          text);
        const std::string what = in_spec + "pencil grid dimension";
        spec.pencil_y = util::parse_int(dims.substr(0, x1), what);
        spec.pencil_z = util::parse_int(dims.substr(x1 + 1), what);
      } else {
        REPRO_REQUIRE(spec.grid_x == 0,
                      "duplicate cell grid in decomposition spec: " + text);
        const std::size_t x2 = x1 == std::string::npos ? std::string::npos
                                                       : dims.find('x', x1 + 1);
        REPRO_REQUIRE(x1 != std::string::npos && x2 != std::string::npos &&
                          dims.find('x', x2 + 1) == std::string::npos,
                      "bad spatial grid (expected spatial:grid=AxBxC): " +
                          text);
        const std::string what = in_spec + "spatial grid dimension";
        spec.grid_x = util::parse_int(dims.substr(0, x1), what);
        spec.grid_y = util::parse_int(dims.substr(x1 + 1, x2 - x1 - 1), what);
        spec.grid_z = util::parse_int(dims.substr(x2 + 1), what);
      }
    }
    return spec;
  }
  REPRO_REQUIRE(text.find(":ldb=") == std::string::npos,
                "ldb= only applies to the spatial decomposition (the "
                "replicated strategies have no migratable units): " + text);
  util::fail("unknown decomposition '" + text +
                 "' (expected atom, force, task[:pme=N], or "
                 "spatial[:grid=AxBxC][:pme=pencil[:grid=PyxPz]]"
                 "[:ldb=greedy|refine|off[,units=K]])",
             __FILE__, __LINE__);
}

int resolved_pme_ranks(const DecompSpec& spec, int nprocs) {
  REPRO_REQUIRE(nprocs >= 2,
                "task decoupling needs at least two processes to split");
  if (spec.pme_ranks > 0) {
    REPRO_REQUIRE(spec.pme_ranks < nprocs,
                  "task decomposition must leave at least one classic rank");
    return spec.pme_ranks;
  }
  return std::max(1, nprocs / 4);
}

std::pair<int, int> resolved_pencil_grid(const DecompSpec& spec, int nprocs,
                                         std::size_t ny, std::size_t nz) {
  REPRO_REQUIRE(nprocs >= 2,
                "the pencil PME grid is only resolved for parallel runs");
  int py = spec.pencil_y;
  int pz = spec.pencil_z;
  if (py > 0) {
    REPRO_REQUIRE(static_cast<long>(py) * pz <= nprocs,
                  "pencil grid " + std::to_string(py) + "x" +
                      std::to_string(pz) + " needs more ranks than the run's " +
                      std::to_string(nprocs));
  } else {
    // Auto: the most-square factorization — the largest divisor d of
    // nprocs with d <= sqrt(nprocs), used as (d, nprocs / d). Squarer
    // grids shrink both transpose group sizes at once.
    py = 1;
    for (int d = 1; static_cast<long>(d) * d <= nprocs; ++d) {
      if (nprocs % d == 0) py = d;
    }
    pz = nprocs / py;
  }
  // Every pencil rank must own at least one plane in each distributed
  // dimension, or its 1-D FFT lines would be empty.
  REPRO_REQUIRE(static_cast<std::size_t>(py) <= ny,
                "pencil grid dimension Py=" + std::to_string(py) +
                    " exceeds the FFT's " + std::to_string(ny) + " y planes");
  REPRO_REQUIRE(static_cast<std::size_t>(pz) <= nz,
                "pencil grid dimension Pz=" + std::to_string(pz) +
                    " exceeds the FFT's " + std::to_string(nz) + " z planes");
  return {py, pz};
}

int resolved_units(const DecompSpec& spec, int nprocs, int ncells) {
  REPRO_REQUIRE(spec.ldb != LdbPolicy::kOff,
                "work units are only resolved when load balancing is on");
  REPRO_REQUIRE(ncells >= nprocs,
                "ldb needs at least one cell per rank to overdecompose (" +
                    std::to_string(ncells) + " cells < " +
                    std::to_string(nprocs) + " ranks); use a finer grid=");
  if (spec.units > 0) {
    REPRO_REQUIRE(spec.units >= nprocs,
                  "units=" + std::to_string(spec.units) +
                      " is fewer than the run's " + std::to_string(nprocs) +
                      " ranks; overdecomposition needs units >= ranks");
    REPRO_REQUIRE(spec.units <= ncells,
                  "units=" + std::to_string(spec.units) +
                      " exceeds the spatial grid's " +
                      std::to_string(ncells) + " cells");
    return spec.units;
  }
  // Auto: 4 units per rank is the classic CHARM++ overdecomposition
  // sweet spot — enough slack for the greedy packer to even out costs,
  // few enough that per-unit bookkeeping stays cheap.
  return std::min(4 * nprocs, ncells);
}

}  // namespace repro::charmm
