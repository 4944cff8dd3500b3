// Scalar-vs-SIMD speedup measurement for the physics hot path that has a
// kernel variant (--kernel=scalar|simd): the LJ/Ewald pair kernel. The
// serial PME reciprocal solve and the FFT each have one path, timed by
// bench/kernels_pme and bench/kernels_fft.
//
// This is a hand-timed binary rather than a google-benchmark one so it
// can take --json=FILE and write BENCH_kernels.json directly (the
// BENCHMARK_MAIN driver rejects unknown flags). Each family is timed
// best-of-N to shave scheduler noise, and the SIMD variant's result is
// checked against the scalar one before any timing is trusted.
//
// usage: kernel_speedups [--smoke] [--json=FILE]
//   --smoke   CI mode: one rep per family, seconds of wall clock total.
//   --json    write BENCH_kernels.json-style output.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "sysbuild/builder.hpp"

using namespace repro;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-reps wall time per call of fn (which runs `iters` calls).
template <typename Fn>
double best_of(int reps, int iters, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) fn();
    const double dt = (now_s() - t0) / iters;
    if (dt < best) best = dt;
  }
  return best;
}

struct FamilyResult {
  std::string name;
  std::string unit;       // what items/sec counts
  double items = 0.0;     // items per call
  double scalar_s = 0.0;  // best-of per-call seconds
  double simd_s = 0.0;
  double max_rel_err = 0.0;  // simd vs scalar on the checked observable
  double speedup() const { return simd_s > 0 ? scalar_s / simd_s : 0.0; }
};

double rel_err(double a, double b) {
  const double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) / denom;
}

// --- pair kernel: LJ + Ewald direct on a bulk water box ------------------

FamilyResult run_pair(int reps, int iters) {
  const sysbuild::BuiltSystem sys = sysbuild::build_water_box(8);
  md::NonbondedOptions opts;
  opts.cutoff = 9.0;
  opts.switch_on = 7.0;
  opts.elec = md::NonbondedOptions::Elec::kEwaldDirect;
  opts.table = md::build_pair_table(sys.topo);
  md::NeighborList nbl(opts.cutoff, 2.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  std::vector<util::Vec3> forces(static_cast<std::size_t>(sys.topo.natoms()));

  double energy[2] = {0.0, 0.0};
  std::size_t pairs = 0;
  auto run = [&](util::KernelKind kind, int slot) {
    opts.kernel = kind;
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    md::EnergyTerms e;
    pairs = md::nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts,
                                 forces, e)
                .pairs_listed;
    energy[slot] = e.lj + e.elec;
  };

  FamilyResult fr;
  fr.name = "pair_lj_ewald";
  fr.unit = "listed pairs";
  run(util::KernelKind::kScalar, 0);  // warm caches + record reference
  run(util::KernelKind::kSimd, 1);
  fr.max_rel_err = rel_err(energy[0], energy[1]);
  fr.items = static_cast<double>(pairs);
  fr.scalar_s =
      best_of(reps, iters, [&] { run(util::KernelKind::kScalar, 0); });
  fr.simd_s = best_of(reps, iters, [&] { run(util::KernelKind::kSimd, 1); });
  return fr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "unknown option: %s (supported: --smoke --json=FILE)\n",
                   arg.c_str());
      return 2;
    }
  }

  const int reps = smoke ? 2 : 5;
  const int iters = smoke ? 1 : 3;

  std::printf("kernel speedups: --kernel=simd vs --kernel=scalar "
              "(best of %d x %d calls)\n",
              reps, iters);
  std::printf("%-16s %12s %12s %9s %14s %12s\n", "kernel", "scalar_ms",
              "simd_ms", "speedup", "simd_items/s", "max_rel_err");

  std::vector<FamilyResult> results;
  results.push_back(run_pair(reps, iters));

  bool ok = true;
  for (const auto& fr : results) {
    std::printf("%-16s %12.3f %12.3f %8.2fx %14.3e %12.2e\n", fr.name.c_str(),
                fr.scalar_s * 1e3, fr.simd_s * 1e3, fr.speedup(),
                fr.simd_s > 0 ? fr.items / fr.simd_s : 0.0, fr.max_rel_err);
    if (!(fr.max_rel_err <= 1e-10)) {
      std::fprintf(stderr, "FAIL: %s simd disagrees with scalar (%.3e)\n",
                   fr.name.c_str(), fr.max_rel_err);
      ok = false;
    }
  }
  std::fflush(stdout);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"benchmark\": \"SIMD kernel variant: branch-free "
        "#pragma omp simd pair kernel with tabulated erfc/exp; scalar is "
        "the bit-exact golden reference\",\n");
    std::fprintf(f,
                 "  \"machine\": { \"hardware_threads\": 1, \"note\": "
                 "\"single-vCPU container; -O3, no -march flags; best-of-%d "
                 "timing over %d calls per rep\" },\n",
                 reps, iters);
    std::fprintf(f,
                 "  \"tolerance_note\": \"simd vs scalar checked before "
                 "timing; pair energies pinned to 1e-10 relative "
                 "(tests/kernel_variant_test.cpp). Both variants report "
                 "identical work counters, so simulated time is exactly "
                 "kernel-independent.\",\n");
    std::fprintf(f, "  \"kernels\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& fr = results[i];
      std::fprintf(f,
                   "    { \"kernel\": \"%s\", \"scalar_ms\": %.3f, "
                   "\"simd_ms\": %.3f, \"speedup\": %.2f, "
                   "\"items\": \"%s\", \"simd_items_per_sec\": %.3e, "
                   "\"max_rel_err\": %.2e }%s\n",
                   fr.name.c_str(), fr.scalar_s * 1e3, fr.simd_s * 1e3,
                   fr.speedup(), fr.unit.c_str(),
                   fr.simd_s > 0 ? fr.items / fr.simd_s : 0.0, fr.max_rel_err,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
