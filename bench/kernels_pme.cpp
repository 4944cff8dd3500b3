// Microbenchmarks for the PME substrate on the paper's 80 x 36 x 48 grid
// (regression guards; not a paper figure).
#include <benchmark/benchmark.h>

#include "pme/bspline.hpp"
#include "pme/pme.hpp"
#include "sysbuild/builder.hpp"

namespace {

using namespace repro;

const sysbuild::BuiltSystem& system_under_test() {
  static const sysbuild::BuiltSystem sys = sysbuild::build_myoglobin_like();
  return sys;
}

void BM_BsplineWeights(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  double vals[pme::kMaxOrder];
  double derivs[pme::kMaxOrder];
  double w = 0.1;
  for (auto _ : state) {
    pme::bspline_weights(order, w, vals, derivs);
    benchmark::DoNotOptimize(vals[0]);
    w += 0.31;
    if (w >= 1.0) w -= 1.0;
  }
}
BENCHMARK(BM_BsplineWeights)->Arg(4)->Arg(6);

void BM_BsplineWeightsBatch(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  constexpr std::size_t kBatch = 512;
  std::vector<double> w(kBatch);
  for (std::size_t a = 0; a < kBatch; ++a) {
    w[a] = static_cast<double>(a) / kBatch;
  }
  std::vector<double> vals(static_cast<std::size_t>(order) * kBatch);
  std::vector<double> derivs(static_cast<std::size_t>(order) * kBatch);
  for (auto _ : state) {
    pme::bspline_weights_batch(order, w.data(), kBatch, vals.data(),
                               derivs.data());
    benchmark::DoNotOptimize(vals[0]);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kBatch));
}
BENCHMARK(BM_BsplineWeightsBatch)->Arg(4)->Arg(6);

void BM_SerialPmeReciprocal(benchmark::State& state) {
  const auto& sys = system_under_test();
  pme::PmeParams params{80, 36, 48, 4, 0.34};
  pme::SerialPme pme(params, sys.box);
  std::vector<util::Vec3> forces(
      static_cast<std::size_t>(sys.topo.natoms()));
  for (auto _ : state) {
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    const double e = pme.reciprocal(sys.topo, sys.positions, forces);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_SerialPmeReciprocal)->Unit(benchmark::kMillisecond);

void BM_EwaldExclusionCorrection(benchmark::State& state) {
  const auto& sys = system_under_test();
  std::vector<util::Vec3> forces(
      static_cast<std::size_t>(sys.topo.natoms()));
  for (auto _ : state) {
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    const double e = pme::ewald_exclusion_correction(
        sys.topo, sys.box, sys.positions, 0.34, forces);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_EwaldExclusionCorrection)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
