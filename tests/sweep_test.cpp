// SweepRunner: concurrent execution of independent experiment cells must
// be bit-identical to sequential execution, must capture per-cell errors
// without killing the sweep, and must report progress for every cell.
// This suite runs under TSan in CI — it is the concurrency audit for
// everything reachable from run_experiment.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "core/sweep.hpp"
#include "md/nonbonded.hpp"
#include "perf/metrics.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"

namespace repro::core {
namespace {

// A small system keeps the cells cheap enough for TSan's ~10x slowdown.
const sysbuild::BuiltSystem& small_system() {
  static const sysbuild::BuiltSystem sys = sysbuild::build_water_box(8);
  return sys;
}

ExperimentSpec small_spec(net::Network network, int nprocs) {
  ExperimentSpec spec;
  spec.platform.network = network;
  spec.nprocs = nprocs;
  spec.charmm.nsteps = 2;
  spec.charmm.pme = pme::PmeParams{24, 24, 24, 4, 0.4};
  spec.charmm.cutoff = 9.0;
  spec.charmm.switch_on = 7.5;
  return spec;
}

std::vector<ExperimentSpec> small_sweep() {
  std::vector<ExperimentSpec> specs;
  for (net::Network network :
       {net::Network::kTcpGigE, net::Network::kScoreGigE}) {
    for (int p : {1, 2, 4}) {
      specs.push_back(small_spec(network, p));
    }
  }
  return specs;
}

TEST(SweepRunnerTest, JobsResolution) {
  EXPECT_GE(SweepRunner(0).jobs(), 1);
  EXPECT_GE(SweepRunner(-3).jobs(), 1);
  EXPECT_EQ(SweepRunner(1).jobs(), 1);
  EXPECT_EQ(SweepRunner(7).jobs(), 7);
}

TEST(SweepRunnerTest, ParallelMatchesSequential) {
  const std::vector<ExperimentSpec> specs = small_sweep();
  const auto seq = SweepRunner(1).run(small_system(), specs);
  const auto par = SweepRunner(4).run(small_system(), specs);
  ASSERT_EQ(seq.size(), specs.size());
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    ASSERT_TRUE(par[i].ok()) << par[i].error;
    // Results arrive in submission order...
    EXPECT_EQ(par[i].spec.nprocs, specs[i].nprocs);
    // ...and are bit-identical to the sequential run: energies, times,
    // and the full metrics export.
    EXPECT_EQ(seq[i].result.energy.potential(),
              par[i].result.energy.potential());
    EXPECT_EQ(seq[i].result.position_checksum,
              par[i].result.position_checksum);
    EXPECT_EQ(seq[i].result.total_seconds(), par[i].result.total_seconds());
    EXPECT_EQ(perf::metrics_json(seq[i].result.metrics),
              perf::metrics_json(par[i].result.metrics));
  }
}

TEST(SweepRunnerTest, CapturesPerCellErrors) {
  std::vector<ExperimentSpec> specs;
  specs.push_back(small_spec(net::Network::kScoreGigE, 2));
  specs.push_back(small_spec(net::Network::kScoreGigE, 0));  // invalid
  specs.push_back(small_spec(net::Network::kScoreGigE, 4));
  const auto outcomes = SweepRunner(4).run(small_system(), specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_NE(outcomes[1].error.find("at least one process"),
            std::string::npos);
  EXPECT_TRUE(outcomes[2].ok()) << outcomes[2].error;
  // The throwing variant refuses the whole sweep, naming the cell.
  EXPECT_THROW(run_experiments(small_system(), specs, 4), util::Error);
}

TEST(SweepRunnerTest, ProgressCoversEveryCell) {
  const std::vector<ExperimentSpec> specs = small_sweep();
  std::atomic<std::size_t> calls{0};
  std::set<std::size_t> seen_done;
  std::set<int> seen_procs;
  const auto outcomes = SweepRunner(4).run(
      small_system(), specs,
      [&](std::size_t done, std::size_t total, const SweepOutcome& cell) {
        // Callbacks are serialized by the runner, so plain containers are
        // safe to touch here.
        calls.fetch_add(1);
        EXPECT_EQ(total, specs.size());
        seen_done.insert(done);
        seen_procs.insert(cell.spec.nprocs);
        EXPECT_TRUE(cell.ok()) << cell.error;
      });
  EXPECT_EQ(calls.load(), specs.size());
  // `done` counts 1..total with no duplicates or gaps.
  EXPECT_EQ(seen_done.size(), specs.size());
  EXPECT_EQ(*seen_done.begin(), 1u);
  EXPECT_EQ(*seen_done.rbegin(), specs.size());
  EXPECT_EQ(seen_procs, (std::set<int>{1, 2, 4}));
  ASSERT_EQ(outcomes.size(), specs.size());
}

TEST(SweepRunnerTest, WorkersShareThePairMemoExactly) {
  // Four cells of one trajectory: the same p and middleware on different
  // networks and CPUs per node, which change simulated time but never the
  // arithmetic. A switch_on no other test uses keeps the trajectory's
  // pair-memo keys fresh.
  std::vector<ExperimentSpec> specs;
  for (net::Network network :
       {net::Network::kTcpGigE, net::Network::kScoreGigE}) {
    for (int cpus : {1, 2}) {
      ExperimentSpec spec = small_spec(network, 2);
      spec.platform.cpus_per_node = cpus;
      spec.charmm.switch_on = 7.0;
      specs.push_back(spec);
    }
  }
  const std::uint64_t hits = md::pair_memo_hits();
  const auto par = SweepRunner(2).run(small_system(), specs);
  // The third and fourth cells start only after one of the first two has
  // finished, so they find that cell's shard calls stored, whichever
  // worker stored them.
  EXPECT_GT(md::pair_memo_hits(), hits);
  const auto seq = SweepRunner(1).run(small_system(), specs);
  ASSERT_EQ(par.size(), specs.size());
  ASSERT_EQ(seq.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(par[i].ok()) << par[i].error;
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    EXPECT_EQ(par[i].result.energy.potential(),
              par[0].result.energy.potential());
    EXPECT_EQ(par[i].result.position_checksum,
              par[0].result.position_checksum);
    EXPECT_EQ(seq[i].result.energy.potential(),
              par[i].result.energy.potential());
    EXPECT_EQ(seq[i].result.position_checksum,
              par[i].result.position_checksum);
    EXPECT_EQ(perf::metrics_json(seq[i].result.metrics),
              perf::metrics_json(par[i].result.metrics));
  }
}

TEST(SweepRunnerTest, MoreJobsThanCells) {
  std::vector<ExperimentSpec> specs{small_spec(net::Network::kScoreGigE, 2)};
  const auto outcomes = SweepRunner(16).run(small_system(), specs);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error;
}

}  // namespace
}  // namespace repro::core
