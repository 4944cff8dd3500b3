// Tests for the measurement-driven load balancer: ldb= spec parsing and
// error paths, the work-unit grid and cold-start packing, the greedy /
// refine rebalance kernels, physics invariance and determinism of the
// balanced runs (across reruns and fault injection), the
// run-level predictor pins (message/byte totals exact against channel
// counters), the pair-cost packing envelope, straggler recovery, and the
// conditional imbalance block of the metrics JSON.
#include <gtest/gtest.h>

#include <cmath>

#include "charmm/decomp_spec.hpp"
#include "charmm/ldb.hpp"
#include "charmm/simulation.hpp"
#include "charmm/spatial.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "net/faults.hpp"
#include "perf/metrics.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"

namespace repro::charmm {
namespace {

// Shared, relaxed full-size system (expensive: built once per binary).
const sysbuild::BuiltSystem& system_fixture() {
  static const sysbuild::BuiltSystem sys = [] {
    sysbuild::BuiltSystem s = sysbuild::build_myoglobin_like();
    relax_system(s, 60);
    return s;
  }();
  return sys;
}

// The bench/extension_load_balance discipline: classic calculation only
// (PME's replicated slab dilutes per-rank imbalance), rebuilds every
// other step so short runs cross rebalance opportunities.
CharmmConfig lb_config(const char* decomp, int nsteps = 6) {
  CharmmConfig config;
  config.nsteps = nsteps;
  config.use_pme = false;
  config.list_rebuild_interval = 2;
  config.decomp = parse_decomp_spec(decomp);
  return config;
}

// Hand-tuned per-rank jitter off: the balancer must see only the load we
// inject, and the predictor pins assume bit-exact speed measurements.
core::ExperimentSpec lb_spec(const core::Platform& platform, int nprocs,
                             const CharmmConfig& config) {
  core::ExperimentSpec spec;
  spec.platform = platform;
  spec.nprocs = nprocs;
  spec.charmm = config;
  net::NetworkParams params = net::params_for(platform.network);
  params.jitter_prob_per_rank = 0.0;
  spec.network_params = params;
  return spec;
}

core::ExperimentResult run(const core::Platform& platform, int nprocs,
                           const CharmmConfig& config) {
  return core::run_experiment(system_fixture(),
                              lb_spec(platform, nprocs, config));
}

// --- spec parsing ----------------------------------------------------------

TEST(LdbSpecTest, ParsesPolicies) {
  EXPECT_EQ(parse_decomp_spec("spatial").ldb, LdbPolicy::kOff);
  EXPECT_EQ(parse_decomp_spec("spatial:ldb=off").ldb, LdbPolicy::kOff);
  EXPECT_EQ(parse_decomp_spec("spatial:ldb=greedy").ldb, LdbPolicy::kGreedy);
  EXPECT_EQ(parse_decomp_spec("spatial:ldb=refine").ldb, LdbPolicy::kRefine);
  EXPECT_EQ(parse_decomp_spec("spatial:ldb=greedy").units, 0);  // auto
  const DecompSpec explicit_units =
      parse_decomp_spec("spatial:ldb=refine,units=32");
  EXPECT_EQ(explicit_units.ldb, LdbPolicy::kRefine);
  EXPECT_EQ(explicit_units.units, 32);
  // ldb composes with the other spatial options.
  const DecompSpec full =
      parse_decomp_spec("spatial:grid=6x3x4:pme=pencil:grid=2x4:ldb=greedy");
  EXPECT_EQ(full.grid_x, 6);
  EXPECT_EQ(full.pme_mode, PmeMode::kPencil);
  EXPECT_EQ(full.pencil_y, 2);
  EXPECT_EQ(full.ldb, LdbPolicy::kGreedy);
}

TEST(LdbSpecTest, ToStringRoundTrips) {
  for (const char* text :
       {"spatial:ldb=greedy", "spatial:ldb=refine",
        "spatial:ldb=greedy,units=32",
        "spatial:grid=6x3x4:ldb=refine,units=16",
        "spatial:pme=pencil:ldb=greedy",
        "spatial:grid=6x3x4:pme=pencil:grid=2x4:ldb=refine"}) {
    EXPECT_EQ(to_string(parse_decomp_spec(text)), text);
  }
  // Off is the default and has no spelled form.
  EXPECT_EQ(to_string(parse_decomp_spec("spatial:ldb=off")), "spatial");
}

TEST(LdbSpecTest, RejectsMalformedLdbSpecs) {
  EXPECT_THROW(parse_decomp_spec("spatial:ldb="), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=fast"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=greedyx"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=greedy:ldb=refine"),
               util::Error);
  // units= rides inside the ldb option, strictly parsed.
  EXPECT_THROW(parse_decomp_spec("spatial:units=8"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=greedy,units="), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=greedy,units=0"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=greedy,units=-3"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=greedy,units=8x"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=greedy,units=8k"),
               util::Error);
  EXPECT_THROW(
      parse_decomp_spec("spatial:ldb=greedy,units=99999999999999999999"),
      util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=greedy,units=8,units=8"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:ldb=off,units=8"), util::Error);
  // The replicated strategies have no migratable units.
  EXPECT_THROW(parse_decomp_spec("atom:ldb=greedy"), util::Error);
  EXPECT_THROW(parse_decomp_spec("force:ldb=greedy"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:ldb=greedy"), util::Error);
}

TEST(LdbSpecTest, ResolvesUnitCount) {
  DecompSpec spec = parse_decomp_spec("spatial:ldb=greedy");
  // Auto: min(4 * nprocs, ncells).
  EXPECT_EQ(resolved_units(spec, 8, 72), 32);
  EXPECT_EQ(resolved_units(spec, 8, 20), 20);
  EXPECT_EQ(resolved_units(spec, 1, 72), 4);
  EXPECT_EQ(resolved_units(spec, 27, 72), 72);
  // Explicit: nprocs <= units <= ncells, or fail loudly.
  spec = parse_decomp_spec("spatial:ldb=greedy,units=16");
  EXPECT_EQ(resolved_units(spec, 8, 72), 16);
  EXPECT_THROW(resolved_units(spec, 20, 72), util::Error);
  EXPECT_THROW(resolved_units(spec, 8, 12), util::Error);
  // A grid too coarse to overdecompose fails regardless of units=.
  EXPECT_THROW(resolved_units(spec, 80, 72), util::Error);
  // Meaningless with the balancer off.
  EXPECT_THROW(resolved_units(parse_decomp_spec("spatial"), 8, 72),
               util::Error);
}

TEST(LdbSpecTest, ValidateRejectsInconsistentLdbFields) {
  // The parser cannot produce these, but DecompSpec is a plain value any
  // caller can assemble — validate_config is the backstop.
  CharmmConfig config;
  config.decomp.kind = DecompKind::kAtomReplicated;
  config.decomp.ldb = LdbPolicy::kGreedy;
  EXPECT_THROW(validate_config(config), util::Error);

  config = CharmmConfig{};
  config.decomp.kind = DecompKind::kSpatial;
  config.decomp.units = 8;  // units without a policy
  EXPECT_THROW(validate_config(config), util::Error);

  config = CharmmConfig{};
  config.decomp.kind = DecompKind::kSpatial;
  config.decomp.ldb = LdbPolicy::kRefine;
  config.decomp.units = -4;
  EXPECT_THROW(validate_config(config), util::Error);

  config = CharmmConfig{};
  config.decomp = parse_decomp_spec("spatial:ldb=greedy,units=16");
  EXPECT_NO_THROW(validate_config(config));
}

// --- rebalance kernels -----------------------------------------------------

TEST(RebalanceUnitsTest, GreedyPacksLargestProcessingTimeFirst) {
  // Classic LPT: units sorted by cost descending, each to the rank with
  // the smallest finish time, lowest rank on ties.
  const std::vector<double> cost{4.0, 3.0, 3.0, 2.0};
  const std::vector<double> speed{1.0, 1.0};
  const std::vector<int> current{0, 0, 1, 1};
  const std::vector<int> map =
      rebalance_units(LdbPolicy::kGreedy, cost, speed, current);
  EXPECT_EQ(map, (std::vector<int>{0, 1, 1, 0}));  // loads 6 / 6
}

TEST(RebalanceUnitsTest, GreedyRespectsMeasuredSpeeds) {
  // A rank measured 3x slow gets 1 unit of 4 equal-cost units: its
  // speed-scaled finish time of a second unit (2*3=6) loses to piling
  // three on the healthy rank.
  const std::vector<double> cost{1.0, 1.0, 1.0, 1.0};
  const std::vector<double> speed{1.0, 3.0};
  const std::vector<int> map = rebalance_units(
      LdbPolicy::kGreedy, cost, speed, std::vector<int>{0, 0, 1, 1});
  EXPECT_EQ(map, (std::vector<int>{0, 0, 0, 1}));
}

TEST(RebalanceUnitsTest, RefineReachesFixedPointFromBalancedMap) {
  // A balanced map admits no strictly-improving move: refine must return
  // it unchanged (zero migrations under steady load).
  const std::vector<double> cost{2.0, 2.0, 1.0, 1.0};
  const std::vector<double> speed{1.0, 1.0};
  const std::vector<int> balanced{0, 1, 0, 1};
  EXPECT_EQ(rebalance_units(LdbPolicy::kRefine, cost, speed, balanced),
            balanced);
}

TEST(RebalanceUnitsTest, RefineDrainsTheBottleneck) {
  // Everything piled on rank 0 drains until the makespan stops falling.
  const std::vector<double> cost{2.0, 2.0, 2.0, 2.0};
  const std::vector<double> speed{1.0, 1.0};
  const std::vector<int> map = rebalance_units(
      LdbPolicy::kRefine, cost, speed, std::vector<int>{0, 0, 0, 0});
  double load0 = 0.0, load1 = 0.0;
  for (std::size_t u = 0; u < map.size(); ++u) {
    (map[u] == 0 ? load0 : load1) += cost[u];
  }
  EXPECT_EQ(load0, 4.0);
  EXPECT_EQ(load1, 4.0);
}

TEST(RebalanceUnitsTest, RefineShedsLoadOffAStraggler) {
  // Rank 0 measured 2x slow, two units each: one unit moves off it, then
  // no further move lowers the makespan.
  const std::vector<double> cost{1.0, 1.0, 1.0, 1.0};
  const std::vector<double> speed{2.0, 1.0};
  const std::vector<int> map = rebalance_units(
      LdbPolicy::kRefine, cost, speed, std::vector<int>{0, 0, 1, 1});
  int on_straggler = 0;
  for (int r : map) on_straggler += (r == 0);
  EXPECT_EQ(on_straggler, 1);
}

TEST(RebalanceUnitsTest, DeterministicAndOffIsIdentity) {
  const std::vector<double> cost{5.0, 1.0, 4.0, 2.0, 3.0, 1.0, 2.0};
  const std::vector<double> speed{1.0, 1.5, 1.0};
  const std::vector<int> current{0, 0, 1, 1, 2, 2, 0};
  EXPECT_EQ(rebalance_units(LdbPolicy::kOff, cost, speed, current), current);
  for (LdbPolicy policy : {LdbPolicy::kGreedy, LdbPolicy::kRefine}) {
    const auto a = rebalance_units(policy, cost, speed, current);
    const auto b = rebalance_units(policy, cost, speed, current);
    EXPECT_EQ(a, b);
  }
  EXPECT_THROW(rebalance_units(LdbPolicy::kGreedy, cost, speed,
                               std::vector<int>{0}),
               util::Error);
  EXPECT_THROW(rebalance_units(LdbPolicy::kGreedy, cost, {}, current),
               util::Error);
}

// --- the work-unit grid ----------------------------------------------------

TEST(UnitGridTest, PartitionsCellsAndColdStartCoversEveryRank) {
  const sysbuild::BuiltSystem& sys = system_fixture();
  const CharmmConfig config = lb_config("spatial:ldb=greedy");
  const SpatialLayout layout = make_spatial_layout(
      config.decomp, sys.box, config.cutoff + config.skin, 8,
      &sys.positions);
  const int nunits = resolved_units(config.decomp, 8, layout.ncells());
  const UnitGrid grid = make_unit_grid(layout, nunits, sys.positions);
  ASSERT_EQ(grid.nunits, nunits);
  ASSERT_EQ(grid.cell_unit.size(), static_cast<std::size_t>(layout.ncells()));
  ASSERT_EQ(grid.unit_cells.size(), static_cast<std::size_t>(nunits));
  ASSERT_EQ(grid.unit_weight.size(), static_cast<std::size_t>(nunits));
  // cell→unit and unit→cells are inverse views of one partition.
  std::size_t covered = 0;
  for (int u = 0; u < nunits; ++u) {
    EXPECT_FALSE(grid.unit_cells[static_cast<std::size_t>(u)].empty())
        << "unit " << u;
    for (int c : grid.unit_cells[static_cast<std::size_t>(u)]) {
      EXPECT_EQ(grid.cell_unit[static_cast<std::size_t>(c)], u);
      ++covered;
    }
  }
  EXPECT_EQ(covered, grid.cell_unit.size());

  const std::vector<int> map = initial_unit_map(grid, 8);
  ASSERT_EQ(map.size(), static_cast<std::size_t>(nunits));
  std::vector<int> units_per_rank(8, 0);
  for (int r : map) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 8);
    ++units_per_rank[static_cast<std::size_t>(r)];
  }
  for (int r = 0; r < 8; ++r) {
    EXPECT_GE(units_per_rank[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }

  // layout_from_units keeps the geometry and re-derives ownership.
  const SpatialLayout adopted = layout_from_units(layout, grid, map);
  EXPECT_EQ(adopted.ncells(), layout.ncells());
  for (int c = 0; c < layout.ncells(); ++c) {
    EXPECT_EQ(adopted.cell_rank[static_cast<std::size_t>(c)],
              map[static_cast<std::size_t>(
                  grid.cell_unit[static_cast<std::size_t>(c)])]);
  }
}

// --- physics invariance and determinism ------------------------------------

TEST(LdbPhysicsTest, BalancerNeverChangesPhysics) {
  // Migrating whole work units changes who computes, never what. The
  // per-rank force partials are summed in ownership order, so a
  // different unit→rank map may round the last bit differently — the
  // same reassociation tolerance the cross-rank-count comparisons use —
  // but the pair list is an exact set and must match term for term.
  const auto off = run(core::reference_platform(), 8, lb_config("spatial"));
  const auto greedy =
      run(core::reference_platform(), 8, lb_config("spatial:ldb=greedy"));
  const auto refine = run(core::reference_platform(), 8,
                          lb_config("spatial:ldb=refine,units=32"));
  const double energy_tol = std::abs(off.energy.potential()) * 1e-6 + 1e-4;
  const double checksum_tol = std::abs(off.position_checksum) * 1e-9;
  EXPECT_NEAR(greedy.energy.potential(), off.energy.potential(), energy_tol);
  EXPECT_NEAR(greedy.position_checksum, off.position_checksum, checksum_tol);
  EXPECT_EQ(greedy.pairs_in_list, off.pairs_in_list);
  EXPECT_NEAR(refine.energy.potential(), off.energy.potential(), energy_tol);
  EXPECT_NEAR(refine.position_checksum, off.position_checksum, checksum_tol);
  EXPECT_EQ(refine.pairs_in_list, off.pairs_in_list);
  // Off reports no balancer activity; greedy's from-scratch repack moves
  // units even fault-free (the cold-start map is contiguous, the repack
  // is not).
  EXPECT_EQ(off.units_moved, 0u);
  EXPECT_EQ(off.unit_map_hash, 0u);
  EXPECT_GT(greedy.units_moved, 0u);
  EXPECT_NE(greedy.unit_map_hash, 0u);
}

TEST(LdbPhysicsTest, TrajectoryIsDeterministicAcrossReruns) {
  const CharmmConfig config = lb_config("spatial:ldb=greedy");
  core::ExperimentSpec spec =
      lb_spec(core::reference_platform(), 8, config);
  spec.faults = net::parse_fault_spec("straggler=6,x=2");
  const auto a = core::run_experiment(system_fixture(), spec);
  const auto b = core::run_experiment(system_fixture(), spec);
  EXPECT_EQ(a.unit_map_hash, b.unit_map_hash);
  EXPECT_EQ(a.units_moved, b.units_moved);
  EXPECT_EQ(a.energy.potential(), b.energy.potential());
  EXPECT_EQ(a.position_checksum, b.position_checksum);
  EXPECT_EQ(a.total_seconds(), b.total_seconds());

  // The trajectory is measurement-driven: the straggler's measured speed
  // steers the packer somewhere the fault-free run never goes.
  spec.faults.reset();
  const auto healthy = core::run_experiment(system_fixture(), spec);
  EXPECT_NE(healthy.unit_map_hash, a.unit_map_hash);
}

// --- predictor pins --------------------------------------------------------

TEST(LdbModelTest, RunLevelMessageAndByteCountsAreExact) {
  // With drift frozen (zero-temperature start: nothing crosses a cell
  // boundary in 6 half-femtosecond steps) and jitter off, the replayed
  // balancer trajectory is the simulated one, and the whole-run traffic
  // — per-step halos of every adopted epoch plus migration, the
  // cost/speed allreduce, unit handoffs, and ghost renegotiation — is an
  // exact count. Only the 3-double result allreduce after the loop sits
  // outside it: 2(p-1) messages of 24 bytes.
  core::Platform platform;
  platform.network = net::Network::kScoreGigE;
  const int p = 8;
  for (const char* decomp : {"spatial:ldb=greedy", "spatial:ldb=refine"}) {
    for (bool use_pme : {false, true}) {
      if (use_pme && decomp[12] == 'r') continue;  // one PME pin is enough
      CharmmConfig config = lb_config(decomp);
      config.coherency_barriers = false;
      config.use_pme = use_pme;
      config.temperature_k = 0.0;
      core::ExperimentSpec spec = lb_spec(platform, p, config);
      const auto sim = core::run_experiment(system_fixture(), spec);
      ASSERT_EQ(sim.atoms_migrated, 0u) << decomp;  // zero-drift premise
      EXPECT_GT(sim.units_moved, 0u) << decomp;
      const core::OverheadPrediction pred = core::predict_step_overheads(
          *spec.network_params, p, system_fixture(), config);
      double sim_messages = 0.0;
      double sim_bytes = 0.0;
      for (const auto& ch : sim.metrics.channels) {
        sim_messages += static_cast<double>(ch.messages);
        sim_bytes += ch.bytes;
      }
      const double epilogue_messages = 2.0 * (p - 1);
      const double epilogue_bytes = 2.0 * (p - 1) * 24.0;
      EXPECT_DOUBLE_EQ(pred.run_messages + epilogue_messages, sim_messages)
          << decomp << " pme=" << use_pme;
      EXPECT_DOUBLE_EQ(pred.run_bytes + epilogue_bytes, sim_bytes)
          << decomp << " pme=" << use_pme;
      EXPECT_EQ(static_cast<std::size_t>(pred.units_moved), sim.units_moved)
          << decomp << " pme=" << use_pme;
      EXPECT_GT(pred.rebalance_messages, 0.0);
      EXPECT_LT(pred.rebalance_bytes, pred.run_bytes);
    }
  }
}

TEST(LdbModelTest, RunTotalsAreZeroWithTheBalancerOff) {
  CharmmConfig config = lb_config("spatial");
  const core::OverheadPrediction pred = core::predict_step_overheads(
      net::params_for(net::Network::kScoreGigE), 8, system_fixture(),
      config);
  EXPECT_EQ(pred.run_messages, 0.0);
  EXPECT_EQ(pred.run_bytes, 0.0);
  EXPECT_EQ(pred.rebalance_messages, 0.0);
  EXPECT_EQ(pred.rebalance_bytes, 0.0);
  EXPECT_EQ(pred.units_moved, 0.0);
}

// --- packing envelope and recovery -----------------------------------------

TEST(LdbBalanceTest, PairCostPackingTightensTheColdStartImbalance) {
  // Two steps, default rebuild interval: no rebalance ever fires, so this
  // isolates the cold-start map. The paper's solute blob leaves the
  // atom-packed static map 1.3-3.2x hot on compute; packing by estimated
  // pair cost must not leave the balanced map any worse.
  CharmmConfig config = lb_config("spatial", /*nsteps=*/2);
  config.list_rebuild_interval = 5;
  const auto off = run(core::reference_platform(), 8, config);
  config.decomp = parse_decomp_spec("spatial:ldb=greedy");
  const auto ldb = run(core::reference_platform(), 8, config);
  EXPECT_EQ(ldb.units_moved, 0u);  // cold start only, no rebuild crossed
  const double off_factor = off.metrics.compute_imbalance.factor();
  const double ldb_factor = ldb.metrics.compute_imbalance.factor();
  EXPECT_GE(off_factor, 1.3);
  EXPECT_LE(off_factor, 3.2);
  EXPECT_GE(ldb_factor, 1.0);
  EXPECT_LT(ldb_factor, off_factor);
  EXPECT_LE(ldb_factor, 3.2);
}

TEST(LdbBalanceTest, BalancerRecoversMostOfTheStragglerInflation) {
  // The PR's acceptance bar: straggling the statically-overloaded node
  // inflates ldb=off's critical path; the balancer must claw back at
  // least half of that inflation (it measures ~95-99% here).
  const core::Platform platform = core::reference_platform();
  const CharmmConfig off_config = lb_config("spatial", /*nsteps=*/10);
  const CharmmConfig ldb_config_ =
      lb_config("spatial:ldb=greedy", /*nsteps=*/10);
  const auto fault = net::parse_fault_spec("straggler=6,x=2");

  const auto off_base = run(platform, 8, off_config);
  const auto ldb_base = run(platform, 8, ldb_config_);
  core::ExperimentSpec spec = lb_spec(platform, 8, off_config);
  spec.faults = fault;
  const auto off_fault = core::run_experiment(system_fixture(), spec);
  spec.charmm = ldb_config_;
  const auto ldb_fault = core::run_experiment(system_fixture(), spec);

  const double off_inflation =
      off_fault.total_seconds() - off_base.total_seconds();
  const double ldb_inflation =
      ldb_fault.total_seconds() - ldb_base.total_seconds();
  ASSERT_GT(off_inflation, 0.0);
  const double recovered = 1.0 - ldb_inflation / off_inflation;
  EXPECT_GE(recovered, 0.5) << "off=" << off_inflation
                            << " ldb=" << ldb_inflation;
  // The balanced run under the fault also moved units it did not move
  // fault-free — the recovery is adaptation, not static luck.
  EXPECT_NE(ldb_fault.unit_map_hash, ldb_base.unit_map_hash);
}

// --- imbalance metrics -----------------------------------------------------

TEST(ImbalanceMetricsTest, FactorIsMaxOverMean) {
  perf::ImbalanceMetrics im;
  im.max_seconds = 4.0;
  im.mean_seconds = 2.0;
  EXPECT_DOUBLE_EQ(im.factor(), 2.0);
  EXPECT_EQ(perf::ImbalanceMetrics{}.factor(), 0.0);  // no data, no factor
}

TEST(ImbalanceMetricsTest, JsonBlockIsEmittedOnlyWhenPopulated) {
  perf::RunMetrics metrics;
  EXPECT_EQ(perf::metrics_json(metrics).find("imbalance"),
            std::string::npos);
  metrics.compute_imbalance.max_seconds = 3.0;
  metrics.compute_imbalance.mean_seconds = 1.5;
  metrics.phase_imbalance["nonbonded"] =
      perf::ImbalanceMetrics{2.0, 1.0};
  const std::string json = perf::metrics_json(metrics);
  EXPECT_NE(json.find("\"imbalance\":{\"compute\":{\"max_s\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"nonbonded\":{\"max_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"factor\":"), std::string::npos);
}

TEST(ImbalanceMetricsTest, MultiRankPhasedRunsPopulateTheFactors) {
  const auto par = run(core::reference_platform(), 4, lb_config("spatial"));
  EXPECT_GT(par.metrics.compute_imbalance.factor(), 1.0);
  EXPECT_FALSE(par.metrics.phase_imbalance.empty());
  EXPECT_EQ(par.metrics.phase_imbalance.count("nonbonded"), 1u);
  // Sequential runs have no ranks to be imbalanced across.
  const auto seq = run(core::reference_platform(), 1, lb_config("spatial"));
  EXPECT_EQ(seq.metrics.compute_imbalance.factor(), 0.0);
  EXPECT_TRUE(seq.metrics.phase_imbalance.empty());
}

}  // namespace
}  // namespace repro::charmm
