// Workload characterization: the paper's §3 methodology as a reusable
// tool. For a chosen platform configuration it reports, per component of
// the energy calculation, the computation / communication /
// synchronization split, per-node communication speed statistics, and the
// factor-space position — everything needed to "derive good estimates
// about the benefits of moving applications to novel computing platforms".
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

#include "charmm/simulation.hpp"
#include "core/experiment.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

using namespace repro;

namespace {

constexpr const char* kUsage =
    "[procs] [tcp|score|myrinet] [mpi|cmpi] [uni|dual]";

// Maps a positional word to its value. Any other word is an error naming
// the argument, so a typo cannot silently run the default platform.
template <typename T>
T pick(const std::string& word, const std::string& what,
       std::initializer_list<std::pair<const char*, T>> choices) {
  std::string expected;
  for (const auto& [name, value] : choices) {
    if (word == name) return value;
    if (!expected.empty()) expected += '|';
    expected += name;
  }
  throw util::Error(what + ": unknown value '" + word + "' (expected " +
                    expected + ")");
}

void report(const core::ExperimentResult& r, const core::ExperimentSpec& spec) {
  std::printf("\nplatform : %s\n", spec.platform.to_string().c_str());
  std::printf("processes: %d   (MD steps: %d, atoms: %d, pairs in list: %zu)\n",
              spec.nprocs, spec.charmm.nsteps, sysbuild::kTotalAtoms,
              r.pairs_in_list);

  auto line = [](const char* name, const perf::Breakdown& b) {
    const double t = b.total();
    std::printf("  %-18s %7.3f s   comp %6.1f%%  comm %6.1f%%  sync %6.1f%%\n",
                name, t, t > 0 ? 100 * b.comp / t : 0,
                t > 0 ? 100 * b.comm / t : 0, t > 0 ? 100 * b.sync / t : 0);
  };
  std::printf("component breakdown (slowest rank):\n");
  line("classic calc", r.breakdown.classic_wall);
  line("pme calc", r.breakdown.pme_wall);
  line("total energy calc", r.breakdown.total_wall());

  if (r.breakdown.comm_speed.samples > 0) {
    std::printf("per-node communication speed: avg %.1f MB/s  "
                "[min %.1f, max %.1f] over %zu node-step samples\n",
                r.breakdown.comm_speed.avg_mb_per_s,
                r.breakdown.comm_speed.min_mb_per_s,
                r.breakdown.comm_speed.max_mb_per_s,
                r.breakdown.comm_speed.samples);
  }
  std::printf("final potential energy: %.2f kcal/mol (bit-identical on all "
              "ranks)\n",
              r.energy.potential());
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentSpec spec;
  spec.nprocs = 8;
  try {
    if (argc > 5) {
      throw util::Error("too many arguments (usage: " +
                        std::string(argv[0]) + " " + kUsage + ")");
    }
    if (argc > 1) spec.nprocs = util::parse_int(argv[1], "<procs>");
    if (argc > 2) {
      spec.platform.network = pick<net::Network>(
          argv[2], "<network>",
          {{"tcp", net::Network::kTcpGigE},
           {"score", net::Network::kScoreGigE},
           {"myrinet", net::Network::kMyrinetGM}});
    }
    if (argc > 3) {
      spec.platform.middleware = pick<middleware::Kind>(
          argv[3], "<middleware>",
          {{"mpi", middleware::Kind::kMpi}, {"cmpi", middleware::Kind::kCmpi}});
    }
    if (argc > 4) {
      spec.platform.cpus_per_node =
          pick<int>(argv[4], "<cpus>", {{"uni", 1}, {"dual", 2}});
    }
  } catch (const util::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("building + relaxing the molecular system...\n");
  sysbuild::BuiltSystem sys = sysbuild::build_myoglobin_like();
  charmm::relax_system(sys, 60);

  // Characterize the requested configuration plus the sequential baseline.
  core::ExperimentSpec baseline = spec;
  baseline.nprocs = 1;
  report(core::run_experiment(sys, baseline), baseline);
  spec.record_timelines = true;
  const core::ExperimentResult r = core::run_experiment(sys, spec);
  report(r, spec);

  // A window over the middle of the run shows where each rank spends its
  // time (the visual form of the comp/comm/sync decomposition).
  if (!r.timelines.empty()) {
    perf::RenderOptions window;
    double span = 0.0;
    for (const auto& t : r.timelines) span = std::max(span, t.span_end());
    window.begin = span * 0.45;
    window.end = span * 0.65;
    window.columns = 96;
    std::printf("\ntimeline window (two MD steps or so):\n%s",
                perf::render_timelines(r.timelines, window).c_str());
  }

  const double seq =
      core::run_experiment(sys, baseline).total_seconds();
  std::printf("\nspeedup vs one processor: %.2fx (efficiency %.0f%%)\n",
              seq / r.total_seconds(),
              100.0 * seq / r.total_seconds() / spec.nprocs);
  return 0;
}
