// Integration coverage for the large-p DES path: hundreds of fiber ranks
// through a short ping-ring, pinning completion and counter determinism
// across repeated runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mpi/comm.hpp"
#include "net/cluster.hpp"
#include "perf/recorder.hpp"
#include "sim/engine.hpp"

namespace repro {
namespace {

struct RingOutcome {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  std::vector<double> finish;  // per-rank final virtual clock
  int completed = 0;
};

// Every rank exchanges with both ring neighbors each step, then computes.
RingOutcome run_ring(int p, int steps) {
  net::ClusterConfig cfg;
  cfg.nranks = p;
  cfg.cpus_per_node = 1;
  cfg.network = net::Network::kScoreGigE;
  net::ClusterNetwork net(cfg);
  sim::Engine engine(p);
  std::vector<perf::RankRecorder> recorders(static_cast<std::size_t>(p));
  RingOutcome out;
  out.finish.assign(static_cast<std::size_t>(p), 0.0);
  std::vector<int> done(static_cast<std::size_t>(p), 0);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, net, recorders[static_cast<std::size_t>(ctx.rank())]);
    const int r = ctx.rank();
    const int n = ctx.size();
    double snd[4] = {static_cast<double>(r)};
    double rcv[4] = {};
    for (int s = 0; s < steps; ++s) {
      comm.sendrecv((r + 1) % n, 5, snd, sizeof snd, (r - 1 + n) % n, 5, rcv,
                    sizeof rcv);
      comm.compute(1e-6);
    }
    // The left neighbor's rank id must have arrived on the last step.
    EXPECT_DOUBLE_EQ(rcv[0], static_cast<double>((r - 1 + n) % n));
    out.finish[static_cast<std::size_t>(r)] = ctx.now();
    done[static_cast<std::size_t>(r)] = 1;
  });
  out.events = engine.events_processed();
  out.switches = engine.context_switches();
  for (int d : done) out.completed += d;
  return out;
}

TEST(DesScaleTest, FiveHundredTwelveFiberRanksComplete) {
  const RingOutcome out = run_ring(512, 4);
  EXPECT_EQ(out.completed, 512);
  // 512 ranks x 4 steps, one inbound message each: the event count must
  // reflect every message having been delivered.
  EXPECT_GE(out.events, 512u * 4u);
  for (double f : out.finish) EXPECT_GT(f, 0.0);
}

TEST(DesScaleTest, RepeatedRunsAreCounterAndClockIdentical) {
  const RingOutcome a = run_ring(512, 4);
  const RingOutcome b = run_ring(512, 4);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.switches, b.switches);
  ASSERT_EQ(a.finish.size(), b.finish.size());
  for (std::size_t i = 0; i < a.finish.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.finish[i], b.finish[i]) << "rank " << i;
  }
}

}  // namespace
}  // namespace repro
