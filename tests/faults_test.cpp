// Fault-injection subsystem: spec parsing/validation, the injector's
// timing arithmetic, its wiring into ClusterNetwork, and the
// seed-determinism contract (same seed => identical fault sequences and
// metrics, with or without sweep concurrency).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/sweep.hpp"
#include "net/cluster.hpp"
#include "net/faults.hpp"
#include "perf/metrics.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"

namespace repro::net {
namespace {

// --- spec parsing -----------------------------------------------------

TEST(FaultSpecParseTest, EmptyStringIsEmptySpec) {
  const FaultSpec spec = parse_fault_spec("");
  EXPECT_FALSE(spec.any());
  EXPECT_EQ(to_string(spec), "");
}

TEST(FaultSpecParseTest, ParsesEveryClauseKind) {
  const FaultSpec spec = parse_fault_spec(
      "loss=0.01,rto=0.1,backoff=3,retries=8,recovery=linklevel;"
      "degrade=0-2,bw=0.5,lat=0.001;"
      "straggler=1,x=1.5,period=0.05,dur=0.005;"
      "stall=3,at=0.5,dur=0.2");
  ASSERT_EQ(spec.packet_loss.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.packet_loss[0].loss_prob, 0.01);
  EXPECT_DOUBLE_EQ(spec.packet_loss[0].rto, 0.1);
  EXPECT_DOUBLE_EQ(spec.packet_loss[0].rto_backoff, 3.0);
  EXPECT_EQ(spec.packet_loss[0].max_retries, 8);
  EXPECT_EQ(spec.packet_loss[0].recovery,
            PacketLossFault::Recovery::kLinkLevel);
  ASSERT_EQ(spec.degraded_links.size(), 1u);
  EXPECT_EQ(spec.degraded_links[0].node_a, 0);
  EXPECT_EQ(spec.degraded_links[0].node_b, 2);
  EXPECT_DOUBLE_EQ(spec.degraded_links[0].bandwidth_factor, 0.5);
  EXPECT_DOUBLE_EQ(spec.degraded_links[0].extra_latency, 0.001);
  ASSERT_EQ(spec.stragglers.size(), 1u);
  EXPECT_EQ(spec.stragglers[0].node, 1);
  EXPECT_DOUBLE_EQ(spec.stragglers[0].compute_factor, 1.5);
  ASSERT_EQ(spec.stalls.size(), 1u);
  EXPECT_EQ(spec.stalls[0].node, 3);
  EXPECT_DOUBLE_EQ(spec.stalls[0].at, 0.5);
  EXPECT_DOUBLE_EQ(spec.stalls[0].duration, 0.2);
  EXPECT_TRUE(spec.any());
}

TEST(FaultSpecParseTest, ToStringRoundTrips) {
  const std::string canonical = to_string(parse_fault_spec(
      "loss=0.02;degrade=1-3,bw=0.25;straggler=0,x=2;stall=2,at=1,dur=0.5"));
  const FaultSpec reparsed = parse_fault_spec(canonical);
  EXPECT_EQ(to_string(reparsed), canonical);
}

TEST(FaultSpecParseTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("frobnicate=1"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=abc"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=0.1,recovery=magic"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=0.1,unknown=2"), util::Error);
  EXPECT_THROW(parse_fault_spec("degrade=5"), util::Error);  // no pair
  EXPECT_THROW(parse_fault_spec("straggler=1.5"), util::Error);
  // Values are strict finite decimals: no inf, whitespace, '+' or hex.
  EXPECT_THROW(parse_fault_spec("straggler=0,x=inf"), util::Error);
  EXPECT_THROW(parse_fault_spec("degrade=0-1,lat=inf"), util::Error);
  EXPECT_THROW(parse_fault_spec("stall=0,at=0,dur=inf"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=nan"), util::Error);
  EXPECT_THROW(parse_fault_spec("straggler=0,x= 2"), util::Error);
  EXPECT_THROW(parse_fault_spec("straggler=0,x=+2"), util::Error);
  EXPECT_THROW(parse_fault_spec("straggler=0,x=0x1p1"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=0.1,retries=2.0"), util::Error);
}

// --- validation -------------------------------------------------------

TEST(FaultSpecValidateTest, RejectsOutOfRangeParameters) {
  EXPECT_THROW(parse_fault_spec("loss=1.0"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=-0.1"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=0.1,rto=0"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=0.1,backoff=0.5"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=0.1,retries=0"), util::Error);
  EXPECT_THROW(parse_fault_spec("loss=0.1,retries=65"), util::Error);
  EXPECT_THROW(parse_fault_spec("degrade=0-1,bw=0"), util::Error);
  EXPECT_THROW(parse_fault_spec("degrade=0-1,bw=1.5"), util::Error);
  EXPECT_THROW(parse_fault_spec("degrade=0-1,lat=-1"), util::Error);
  EXPECT_THROW(parse_fault_spec("straggler=0,x=0.5"), util::Error);
  EXPECT_THROW(parse_fault_spec("straggler=0,dur=0.1"), util::Error);  // no period
  EXPECT_THROW(parse_fault_spec("stall=0,dur=0"), util::Error);
  EXPECT_THROW(parse_fault_spec("stall=-1,dur=0.1"), util::Error);
}

TEST(FaultSpecValidateTest, NodeBoundsCheckedAgainstCluster) {
  const FaultSpec spec = parse_fault_spec("straggler=4,x=2");
  EXPECT_NO_THROW(spec.validate());         // no cluster: index unchecked
  EXPECT_NO_THROW(spec.validate(5));
  EXPECT_THROW(spec.validate(4), util::Error);
  EXPECT_THROW(FaultInjector(spec, 1, 4), util::Error);
}

// --- injector arithmetic ----------------------------------------------

TEST(FaultInjectorTest, StallReleaseWalksChainedWindows) {
  FaultSpec spec;
  spec.stalls.push_back(NodeStall{0, 1.0, 0.5});
  spec.stalls.push_back(NodeStall{0, 1.4, 1.0});  // overlaps the first
  spec.stalls.push_back(NodeStall{1, 0.0, 9.0});  // other node
  FaultInjector inj(spec, 42, 2);
  EXPECT_DOUBLE_EQ(inj.stall_release(0, 0.5), 0.5);   // before any window
  EXPECT_DOUBLE_EQ(inj.stall_release(0, 1.2), 2.4);   // through both
  EXPECT_DOUBLE_EQ(inj.stall_release(0, 3.0), 3.0);   // after
  EXPECT_GE(inj.counters().stall_events, 2u);
  EXPECT_GT(inj.counters().stall_delay, 0.0);
}

TEST(FaultInjectorTest, StragglerStretchesCompute) {
  FaultSpec spec;
  spec.stragglers.push_back(Straggler{0, 1.5, 0.0, 0.0});
  FaultInjector inj(spec, 42, 2);
  EXPECT_DOUBLE_EQ(inj.perturb_compute(0, 0.0, 2.0), 1.0);  // 2.0 * 0.5
  EXPECT_DOUBLE_EQ(inj.perturb_compute(1, 0.0, 2.0), 0.0);  // healthy node
  EXPECT_DOUBLE_EQ(inj.counters().straggler_delay, 1.0);
}

TEST(FaultInjectorTest, OsNoiseBurstsTickWithThePeriod) {
  FaultSpec spec;
  spec.stragglers.push_back(Straggler{0, 1.0, 0.1, 0.01});
  FaultInjector inj(spec, 42, 1);
  // A 1-second region crosses ~10 burst ticks of 10 ms each.
  const double extra = inj.perturb_compute(0, 0.0, 1.0);
  EXPECT_GT(extra, 0.05);
  EXPECT_LT(extra, 0.2);
  EXPECT_GE(inj.counters().noise_bursts, 5u);
  EXPECT_DOUBLE_EQ(inj.counters().noise_delay, extra);
}

TEST(FaultInjectorTest, DegradationScalesWireTime) {
  FaultSpec spec;
  spec.degraded_links.push_back(LinkDegradation{0, 1, 0.5, 0.002});
  FaultInjector inj(spec, 42, 3);
  const auto fx =
      inj.perturb_link(0, 1, 1000, 1, 1500, 1e6, 50e-6, /*wire=*/1e-3);
  // Halved bandwidth doubles the wire occupancy: one extra nominal wire.
  EXPECT_DOUBLE_EQ(fx.extra_wire, 1e-3);
  EXPECT_DOUBLE_EQ(fx.extra_latency, 0.002);
  EXPECT_EQ(inj.counters().degraded_messages, 1u);
  // Direction and order don't matter; untouched pairs see nothing.
  const auto back =
      inj.perturb_link(1, 0, 1000, 1, 1500, 1e6, 50e-6, 1e-3);
  EXPECT_DOUBLE_EQ(back.extra_wire, 1e-3);
  const auto other =
      inj.perturb_link(1, 2, 1000, 1, 1500, 1e6, 50e-6, 1e-3);
  EXPECT_DOUBLE_EQ(other.extra_wire, 0.0);
  EXPECT_DOUBLE_EQ(other.extra_latency, 0.0);
}

TEST(FaultInjectorTest, LinkLevelRecoveryCostsOneRoundTripPerLoss) {
  FaultSpec spec;
  PacketLossFault loss;
  loss.loss_prob = 0.5;
  loss.recovery = PacketLossFault::Recovery::kLinkLevel;
  spec.packet_loss.push_back(loss);
  FaultInjector inj(spec, 7, 2);
  const double latency = 11e-6;
  const double bandwidth = 100e6;
  FaultInjector::LinkEffect total;
  for (int i = 0; i < 64; ++i) {
    const auto fx =
        inj.perturb_link(0, 1, 1460, 1, 1460, bandwidth, latency, 1e-5);
    total.extra_latency += fx.extra_latency;
    total.retransmits += fx.retransmits;
  }
  ASSERT_GT(total.retransmits, 0u);
  // Every recovery waits exactly one link round trip.
  EXPECT_NEAR(total.extra_latency, total.retransmits * 2.0 * latency, 1e-12);
}

TEST(FaultInjectorTest, TimeoutRecoveryBacksOffExponentially) {
  FaultSpec spec;
  PacketLossFault loss;
  loss.loss_prob = 0.999;  // force max_retries consecutive losses
  loss.rto = 0.1;
  loss.rto_backoff = 2.0;
  loss.max_retries = 3;
  spec.packet_loss.push_back(loss);
  FaultInjector inj(spec, 7, 2);
  const auto fx = inj.perturb_link(0, 1, 100, 1, 1460, 1e6, 50e-6, 1e-4);
  ASSERT_EQ(fx.retransmits, 3u);
  // Waits 0.1 + 0.2 + 0.4 plus three retransmitted copies on the wire.
  EXPECT_NEAR(fx.extra_latency, 0.7, 1e-9);
  EXPECT_DOUBLE_EQ(fx.retrans_bytes, 300.0);
}

TEST(FaultInjectorTest, SameSeedSameFaultSequence) {
  FaultSpec spec;
  PacketLossFault loss;
  loss.loss_prob = 0.2;
  spec.packet_loss.push_back(loss);
  FaultInjector a(spec, 1234, 4);
  FaultInjector b(spec, 1234, 4);
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.perturb_link(0, 1, 5000, 4, 1460, 1e7, 50e-6, 5e-4);
    const auto fb = b.perturb_link(0, 1, 5000, 4, 1460, 1e7, 50e-6, 5e-4);
    EXPECT_EQ(fa.retransmits, fb.retransmits);
    EXPECT_DOUBLE_EQ(fa.extra_latency, fb.extra_latency);
    EXPECT_DOUBLE_EQ(fa.extra_wire, fb.extra_wire);
  }
  EXPECT_EQ(a.counters().packets_lost, b.counters().packets_lost);
  EXPECT_GT(a.counters().packets_lost, 0u);
}

// --- ClusterNetwork wiring --------------------------------------------

TEST(ClusterFaultsTest, EmptySpecBehavesLikeNoFaults) {
  ClusterConfig config;
  config.nranks = 4;
  config.network = Network::kScoreGigE;
  ClusterNetwork plain(config);
  ClusterNetwork armed(config, params_for(config.network), FaultSpec{});
  EXPECT_FALSE(plain.faults_enabled());
  EXPECT_FALSE(armed.faults_enabled());
  EXPECT_EQ(armed.fault_counters(), nullptr);
  // Identical message sequences produce bit-identical timings.
  double t = 0.0;
  for (int i = 0; i < 32; ++i) {
    const auto a = plain.message(i % 4, (i + 1) % 4, 2000, t);
    const auto b = armed.message(i % 4, (i + 1) % 4, 2000, t);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.sender_busy, b.sender_busy);
    EXPECT_EQ(a.fault_delay, 0.0);
    EXPECT_EQ(b.fault_delay, 0.0);
    t = std::max(a.arrival, b.arrival);
  }
}

TEST(ClusterFaultsTest, StalledSenderDelaysTheMessage) {
  ClusterConfig config;
  config.nranks = 2;
  config.network = Network::kScoreGigE;
  FaultSpec spec;
  spec.stalls.push_back(NodeStall{0, 1.0, 0.5});
  ClusterNetwork net(config, params_for(config.network), spec);
  ASSERT_TRUE(net.faults_enabled());
  const MessageTiming hit = net.message(0, 1, 1000, 1.2);
  EXPECT_GE(hit.sender_stall, 0.3);  // frozen until t=1.5
  EXPECT_GE(hit.fault_delay, 0.3);
  EXPECT_GE(hit.arrival, 1.5);
  ASSERT_NE(net.fault_counters(), nullptr);
  EXPECT_GE(net.fault_counters()->stall_events, 1u);
}

TEST(ClusterFaultsTest, StalledReceiverHoldsArrival) {
  ClusterConfig config;
  config.nranks = 2;
  config.network = Network::kScoreGigE;
  FaultSpec spec;
  spec.stalls.push_back(NodeStall{1, 0.0, 2.0});  // receiver frozen
  ClusterNetwork net(config, params_for(config.network), spec);
  const MessageTiming t = net.message(0, 1, 1000, 0.5);
  EXPECT_GE(t.arrival, 2.0);
  EXPECT_GT(t.fault_delay, 0.0);
}

TEST(ClusterFaultsTest, ComputePerturbationOnlyOnFaultyNodes) {
  ClusterConfig config;
  config.nranks = 2;
  FaultSpec spec;
  spec.stragglers.push_back(Straggler{1, 2.0, 0.0, 0.0});
  ClusterNetwork net(config, params_for(config.network), spec);
  EXPECT_DOUBLE_EQ(net.compute_perturbation(0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(net.compute_perturbation(1, 0.0, 1.0), 1.0);
  net.attribute_fault_delay(1, 1.0);
  EXPECT_DOUBLE_EQ(net.fault_counters()->absorbed[1], 1.0);
}

// --- end-to-end determinism -------------------------------------------

const sysbuild::BuiltSystem& small_system() {
  static const sysbuild::BuiltSystem sys = sysbuild::build_water_box(8);
  return sys;
}

core::ExperimentSpec small_spec(int nprocs) {
  core::ExperimentSpec spec;
  spec.platform.network = Network::kTcpGigE;
  spec.nprocs = nprocs;
  spec.charmm.nsteps = 2;
  spec.charmm.pme = pme::PmeParams{24, 24, 24, 4, 0.4};
  spec.charmm.cutoff = 9.0;
  spec.charmm.switch_on = 7.5;
  return spec;
}

TEST(FaultDeterminismTest, SameSeedSameMetricsJson) {
  core::ExperimentSpec spec = small_spec(4);
  spec.faults = parse_fault_spec(
      "loss=0.01;straggler=0,x=1.3;stall=1,at=0.05,dur=0.02");
  const auto a = core::run_experiment(small_system(), spec);
  const auto b = core::run_experiment(small_system(), spec);
  ASSERT_TRUE(a.metrics.faults.enabled);
  EXPECT_GT(a.metrics.faults.total_delay(), 0.0);
  EXPECT_EQ(perf::metrics_json(a.metrics), perf::metrics_json(b.metrics));
}

TEST(FaultDeterminismTest, DifferentSeedDifferentFaultSequence) {
  core::ExperimentSpec spec = small_spec(4);
  spec.faults = parse_fault_spec("loss=0.02");
  const auto a = core::run_experiment(small_system(), spec);
  spec.seed = spec.seed + 1;
  const auto b = core::run_experiment(small_system(), spec);
  // Both injected faults, but the streams differ.
  EXPECT_GT(a.metrics.faults.packets_lost, 0u);
  EXPECT_GT(b.metrics.faults.packets_lost, 0u);
  EXPECT_NE(perf::metrics_json(a.metrics), perf::metrics_json(b.metrics));
}

TEST(FaultDeterminismTest, FaultsLeaveResultsBitIdenticalAcrossJobs) {
  std::vector<core::ExperimentSpec> specs;
  for (int p : {2, 4}) {
    core::ExperimentSpec spec = small_spec(p);
    spec.faults = parse_fault_spec(
        "loss=0.01;degrade=0-1,bw=0.5;straggler=0,x=1.2");
    specs.push_back(spec);
  }
  const auto seq = core::SweepRunner(1).run(small_system(), specs);
  const auto par = core::SweepRunner(4).run(small_system(), specs);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    ASSERT_TRUE(par[i].ok()) << par[i].error;
    EXPECT_GT(seq[i].result.metrics.faults.total_delay(), 0.0);
    EXPECT_EQ(perf::metrics_json(seq[i].result.metrics),
              perf::metrics_json(par[i].result.metrics));
  }
}

TEST(FaultDeterminismTest, FaultsOnlyChangeTimingNeverResults) {
  core::ExperimentSpec clean = small_spec(4);
  core::ExperimentSpec faulty = clean;
  faulty.faults = parse_fault_spec(
      "loss=0.02;degrade=0-2,bw=0.5,lat=0.001;straggler=1,x=1.5;"
      "stall=2,at=0.01,dur=0.05");
  const auto a = core::run_experiment(small_system(), clean);
  const auto b = core::run_experiment(small_system(), faulty);
  // Physics is untouched: every payload arrived intact, so energies and
  // trajectories match bit-for-bit. Only the clock moved.
  EXPECT_EQ(a.energy.potential(), b.energy.potential());
  EXPECT_EQ(a.position_checksum, b.position_checksum);
  EXPECT_GT(b.total_seconds(), a.total_seconds());
  // And the fault-free run serializes without a "faults" key.
  EXPECT_EQ(perf::metrics_json(a.metrics).find("\"faults\""),
            std::string::npos);
  EXPECT_NE(perf::metrics_json(b.metrics).find("\"faults\""),
            std::string::npos);
}

}  // namespace
}  // namespace repro::net
