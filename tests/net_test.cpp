#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/cluster.hpp"
#include "net/params.hpp"
#include "net/topology.hpp"
#include "util/error.hpp"

namespace repro::net {
namespace {

ClusterConfig config(int nranks, int cpus, Network network,
                     std::uint64_t seed = 99) {
  ClusterConfig c;
  c.nranks = nranks;
  c.cpus_per_node = cpus;
  c.network = network;
  c.seed = seed;
  return c;
}

TEST(ParamsTest, AllNetworksDefined) {
  for (Network n : {Network::kTcpGigE, Network::kScoreGigE,
                    Network::kMyrinetGM, Network::kTcpFastEthernet}) {
    const NetworkParams p = params_for(n);
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.bandwidth, 0.0);
    EXPECT_GT(p.latency, 0.0);
    EXPECT_GT(p.mtu, 0u);
    EXPECT_FALSE(to_string(n).empty());
  }
}

TEST(ParamsTest, ToStringNamesAreDistinct) {
  std::set<std::string> display;
  std::set<std::string> internal;
  for (Network n : {Network::kTcpGigE, Network::kScoreGigE,
                    Network::kMyrinetGM, Network::kTcpFastEthernet}) {
    display.insert(to_string(n));
    internal.insert(params_for(n).name);
  }
  // Both the display names (figure legends) and the parameter-set slugs
  // (sweep labels, JSON) must be unique per stack.
  EXPECT_EQ(display.size(), 4u);
  EXPECT_EQ(internal.size(), 4u);
}

TEST(ParamsTest, ValidateRejectsDegenerateParams) {
  const NetworkParams good = params_for(Network::kScoreGigE);
  EXPECT_NO_THROW(validate_params(good));

  NetworkParams p = good;
  p.mtu = 0;  // packet math would divide by zero
  EXPECT_THROW(validate_params(p), util::Error);

  p = good;
  p.bandwidth = 0.0;
  EXPECT_THROW(validate_params(p), util::Error);
  p.bandwidth = -1e9;
  EXPECT_THROW(validate_params(p), util::Error);

  p = good;
  p.copy_bandwidth = 0.0;
  EXPECT_THROW(validate_params(p), util::Error);

  p = good;
  p.shm_bandwidth = -1.0;
  EXPECT_THROW(validate_params(p), util::Error);

  p = good;
  p.send_overhead = -1e-6;  // negative host costs make no sense
  EXPECT_THROW(validate_params(p), util::Error);

  p = good;
  p.jitter_prob_per_rank = 1.5;  // probabilities live in [0, 1]
  EXPECT_THROW(validate_params(p), util::Error);

  p = good;
  p.duplex_exchange_factor = 0.5;  // an exchange cannot beat one-way
  EXPECT_THROW(validate_params(p), util::Error);
}

TEST(ParamsTest, EveryBuiltinSetPassesValidation) {
  for (Network n : {Network::kTcpGigE, Network::kScoreGigE,
                    Network::kMyrinetGM, Network::kTcpFastEthernet}) {
    EXPECT_NO_THROW(validate_params(params_for(n))) << to_string(n);
  }
}

TEST(ParamsTest, StackOrderingMatchesEra) {
  const NetworkParams tcp = params_for(Network::kTcpGigE);
  const NetworkParams score = params_for(Network::kScoreGigE);
  const NetworkParams myri = params_for(Network::kMyrinetGM);
  // Latency: TCP worst, Myrinet best.
  EXPECT_GT(tcp.latency, score.latency);
  EXPECT_GT(score.latency, myri.latency);
  // Effective bandwidth: TCP worst.
  EXPECT_LT(tcp.bandwidth, score.bandwidth);
  EXPECT_LT(score.bandwidth, myri.bandwidth);
  // Host per-packet costs: offloading NICs are nearly free.
  EXPECT_GT(tcp.packet_cost_recv, myri.packet_cost_recv);
  // Only TCP is unstable and interrupt-driven.
  EXPECT_GT(tcp.jitter_prob_per_rank, 0.0);
  EXPECT_EQ(score.jitter_prob_per_rank, 0.0);
  EXPECT_TRUE(tcp.rx_uses_interrupt_cpu);
  EXPECT_FALSE(myri.rx_uses_interrupt_cpu);
}

TEST(ClusterTest, NodePlacement) {
  ClusterNetwork uni(config(8, 1, Network::kScoreGigE));
  EXPECT_EQ(uni.nnodes(), 8);
  EXPECT_EQ(uni.node_of(5), 5);
  ClusterNetwork dual(config(8, 2, Network::kScoreGigE));
  EXPECT_EQ(dual.nnodes(), 4);
  EXPECT_EQ(dual.node_of(0), 0);
  EXPECT_EQ(dual.node_of(1), 0);
  EXPECT_EQ(dual.node_of(2), 1);
  EXPECT_TRUE(dual.same_node(6, 7));
  EXPECT_FALSE(dual.same_node(1, 2));
}

TEST(ClusterTest, RejectsBadConfigs) {
  EXPECT_THROW(ClusterNetwork(config(0, 1, Network::kTcpGigE)), util::Error);
  EXPECT_THROW(ClusterNetwork(config(4, 3, Network::kTcpGigE)), util::Error);
}

TEST(ClusterTest, MessageTimingBasics) {
  ClusterNetwork net(config(2, 1, Network::kScoreGigE));
  const MessageTiming t = net.message(0, 1, 100000, 1.0);
  EXPECT_GT(t.sender_busy, 0.0);
  EXPECT_GT(t.arrival, 1.0 + 100000 / params_for(Network::kScoreGigE).bandwidth);
  EXPECT_GT(t.recv_copy, 0.0);
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_DOUBLE_EQ(net.bytes_sent(), 100000.0);
}

TEST(ClusterTest, SelfSendRejected) {
  ClusterNetwork net(config(2, 1, Network::kScoreGigE));
  EXPECT_THROW(net.message(1, 1, 10, 0.0), util::Error);
}

TEST(ClusterTest, LargerMessagesTakeLonger) {
  ClusterNetwork net(config(2, 1, Network::kMyrinetGM));
  const double small = net.message(0, 1, 1000, 0.0).arrival;
  const double large = net.message(0, 1, 1000000, 10.0).arrival - 10.0;
  EXPECT_GT(large, small);
}

TEST(ClusterTest, IntraNodeFasterThanCrossNodeForSan) {
  // SCore/Myrinet use a shared-memory driver within a node.
  ClusterNetwork net(config(4, 2, Network::kMyrinetGM));
  const double intra = net.message(0, 1, 65536, 0.0).arrival;
  const double cross = net.message(0, 2, 65536, 100.0).arrival - 100.0;
  EXPECT_LT(intra, cross);
}

TEST(ClusterTest, FifoPerChannel) {
  ClusterNetwork net(config(4, 1, Network::kTcpGigE, 1234));
  double last = 0.0;
  for (int i = 0; i < 50; ++i) {
    const MessageTiming t =
        net.message(0, 1, 1000, static_cast<double>(i) * 1e-4);
    EXPECT_GT(t.arrival, last);
    last = t.arrival;
  }
}

TEST(ClusterTest, NicContentionSerializes) {
  // Two big back-to-back messages through one NIC: the second one's
  // arrival is pushed out by roughly the first one's wire time.
  ClusterNetwork net(config(4, 1, Network::kScoreGigE));
  const double wire = 1e6 / params_for(Network::kScoreGigE).bandwidth;
  const MessageTiming a = net.message(0, 1, 1000000, 0.0);
  const MessageTiming b = net.message(0, 2, 1000000, 1e-6);
  EXPECT_GT(b.arrival, a.arrival);
  EXPECT_GT(b.arrival, 2.0 * wire * 0.9);
}

TEST(ClusterTest, IncastContentionAtReceiver) {
  // Many senders into one receiver serialize on the inbound link.
  ClusterNetwork net(config(8, 1, Network::kScoreGigE));
  double last_arrival = 0.0;
  for (int src = 1; src < 8; ++src) {
    const MessageTiming t = net.message(src, 0, 500000, 0.0);
    EXPECT_GT(t.arrival, last_arrival);
    last_arrival = t.arrival;
  }
  const double wire = 500000 / params_for(Network::kScoreGigE).bandwidth;
  EXPECT_GT(last_arrival, 7 * wire * 0.9);
}

TEST(ClusterTest, JitterDeterministicPerSeed) {
  auto arrivals = [](std::uint64_t seed) {
    ClusterNetwork net(config(8, 1, Network::kTcpGigE, seed));
    std::vector<double> out;
    for (int i = 0; i < 30; ++i) {
      out.push_back(net.message(0, 1, 50000, i * 0.1).arrival);
    }
    return out;
  };
  EXPECT_EQ(arrivals(5), arrivals(5));
  EXPECT_NE(arrivals(5), arrivals(6));
}

TEST(ClusterTest, JitterOnsetAtFourRanks) {
  // Below the onset rank count, TCP timings are deterministic functions of
  // the message (no flow-control incidents): two consecutive identical,
  // uncontended messages take identical times.
  ClusterNetwork net2(config(2, 1, Network::kTcpGigE, 7));
  const double d1 =
      net2.message(0, 1, 50000, 0.0).arrival - 0.0;
  const double d2 = net2.message(0, 1, 50000, 100.0).arrival - 100.0;
  EXPECT_NEAR(d1, d2, 1e-9);

  // At 8 ranks some of a series of messages must hit incidents: timings
  // spread out.
  ClusterNetwork net8(config(8, 1, Network::kTcpGigE, 7));
  double min_d = 1e30;
  double max_d = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double t0 = i * 10.0;
    const double d = net8.message(0, 1, 50000, t0).arrival - t0;
    min_d = std::min(min_d, d);
    max_d = std::max(max_d, d);
  }
  EXPECT_GT(max_d / min_d, 1.5);
}

TEST(ClusterTest, ExchangePenaltyOnlyForTcp) {
  ClusterNetwork tcp(config(2, 1, Network::kTcpGigE));
  const double one_way = tcp.message(0, 1, 500000, 0.0).arrival;
  const double exch =
      tcp.message(0, 1, 500000, 1000.0, /*exchange=*/true).arrival - 1000.0;
  EXPECT_GT(exch, one_way * 1.5);

  ClusterNetwork myri(config(2, 1, Network::kMyrinetGM));
  const double m1 = myri.message(0, 1, 500000, 0.0).arrival;
  const double m2 =
      myri.message(0, 1, 500000, 1000.0, /*exchange=*/true).arrival - 1000.0;
  EXPECT_NEAR(m1, m2, 1e-9);
}

TEST(ClusterTest, SmpPenaltiesOnlyWithTwoRanksPerNode) {
  // 3 ranks keeps TCP jitter off (onset is 4), isolating the SMP effects.
  ClusterNetwork uni(config(3, 1, Network::kTcpGigE, 3));
  ClusterNetwork dual(config(3, 2, Network::kTcpGigE, 3));
  EXPECT_DOUBLE_EQ(uni.compute_factor(0), 1.0);
  EXPECT_GT(dual.compute_factor(0), 1.0);
  // Cross-node message touching a dual node is slower than between uni
  // nodes (interrupt-routing bandwidth collapse).
  const double u = uni.message(0, 2, 200000, 0.0).arrival;
  const double d = dual.message(0, 2, 200000, 0.0).arrival;
  EXPECT_GT(d, u * 1.5);
}

TEST(ClusterTest, DualNodeWithSingleRankLeftoverIsUnpenalized) {
  // 3 ranks on dual nodes: node 1 hosts only rank 2.
  ClusterNetwork net(config(3, 2, Network::kTcpGigE));
  EXPECT_GT(net.compute_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(net.compute_factor(2), 1.0);
}

// Generic invariants that must hold for every stack.
class AllNetworksTest : public ::testing::TestWithParam<Network> {};

TEST_P(AllNetworksTest, ZeroByteMessagesAreValid) {
  ClusterNetwork net(config(4, 1, GetParam()));
  const MessageTiming t = net.message(0, 1, 0, 0.0);
  EXPECT_GT(t.arrival, 0.0);
  EXPECT_GE(t.sender_busy, 0.0);
}

TEST_P(AllNetworksTest, TimingScalesWithBytes) {
  ClusterNetwork net(config(2, 1, GetParam()));
  double last = 0.0;
  double t0 = 0.0;
  for (std::size_t bytes : {1000u, 10000u, 100000u, 1000000u}) {
    t0 += 1000.0;  // keep the NIC idle between probes
    const double d = net.message(0, 1, bytes, t0).arrival - t0;
    EXPECT_GT(d, last);
    last = d;
  }
}

TEST_P(AllNetworksTest, LatencyFloorRespected) {
  ClusterNetwork net(config(2, 1, GetParam()));
  const double d = net.message(0, 1, 1, 0.0).arrival;
  EXPECT_GE(d, params_for(GetParam()).latency);
}

TEST_P(AllNetworksTest, IntraNodeNeverUsesTheWire) {
  // Dual-node intra-node messages must be cheaper than cross-node ones of
  // the same size for every stack (loopback or shared memory).
  ClusterNetwork net(config(4, 2, GetParam()));
  const double intra = net.message(0, 1, 200000, 0.0).arrival;
  const double cross = net.message(0, 2, 200000, 1000.0).arrival - 1000.0;
  EXPECT_LT(intra, cross);
}

INSTANTIATE_TEST_SUITE_P(Stacks, AllNetworksTest,
                         ::testing::Values(Network::kTcpGigE,
                                           Network::kScoreGigE,
                                           Network::kMyrinetGM,
                                           Network::kTcpFastEthernet),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(FastEthernetTest, SlowerWireSameProtocolPath) {
  const NetworkParams ge = params_for(Network::kTcpGigE);
  const NetworkParams fe = params_for(Network::kTcpFastEthernet);
  EXPECT_LT(fe.bandwidth, ge.bandwidth);
  EXPECT_EQ(fe.packet_cost_recv, ge.packet_cost_recv);
  EXPECT_EQ(fe.rx_uses_interrupt_cpu, ge.rx_uses_interrupt_cpu);
  EXPECT_GT(fe.jitter_prob_per_rank, 0.0);
}

TEST(ClusterTest, ResourceRegistryCoversEveryNode) {
  ClusterNetwork net(config(4, 2, Network::kTcpGigE));
  const auto& reg = net.resources();
  ASSERT_EQ(reg.size(), 6u);  // 2 nodes x {nic_tx, nic_rx, irq_cpu}
  EXPECT_EQ(reg[0]->name(), "node0/nic_tx");
  EXPECT_EQ(reg[1]->name(), "node0/nic_rx");
  EXPECT_EQ(reg[2]->name(), "node0/irq_cpu");
  EXPECT_EQ(reg[3]->name(), "node1/nic_tx");
  EXPECT_EQ(reg[4]->name(), "node1/nic_rx");
  EXPECT_EQ(reg[5]->name(), "node1/irq_cpu");
  for (const sim::Resource* r : reg) EXPECT_EQ(r->acquisitions(), 0u);
}

TEST(ClusterTest, ChannelCountersAccumulate) {
  // SCore: no jitter, uni nodes, no exchange — wire time is exactly
  // bytes / bandwidth, so the channel counters are exact.
  ClusterNetwork net(config(3, 1, Network::kScoreGigE));
  net.message(0, 1, 1000, 0.0);
  net.message(0, 1, 2000, 10.0);
  const ChannelStats& ch = net.channel(0, 1);
  EXPECT_EQ(ch.messages, 2u);
  EXPECT_DOUBLE_EQ(ch.bytes, 3000.0);
  EXPECT_DOUBLE_EQ(ch.wire_time,
                   3000.0 / params_for(Network::kScoreGigE).bandwidth);
  EXPECT_GE(ch.stall_time, 0.0);
  // Directional: the reverse channel and unrelated pairs stay empty.
  EXPECT_EQ(net.channel(1, 0).messages, 0u);
  EXPECT_EQ(net.channel(0, 2).messages, 0u);
  EXPECT_THROW(net.channel(0, 3), util::Error);
  EXPECT_THROW(net.channel(-1, 1), util::Error);
}

TEST(ClusterTest, IntraNodeMessagesCarryNoWireTime) {
  // Shared-memory driver: the wire (and the NICs) are never touched.
  ClusterNetwork net(config(2, 2, Network::kMyrinetGM));
  net.message(0, 1, 50000, 0.0);
  EXPECT_EQ(net.channel(0, 1).messages, 1u);
  EXPECT_DOUBLE_EQ(net.channel(0, 1).wire_time, 0.0);
  for (const sim::Resource* r : net.resources()) {
    EXPECT_EQ(r->acquisitions(), 0u) << r->name();
  }
}

TEST(ClusterTest, IdleInboundLinkOccupiedForExactlyOneWireTime) {
  // Regression for the inbound-link occupancy clamp: a single cross-node
  // message on an otherwise idle network must occupy the receiver's link
  // for exactly one wire time, with no queueing, starting one latency
  // after the outbound link started — never before the first bit left the
  // sender.
  ClusterNetwork net(config(2, 1, Network::kScoreGigE));
  const NetworkParams& p = params_for(Network::kScoreGigE);
  const double wire = 100000.0 / p.bandwidth;
  net.message(0, 1, 100000, 0.0);
  const sim::Resource* tx = net.resources()[0];
  const sim::Resource* rx = net.resources()[4];
  ASSERT_EQ(tx->name(), "node0/nic_tx");
  ASSERT_EQ(rx->name(), "node1/nic_rx");
  EXPECT_DOUBLE_EQ(tx->busy_time(), wire);
  EXPECT_DOUBLE_EQ(rx->busy_time(), wire);
  EXPECT_DOUBLE_EQ(rx->queue_wait_time(), 0.0);
  // Occupancy windows are offset by exactly the propagation latency.
  EXPECT_DOUBLE_EQ(rx->free_at(), tx->free_at() + p.latency);
}

TEST(ClusterTest, ArrivalNeverPrecedesSend) {
  ClusterNetwork net(config(16, 2, Network::kTcpGigE, 77));
  util::Rng rng(3);
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    const int src = static_cast<int>(rng.uniform_index(16));
    int dst = static_cast<int>(rng.uniform_index(16));
    if (dst == src) dst = (dst + 1) % 16;
    t += rng.uniform(0.0, 0.01);
    const auto bytes = static_cast<std::size_t>(rng.uniform_index(100000));
    const MessageTiming m = net.message(src, dst, bytes, t);
    EXPECT_GE(m.arrival, t);
    EXPECT_GE(m.sender_busy, 0.0);
    EXPECT_GE(m.sender_stall, 0.0);
  }
}

// --- sparse channel accounting --------------------------------------------

TEST(ClusterTest, UntouchedChannelIsZero) {
  ClusterNetwork net(config(8, 1, Network::kScoreGigE));
  net.message(0, 1, 1000, 0.0);
  const ChannelStats& used = net.channel(0, 1);
  EXPECT_EQ(used.messages, 1u);
  // A pair that never exchanged a message still reads as all-zero.
  const ChannelStats& idle = net.channel(5, 6);
  EXPECT_EQ(idle.messages, 0u);
  EXPECT_DOUBLE_EQ(idle.bytes, 0.0);
  EXPECT_DOUBLE_EQ(idle.stall_time, 0.0);
  EXPECT_DOUBLE_EQ(idle.wire_time, 0.0);
}

TEST(ClusterTest, ChannelAccessorKeepsBoundsChecks) {
  ClusterNetwork net(config(4, 1, Network::kScoreGigE));
  EXPECT_THROW(net.channel(-1, 0), util::Error);
  EXPECT_THROW(net.channel(0, 4), util::Error);
  EXPECT_THROW(net.channel(4, 0), util::Error);
}

TEST(ClusterTest, ForEachChannelVisitsOnlyUsedPairsInOrder) {
  ClusterNetwork net(config(8, 1, Network::kScoreGigE));
  // Touch three pairs in shuffled order.
  net.message(5, 2, 100, 0.0);
  net.message(0, 7, 200, 0.1);
  net.message(5, 1, 300, 0.2);
  std::vector<std::pair<int, int>> seen;
  net.for_each_channel([&](int src, int dst, const ChannelStats& ch) {
    EXPECT_GE(ch.messages, 1u);
    seen.emplace_back(src, dst);
  });
  // Deterministic (src, dst) order, untouched pairs absent.
  EXPECT_EQ(seen, (std::vector<std::pair<int, int>>{
                      {0, 7}, {5, 1}, {5, 2}}));
}

// --- topology specs -------------------------------------------------------

TEST(TopologyTest, SpecParseRoundTrips) {
  for (const char* text :
       {"single", "fattree:radix=16,over=1", "fattree:radix=8,over=4",
        "torus", "torus:x=4,y=4,z=2"}) {
    const TopologySpec spec = parse_topology_spec(text);
    EXPECT_EQ(to_string(spec), text);
    // The canonical string parses back to itself.
    EXPECT_EQ(to_string(parse_topology_spec(to_string(spec))),
              to_string(spec));
  }
  // Bare kinds expand to their canonical forms.
  EXPECT_EQ(to_string(parse_topology_spec("fattree")),
            "fattree:radix=16,over=1");
  EXPECT_EQ(to_string(parse_topology_spec("torus")), "torus");
}

TEST(TopologyTest, SpecParseErrors) {
  EXPECT_THROW(parse_topology_spec("mesh"), util::Error);
  EXPECT_THROW(parse_topology_spec("single:radix=4"), util::Error);
  EXPECT_THROW(parse_topology_spec("fattree:radix"), util::Error);
  EXPECT_THROW(parse_topology_spec("fattree:radix=abc"), util::Error);
  EXPECT_THROW(parse_topology_spec("fattree:x=4"), util::Error);
  EXPECT_THROW(parse_topology_spec("torus:over=2"), util::Error);
  EXPECT_THROW(parse_topology_spec("fattree:radix= 4"), util::Error);
  EXPECT_THROW(parse_topology_spec("fattree:radix=4.0"), util::Error);
  EXPECT_THROW(parse_topology_spec("fattree:over=inf"), util::Error);
  EXPECT_THROW(parse_topology_spec("fattree:over=0x2"), util::Error);
  EXPECT_THROW(parse_topology_spec("torus:x=+2"), util::Error);
}

TEST(TopologyTest, SpecValidationErrors) {
  EXPECT_THROW(parse_topology_spec("fattree:radix=0"), util::Error);
  EXPECT_THROW(parse_topology_spec("fattree:over=0.5"), util::Error);
  EXPECT_THROW(parse_topology_spec("torus:x=-2"), util::Error);
  // A fixed grid too small for the cluster fails at network construction.
  ClusterConfig c = config(16, 1, Network::kScoreGigE);
  c.topology = parse_topology_spec("torus:x=2,y=2");
  EXPECT_THROW(ClusterNetwork{c}, util::Error);
}

// --- fat-tree -------------------------------------------------------------

TEST(TopologyTest, FatTreeSameSwitchMatchesSingleSwitch) {
  // All four nodes sit under one edge switch, so every message timing must
  // be byte-identical to the single-switch model.
  ClusterConfig single = config(4, 1, Network::kScoreGigE);
  ClusterConfig tree = single;
  tree.topology = parse_topology_spec("fattree:radix=16,over=4");
  ClusterNetwork a{single};
  ClusterNetwork b{tree};
  for (int i = 0; i < 20; ++i) {
    const int src = i % 4;
    const int dst = (i + 1) % 4;
    const double t = i * 0.001;
    const MessageTiming ma = a.message(src, dst, 4096, t);
    const MessageTiming mb = b.message(src, dst, 4096, t);
    EXPECT_DOUBLE_EQ(ma.arrival, mb.arrival);
    EXPECT_DOUBLE_EQ(ma.wire_time, mb.wire_time);
    EXPECT_DOUBLE_EQ(ma.sender_stall, mb.sender_stall);
  }
}

TEST(TopologyTest, FatTreeCrossSwitchSlowerThanSameSwitch) {
  // radix=2: nodes {0,1} and {2,3} sit on different edge switches.
  ClusterConfig c = config(4, 1, Network::kScoreGigE);
  c.topology = parse_topology_spec("fattree:radix=2,over=1");
  ClusterNetwork net{c};
  const double same_sw = net.message(0, 1, 65536, 0.0).arrival;
  const double cross_sw = net.message(0, 2, 65536, 100.0).arrival - 100.0;
  EXPECT_GT(cross_sw, same_sw);
  // The cross-switch message occupied the uplink and the downlink.
  const MessageTiming cross = net.message(1, 3, 65536, 200.0);
  const MessageTiming same = net.message(1, 0, 65536, 300.0);
  EXPECT_GT(cross.wire_time, same.wire_time);
}

TEST(TopologyTest, OversubscriptionSlowsCrossSwitchTraffic) {
  ClusterConfig full = config(4, 1, Network::kScoreGigE);
  full.topology = parse_topology_spec("fattree:radix=2,over=1");
  ClusterConfig over = full;
  over.topology = parse_topology_spec("fattree:radix=2,over=8");
  ClusterNetwork a{full};
  ClusterNetwork b{over};
  const double t_full = a.message(0, 2, 1 << 20, 0.0).arrival;
  const double t_over = b.message(0, 2, 1 << 20, 0.0).arrival;
  EXPECT_GT(t_over, t_full);
  // Same-switch traffic is unaffected by oversubscription.
  EXPECT_DOUBLE_EQ(a.message(0, 1, 1 << 20, 100.0).arrival,
                   b.message(0, 1, 1 << 20, 100.0).arrival);
}

TEST(TopologyTest, FatTreeUplinkContentionSerializes) {
  // Two senders on switch 0 target switch 1 at the same instant: the
  // shared uplink serializes them, unlike the single switch where only
  // the endpoint NICs are shared.
  ClusterConfig c = config(4, 1, Network::kScoreGigE);
  c.topology = parse_topology_spec("fattree:radix=2,over=1");
  ClusterNetwork net{c};
  const double first = net.message(0, 2, 1 << 20, 0.0).arrival;
  const double second = net.message(1, 3, 1 << 20, 0.0).arrival;
  EXPECT_GT(second, first);
  // The uplink resource shows both acquisitions.
  std::uint64_t uplink_acqs = 0;
  for (const sim::Resource* link : net.fabric_links()) {
    if (link->name() == "sw0/up") uplink_acqs = link->acquisitions();
  }
  EXPECT_EQ(uplink_acqs, 2u);
}

// --- torus ----------------------------------------------------------------

TEST(TopologyTest, TorusHopDistances) {
  const Topology topo(parse_topology_spec("torus:x=4,y=4"), 16);
  EXPECT_EQ(topo.hops(0, 0), 0);
  EXPECT_EQ(topo.hops(0, 1), 1);    // +x neighbor
  EXPECT_EQ(topo.hops(0, 3), 1);    // wraparound: 3 is 0's -x neighbor
  EXPECT_EQ(topo.hops(0, 4), 1);    // +y neighbor
  EXPECT_EQ(topo.hops(0, 5), 2);    // diagonal
  EXPECT_EQ(topo.hops(0, 10), 4);   // opposite corner: 2 + 2
  EXPECT_EQ(topo.hops(1, 0), 1);    // symmetric
}

TEST(TopologyTest, TorusMoreHopsArriveLater) {
  ClusterConfig c = config(16, 1, Network::kScoreGigE);
  c.topology = parse_topology_spec("torus:x=4,y=4");
  ClusterNetwork net{c};
  const double one_hop = net.message(0, 1, 65536, 0.0).arrival;
  const double four_hops = net.message(0, 10, 65536, 100.0).arrival - 100.0;
  EXPECT_GT(four_hops, one_hop);
}

TEST(TopologyTest, FabricLinksEmptyOnSingleSwitch) {
  ClusterNetwork net(config(4, 1, Network::kScoreGigE));
  EXPECT_TRUE(net.fabric_links().empty());
  EXPECT_TRUE(net.topology().single());
}

}  // namespace
}  // namespace repro::net
