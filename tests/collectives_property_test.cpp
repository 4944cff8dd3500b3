// Property tests for the collective operations: whatever the network
// stack, the rank count, or the injected faults, every collective must
// deliver byte-identical payloads on every rank. Faults may only ever
// move time — the retransmission/degradation/stall machinery must never
// drop, duplicate, or corrupt a payload (that is the core correctness
// contract of the fault layer; see net/faults.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "net/cluster.hpp"
#include "net/faults.hpp"
#include "perf/recorder.hpp"
#include "sim/engine.hpp"

namespace repro::mpi {
namespace {

const std::vector<net::Network>& all_networks() {
  static const std::vector<net::Network> nets{
      net::Network::kTcpGigE, net::Network::kScoreGigE,
      net::Network::kMyrinetGM, net::Network::kTcpFastEthernet};
  return nets;
}

// Test-name fragment for a network stack.
std::string stack_name(net::Network network) {
  switch (network) {
    case net::Network::kTcpGigE: return "TcpGigE";
    case net::Network::kScoreGigE: return "ScoreGigE";
    case net::Network::kMyrinetGM: return "MyrinetGM";
    case net::Network::kTcpFastEthernet: return "TcpFastE";
  }
  return "?";
}

// A fault mix exercising every mechanism the cluster size allows: packet
// loss plus a straggler always; link degradation and a mid-run stall
// window once a second node exists to host them.
net::FaultSpec test_faults(int nranks) {
  const int nnodes = (nranks + 1) / 2;  // two ranks per node below
  std::string spec = "loss=0.05,rto=0.001";
  spec += ";straggler=0,x=1.4,period=0.001,dur=0.0001";
  if (nnodes > 1) {
    spec += ";degrade=0-1,bw=0.5,lat=0.0001";
    spec += ";stall=1,at=0.0005,dur=0.001";
  }
  return net::parse_fault_spec(spec);
}

// Runs `body` on every rank of a simulated cluster with faults optionally
// armed, then `check` on the cluster's counters. Two ranks per node so
// both the intra- and cross-node paths run.
void run_cluster(
    net::Network network, int nranks, bool with_faults,
    const std::function<void(Comm&)>& body,
    const std::function<void(const net::ClusterNetwork&)>& check = {}) {
  net::ClusterConfig config;
  config.nranks = nranks;
  config.cpus_per_node = 2;
  config.network = network;
  net::ClusterNetwork cluster(
      config, net::params_for(network),
      with_faults ? test_faults(nranks) : net::FaultSpec{});
  std::vector<perf::RankRecorder> recorders(
      static_cast<std::size_t>(nranks));
  sim::Engine engine(nranks);
  engine.run([&](sim::RankCtx& ctx) {
    Comm comm(ctx, cluster,
              recorders[static_cast<std::size_t>(ctx.rank())]);
    body(comm);
  });
  if (with_faults) {
    ASSERT_TRUE(cluster.faults_enabled());
  }
  if (check) check(cluster);
}

// Deterministic per-rank payload bytes; distinct across ranks and sizes.
std::vector<unsigned char> rank_payload(int rank, std::size_t bytes) {
  std::vector<unsigned char> data(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<unsigned char>((rank * 131 + i * 7 + 13) & 0xff);
  }
  return data;
}

class CollectivePropertyTest
    : public ::testing::TestWithParam<std::tuple<net::Network, int, bool>> {
 protected:
  net::Network network() const { return std::get<0>(GetParam()); }
  int nranks() const { return std::get<1>(GetParam()); }
  bool faults() const { return std::get<2>(GetParam()); }
};

TEST_P(CollectivePropertyTest, BcastDeliversRootPayloadEverywhere) {
  run_cluster(network(), nranks(), faults(), [&](Comm& comm) {
    const int root = comm.size() > 2 ? 2 : 0;
    const std::vector<unsigned char> expected =
        rank_payload(root, 3000);  // a few MTUs worth
    std::vector<unsigned char> data(expected.size());
    if (comm.rank() == root) data = expected;
    comm.bcast(data.data(), data.size(), root);
    EXPECT_EQ(data, expected) << "rank " << comm.rank();
  });
}

TEST_P(CollectivePropertyTest, ReduceAndAllreduceSumExactly) {
  run_cluster(network(), nranks(), faults(), [&](Comm& comm) {
    const int p = comm.size();
    constexpr std::size_t kN = 257;
    // Integer-valued doubles: any summation order is exact, so every
    // allreduce algorithm must produce the same bits.
    std::vector<double> expected(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      double sum = 0.0;
      for (int r = 0; r < p; ++r) {
        sum += static_cast<double>((r + 1) * (static_cast<int>(i) % 11 + 1));
      }
      expected[i] = sum;
    }
    auto mine = [&](std::size_t i) {
      return static_cast<double>((comm.rank() + 1) *
                                 (static_cast<int>(i) % 11 + 1));
    };

    std::vector<double> reduced(kN);
    for (std::size_t i = 0; i < kN; ++i) reduced[i] = mine(i);
    comm.reduce_sum(reduced.data(), kN, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(reduced, expected);
    }
  });
}

TEST_P(CollectivePropertyTest, AllreduceAllAlgorithmsAgree) {
  for (AllreduceAlgorithm algo :
       {AllreduceAlgorithm::kReduceBcast, AllreduceAlgorithm::kRecursiveDoubling,
        AllreduceAlgorithm::kRing}) {
    net::ClusterConfig config;
    config.nranks = nranks();
    config.cpus_per_node = 2;
    config.network = network();
    net::ClusterNetwork cluster(
        config, net::params_for(network()),
        faults() ? test_faults(nranks()) : net::FaultSpec{});
    std::vector<perf::RankRecorder> recorders(
        static_cast<std::size_t>(nranks()));
    CollectiveConfig collectives;
    collectives.allreduce = algo;
    sim::Engine engine(nranks());
    engine.run([&](sim::RankCtx& ctx) {
      Comm comm(ctx, cluster,
                recorders[static_cast<std::size_t>(ctx.rank())], collectives);
      const int p = comm.size();
      constexpr std::size_t kN = 300;  // >= p so the ring segments
      std::vector<double> data(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        data[i] = static_cast<double>((comm.rank() + 1) *
                                      (static_cast<int>(i) % 7 + 1));
      }
      comm.allreduce_sum(data.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        double sum = 0.0;
        for (int r = 0; r < p; ++r) {
          sum += static_cast<double>((r + 1) * (static_cast<int>(i) % 7 + 1));
        }
        ASSERT_EQ(data[i], sum)
            << "rank " << comm.rank() << " element " << i;
      }
    });
  }
}

TEST_P(CollectivePropertyTest, AllgathervReassemblesEveryBlock) {
  run_cluster(network(), nranks(), faults(), [&](Comm& comm) {
    const int p = comm.size();
    // Variable block sizes, including the awkward zero-length block.
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    std::vector<std::size_t> displs(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] =
          r == 1 && p > 1 ? 0 : 100 + 37 * static_cast<std::size_t>(r);
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
    }
    const std::vector<unsigned char> mine = rank_payload(
        comm.rank(), counts[static_cast<std::size_t>(comm.rank())]);
    std::vector<unsigned char> out(total, 0xee);
    comm.allgatherv(mine.data(), mine.size(), out.data(), counts, displs);
    for (int r = 0; r < p; ++r) {
      const std::vector<unsigned char> expected =
          rank_payload(r, counts[static_cast<std::size_t>(r)]);
      if (expected.empty()) continue;  // memcmp on null is UB even at n=0
      EXPECT_EQ(std::memcmp(out.data() + displs[static_cast<std::size_t>(r)],
                            expected.data(), expected.size()),
                0)
          << "rank " << comm.rank() << " block " << r;
    }
  });
}

TEST_P(CollectivePropertyTest, AlltoallvRoutesEveryBlockIntact) {
  run_cluster(network(), nranks(), faults(), [&](Comm& comm) {
    const int p = comm.size();
    const int me = comm.rank();
    // Block from r to d has a size and contents depending on both ends.
    auto block_size = [](int src, int dst) {
      return static_cast<std::size_t>(64 + 17 * src + 5 * dst);
    };
    auto block_bytes = [&](int src, int dst) {
      std::vector<unsigned char> data(block_size(src, dst));
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] =
            static_cast<unsigned char>((src * 251 + dst * 83 + i) & 0xff);
      }
      return data;
    };
    std::vector<std::size_t> send_counts(static_cast<std::size_t>(p));
    std::vector<std::size_t> send_displs(static_cast<std::size_t>(p));
    std::vector<std::size_t> recv_counts(static_cast<std::size_t>(p));
    std::vector<std::size_t> recv_displs(static_cast<std::size_t>(p));
    std::size_t send_total = 0;
    std::size_t recv_total = 0;
    for (int r = 0; r < p; ++r) {
      send_counts[static_cast<std::size_t>(r)] = block_size(me, r);
      send_displs[static_cast<std::size_t>(r)] = send_total;
      send_total += block_size(me, r);
      recv_counts[static_cast<std::size_t>(r)] = block_size(r, me);
      recv_displs[static_cast<std::size_t>(r)] = recv_total;
      recv_total += block_size(r, me);
    }
    std::vector<unsigned char> send_buf(send_total);
    for (int r = 0; r < p; ++r) {
      const auto blk = block_bytes(me, r);
      std::memcpy(send_buf.data() + send_displs[static_cast<std::size_t>(r)],
                  blk.data(), blk.size());
    }
    std::vector<unsigned char> recv_buf(recv_total, 0xee);
    comm.alltoallv(send_buf.data(), send_counts, send_displs, recv_buf.data(),
                   recv_counts, recv_displs);
    for (int r = 0; r < p; ++r) {
      const auto expected = block_bytes(r, me);
      EXPECT_EQ(std::memcmp(
                    recv_buf.data() + recv_displs[static_cast<std::size_t>(r)],
                    expected.data(), expected.size()),
                0)
          << "rank " << me << " block from " << r;
    }
  });
}

TEST_P(CollectivePropertyTest, BarrierCompletesUnderFaults) {
  run_cluster(network(), nranks(), faults(), [&](Comm& comm) {
    for (int i = 0; i < 3; ++i) {
      comm.compute(0.001 * (comm.rank() + 1));  // skewed arrival times
      comm.barrier();
    }
  });
}

// The group forms run the same algorithms over the contiguous ranks
// [2, 2 + g) of a 7- or 8-rank communicator on the caller's tag. Ranks
// outside the group never call in, and the channel counters must show
// that no message reached or left them.
class GroupCollectivePropertyTest
    : public ::testing::TestWithParam<
          std::tuple<net::Network, int, int, bool>> {
 protected:
  static constexpr int kTag = 4242;

  net::Network network() const { return std::get<0>(GetParam()); }
  int nranks() const { return std::get<1>(GetParam()); }
  RankGroup group() const { return {2, std::get<2>(GetParam())}; }
  bool faults() const { return std::get<3>(GetParam()); }
  bool member(int rank) const {
    return rank >= group().base && rank < group().base + group().size;
  }

  // Runs `body(comm, group rank)` on the group's ranks only.
  void run_group(const std::function<void(Comm&, int)>& body) {
    run_cluster(
        network(), nranks(), faults(),
        [&](Comm& comm) {
          if (member(comm.rank())) body(comm, comm.rank() - group().base);
        },
        [&](const net::ClusterNetwork& cluster) {
          std::uint64_t messages = 0;
          cluster.for_each_channel(
              [&](int src, int dst, const net::ChannelStats& ch) {
                EXPECT_TRUE(member(src) && member(dst))
                    << ch.messages << " messages " << src << " -> " << dst;
                messages += ch.messages;
              });
          EXPECT_EQ(messages > 0, group().size > 1);
        });
  }
};

TEST_P(GroupCollectivePropertyTest, ReduceSumsTheGroupExactly) {
  const int g = group().size;
  const int root = g / 2;  // group coordinates
  run_group([&](Comm& comm, int gr) {
    constexpr std::size_t kN = 257;
    std::vector<double> data(kN);
    std::vector<double> expected(kN, 0.0);
    for (std::size_t i = 0; i < kN; ++i) {
      const auto term = [&](int r) {
        return static_cast<double>((r + 1) * (static_cast<int>(i) % 11 + 1));
      };
      data[i] = term(comm.rank());
      for (int r = group().base; r < group().base + g; ++r) {
        expected[i] += term(r);
      }
    }
    comm.reduce_sum(data.data(), kN, root, group(), kTag);
    if (gr == root) {
      EXPECT_EQ(data, expected) << "rank " << comm.rank();
    }
  });
}

TEST_P(GroupCollectivePropertyTest, AlltoallvRoutesEveryGroupBlock) {
  const int g = group().size;
  run_group([&](Comm& comm, int gr) {
    // The block from group rank a to group rank b: size and contents
    // depend on both ends.
    auto block_bytes = [](int a, int b) {
      std::vector<unsigned char> data(static_cast<std::size_t>(40 + 13 * a +
                                                               3 * b));
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<unsigned char>((a * 251 + b * 83 + i) & 0xff);
      }
      return data;
    };
    const auto n = static_cast<std::size_t>(g);
    std::vector<std::size_t> send_counts(n), send_displs(n);
    std::vector<std::size_t> recv_counts(n), recv_displs(n);
    std::vector<unsigned char> send_buf;
    std::size_t recv_total = 0;
    for (int b = 0; b < g; ++b) {
      const auto ub = static_cast<std::size_t>(b);
      const auto out = block_bytes(gr, b);
      send_counts[ub] = out.size();
      send_displs[ub] = send_buf.size();
      send_buf.insert(send_buf.end(), out.begin(), out.end());
      recv_counts[ub] = block_bytes(b, gr).size();
      recv_displs[ub] = recv_total;
      recv_total += recv_counts[ub];
    }
    std::vector<unsigned char> recv_buf(recv_total, 0xee);
    comm.alltoallv(send_buf.data(), send_counts, send_displs, recv_buf.data(),
                   recv_counts, recv_displs, group(), kTag);
    for (int a = 0; a < g; ++a) {
      const auto ua = static_cast<std::size_t>(a);
      const auto expected = block_bytes(a, gr);
      const std::vector<unsigned char> got(
          recv_buf.begin() + static_cast<std::ptrdiff_t>(recv_displs[ua]),
          recv_buf.begin() +
              static_cast<std::ptrdiff_t>(recv_displs[ua] + recv_counts[ua]));
      EXPECT_EQ(got, expected) << "rank " << comm.rank() << " block from "
                               << a;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    GroupsOfSevenAndEight, GroupCollectivePropertyTest,
    ::testing::Combine(::testing::ValuesIn(all_networks()),
                       ::testing::Values(7, 8), ::testing::Values(1, 3, 5),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<
        GroupCollectivePropertyTest::ParamType>& info) {
      std::string name = stack_name(std::get<0>(info.param));
      name += "_p" + std::to_string(std::get<1>(info.param));
      name += "_g" + std::to_string(std::get<2>(info.param));
      name += std::get<3>(info.param) ? "_faults" : "_clean";
      return name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllStacksAndSizes, CollectivePropertyTest,
    ::testing::Combine(::testing::ValuesIn(all_networks()),
                       ::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<CollectivePropertyTest::ParamType>&
           info) {
      std::string name = stack_name(std::get<0>(info.param));
      name += "_p" + std::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) ? "_faults" : "_clean";
      return name;
    });

}  // namespace
}  // namespace repro::mpi
