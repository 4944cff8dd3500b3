#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/flatpack.hpp"
#include "util/memo.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

namespace repro::util {
namespace {

TEST(Vec3Test, Arithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Vec3Test, CrossProductIsOrthogonal) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{-2, 0.5, 4};
  const Vec3 c = cross(a, b);
  EXPECT_NEAR(dot(a, c), 0.0, 1e-12);
  EXPECT_NEAR(dot(b, c), 0.0, 1e-12);
}

TEST(Vec3Test, NormAndNormalize) {
  const Vec3 a{3, 4, 0};
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(norm2(a), 25.0);
  EXPECT_NEAR(norm(normalized(a)), 1.0, 1e-15);
}

TEST(Vec3Test, IndexAccess) {
  Vec3 a{7, 8, 9};
  EXPECT_DOUBLE_EQ(a[0], 7);
  EXPECT_DOUBLE_EQ(a[1], 8);
  EXPECT_DOUBLE_EQ(a[2], 9);
  a[1] = -1;
  EXPECT_DOUBLE_EQ(a.y, -1);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanAndVariance) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.1);
  EXPECT_GE(s.min(), 0.0);
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(23);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(MixSeedTest, DistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 10; ++a) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      seeds.insert(mix_seed(a, b));
    }
  }
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(RunningStatsTest, Basic) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  Rng rng(5);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(TableTest, AlignedOutput) {
  Table t({"p", "time"});
  t.add_row({"1", "6.5"});
  t.add_row({"16", "0.81"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("p"), std::string::npos);
  EXPECT_NE(s.find("0.81"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TableTest, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

TEST(FlatpackTest, FlattenLaysOutComponentsInOrder) {
  const std::vector<Vec3> v = {{1, 2, 3}, {-4, 5.5, 0}};
  std::vector<double> flat;
  flatten(v, flat);
  const std::vector<double> expected = {1, 2, 3, -4, 5.5, 0};
  EXPECT_EQ(flat, expected);
}

TEST(FlatpackTest, RoundTripsAndResizes) {
  std::vector<Vec3> v;
  for (int i = 0; i < 17; ++i) {
    v.push_back(Vec3{i * 1.5, -i * 0.25, i * i * 1e-3});
  }
  std::vector<double> flat(3, -999.0);  // wrong size: flatten must resize
  flatten(v, flat);
  ASSERT_EQ(flat.size(), 3 * v.size());
  std::vector<Vec3> back(v.size());
  unflatten(flat, back);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(back[i], v[i]) << "atom " << i;
  }
}

TEST(FlatpackTest, UnflattenReadsOnlyWhatTheTargetNeeds) {
  const std::vector<double> flat = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<Vec3> v(2);  // shorter target: trailing doubles ignored
  unflatten(flat, v);
  EXPECT_EQ(v[0], Vec3(1, 2, 3));
  EXPECT_EQ(v[1], Vec3(4, 5, 6));
}

TEST(ErrorTest, RequireThrowsWithContext) {
  try {
    REPRO_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
  }
}

// --- ExactMemo ---------------------------------------------------------------

using Memo = ExactMemo<std::vector<double>>;

std::shared_ptr<const std::vector<double>> find(const Memo& memo,
                                                const std::vector<double>& a,
                                                const std::vector<int>& b) {
  return memo.find(MemoKey{key_bytes(a), key_bytes(b)});
}

std::shared_ptr<const std::vector<double>> insert(
    Memo& memo, const std::vector<double>& a, const std::vector<int>& b,
    std::vector<double> value) {
  return memo.insert(MemoKey{key_bytes(a), key_bytes(b)}, std::move(value));
}

TEST(ExactMemoTest, RepeatKeyHitsWithTheStoredValue) {
  Memo memo(4);
  const std::vector<double> a{1.5, -2.25};
  const std::vector<int> b{7, 8, 9};
  EXPECT_EQ(find(memo, a, b), nullptr);
  const auto stored = insert(memo, a, b, {3.0, 4.0});
  const auto hit = find(memo, std::vector<double>(a), std::vector<int>(b));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, stored);
  EXPECT_EQ(*hit, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
}

TEST(ExactMemoTest, AnyByteOrLengthDifferenceMisses) {
  Memo memo(8);
  const std::vector<double> a{0.0, 1.0};
  const std::vector<int> b{1, 2};
  insert(memo, a, b, {42.0});
  std::vector<double> one_byte = a;
  one_byte[1] = std::nextafter(1.0, 2.0);  // last mantissa bit differs
  EXPECT_EQ(find(memo, one_byte, b), nullptr);
  EXPECT_EQ(find(memo, a, {1, 3}), nullptr);
  EXPECT_EQ(find(memo, a, {1}), nullptr);
  EXPECT_EQ(find(memo, a, {1, 2, 0}), nullptr);
  // -0.0 == 0.0 as doubles, but not as key bytes.
  EXPECT_EQ(find(memo, {-0.0, 1.0}, b), nullptr);
  EXPECT_NE(find(memo, a, b), nullptr);
  // The same 16 zero bytes, split differently between the two spans.
  insert(memo, {0.0, 0.0}, {}, {1.0});
  EXPECT_EQ(find(memo, {0.0}, {0, 0}), nullptr);
  EXPECT_NE(find(memo, {0.0, 0.0}, {}), nullptr);
}

TEST(ExactMemoTest, NanKeyHitsItself) {
  Memo memo(2);
  const std::vector<double> nan{std::numeric_limits<double>::quiet_NaN()};
  insert(memo, nan, {}, {1.0});
  const auto hit = find(memo, nan, {});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, std::vector<double>{1.0});
}

TEST(ExactMemoTest, EmptySpansAreKeys) {
  Memo memo(4);
  insert(memo, {}, {}, {1.0});
  insert(memo, {}, {5}, {2.0});
  ASSERT_NE(find(memo, {}, {}), nullptr);
  EXPECT_EQ(*find(memo, {}, {}), std::vector<double>{1.0});
  ASSERT_NE(find(memo, {}, {5}), nullptr);
  EXPECT_EQ(*find(memo, {}, {5}), std::vector<double>{2.0});
  EXPECT_EQ(find(memo, {0.0}, {}), nullptr);
}

TEST(ExactMemoTest, EvictsOldestFirstAndHeldValuesOutliveEviction) {
  Memo memo(3);
  insert(memo, {0.0}, {}, {10.0});
  const auto held = find(memo, {0.0}, {});
  ASSERT_NE(held, nullptr);
  for (int k = 1; k <= 3; ++k) {
    insert(memo, {static_cast<double>(k)}, {}, {10.0 + k});
  }
  EXPECT_EQ(find(memo, {0.0}, {}), nullptr);  // capacity + 1: oldest gone
  for (int k = 1; k <= 3; ++k) {
    EXPECT_NE(find(memo, {static_cast<double>(k)}, {}), nullptr) << k;
  }
  EXPECT_EQ(*held, std::vector<double>{10.0});
}

TEST(ExactMemoTest, ConcurrentFindInsertReturnsExactValues) {
  // Fewer slots than keys, so the second phase also races evictions.
  constexpr int kSlots = 16;
  constexpr int kKeys = 48;
  constexpr int kThreads = 4;
  Memo memo(kSlots);
  const auto value_of = [](int k) {
    std::vector<double> v(64);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(k * 1000.0 + static_cast<double>(i));
    }
    return v;
  };
  const auto key_of = [](int k) { return std::vector<double>{1.0 * k}; };
  const auto tag_of = [](int k) { return std::vector<int>{k, -k}; };
  for (int k = 0; k < kSlots; ++k) {
    insert(memo, key_of(k), tag_of(k), value_of(k));
  }

  std::atomic<int> hits{0};
  std::atomic<int> wrong{0};
  std::atomic<int> phase1_misses{0};
  std::atomic<int> phase2_misses{0};
  const auto hit_exact = [&](int k) {
    const auto hit = find(memo, key_of(k), tag_of(k));
    if (!hit) return false;
    ++hits;
    const std::vector<double> want = value_of(k);
    if (hit->size() != want.size() ||
        std::memcmp(hit->data(), want.data(), want.size() * sizeof(double)) !=
            0) {
      ++wrong;
    }
    return true;
  };
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();  // everyone starts together
      // Phase 1: finds only, over a key set no larger than the memo, so
      // nothing is evicted and every lookup must hit.
      for (int i = 0; i < 500; ++i) {
        if (!hit_exact((i * 7 + t * 13) % kSlots)) ++phase1_misses;
      }
      sync.arrive_and_wait();  // no insert before every phase-1 find
      // Phase 2: find-or-insert over more keys than slots.
      for (int i = 0; i < 2000; ++i) {
        const int k = (i * 7 + t * 13) % kKeys;
        if (!hit_exact(k)) {
          ++phase2_misses;
          insert(memo, key_of(k), tag_of(k), value_of(k));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(phase1_misses.load(), 0);
  EXPECT_GT(hits.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(hits.load()));
  EXPECT_EQ(memo.misses(),
            static_cast<std::uint64_t>(phase1_misses + phase2_misses));
}

// --- strict number parsing ---------------------------------------------------

TEST(ParseDoubleTest, AcceptsPlainAndExponentForms) {
  EXPECT_EQ(parse_double("2", "x"), 2.0);
  EXPECT_EQ(parse_double("-0.25", "x"), -0.25);
  EXPECT_EQ(parse_double("1e-06", "x"), 1e-6);
  EXPECT_EQ(parse_double("1000000", "x", std::chars_format::fixed), 1e6);
}

TEST(ParseDoubleTest, RejectsEverythingElse) {
  for (const char* bad : {"", " 2", "2 ", "+2", "0x1p1", "inf", "-inf", "nan",
                          "2x", "1e999", "1..2", "e3"}) {
    EXPECT_THROW(parse_double(bad, "x"), Error) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_double("1e3", "x", std::chars_format::fixed), Error);
  try {
    parse_double("inf", "fault spec: lat");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fault spec: lat"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace repro::util
