#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/linechan.h"
#include "support/mathutil.h"
#include "support/rng.h"

namespace iph::support {
namespace {

TEST(MathUtil, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2(std::uint64_t{1} << 63), 63u);
}

TEST(MathUtil, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2((std::uint64_t{1} << 40) + 1), 41u);
}

TEST(MathUtil, CeilPow2) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1000), 1024u);
}

TEST(MathUtil, LogStar) {
  EXPECT_EQ(log_star(1), 0u);
  EXPECT_EQ(log_star(2), 1u);
  EXPECT_EQ(log_star(4), 2u);
  EXPECT_EQ(log_star(16), 3u);
  EXPECT_EQ(log_star(65536), 4u);
  EXPECT_EQ(log_star(std::uint64_t{1} << 20), 5u);  // 2^20 > 2^16
  EXPECT_EQ(log_star(~std::uint64_t{0}), 5u);       // < 2^65536
}

TEST(MathUtil, IPowSat) {
  EXPECT_EQ(ipow_sat(2, 10), 1024u);
  EXPECT_EQ(ipow_sat(10, 0), 1u);
  EXPECT_EQ(ipow_sat(0, 5), 0u);
  EXPECT_EQ(ipow_sat(2, 70), ~std::uint64_t{0});  // saturates
}

TEST(MathUtil, IPowFrac) {
  EXPECT_EQ(ipow_frac(16, 0.5), 4u);
  EXPECT_EQ(ipow_frac(27, 1.0 / 3.0), 3u);
  EXPECT_EQ(ipow_frac(0, 0.5), 0u);
  EXPECT_GE(ipow_frac(5, 0.0001), 1u);  // never returns 0 for x>0
}

TEST(Chernoff, UpperTailMatchesClosedForm) {
  // mu=10, delta=1: bound = (e/4)^10.
  const double b = chernoff_upper(10.0, 1.0);
  EXPECT_NEAR(b, std::pow(std::exp(1.0) / 4.0, 10.0), 1e-12);
}

TEST(Chernoff, LowerTailAtDeltaOne) {
  EXPECT_NEAR(chernoff_lower(10.0, 1.0), std::exp(-10.0), 1e-12);
}

TEST(Chernoff, BoundsAreProbabilities) {
  for (double mu : {0.5, 1.0, 10.0, 1000.0}) {
    for (double d : {0.01, 0.1, 0.5, 1.0, 2.0}) {
      // Extreme (mu, delta) pairs may underflow to exactly 0, which is a
      // valid (if conservative) probability.
      EXPECT_GE(chernoff_upper(mu, d), 0.0);
      EXPECT_LE(chernoff_upper(mu, d), 1.0);
      if (d <= 1.0) {
        EXPECT_GE(chernoff_lower(mu, d), 0.0);
        EXPECT_LE(chernoff_lower(mu, d), 1.0);
      }
    }
  }
}

TEST(Chernoff, TightensWithMu) {
  EXPECT_LT(chernoff_upper(100.0, 0.5), chernoff_upper(10.0, 0.5));
  EXPECT_LT(chernoff_lower(100.0, 0.5), chernoff_lower(10.0, 0.5));
}

TEST(Rng, DeterministicGivenTriple) {
  Rng a(42, 7, 0), b(42, 7, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsDiffer) {
  Rng a(42, 7), b(42, 8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng r(1, 2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  Rng r2(1, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r2.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng r(99, 5);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  int count[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++count[r.next_below(kBuckets)];
  // Chi-square with 15 dof: 99.99th percentile ~ 44.3.
  double chi2 = 0;
  const double expect = static_cast<double>(kDraws) / kBuckets;
  for (int c : count) chi2 += (c - expect) * (c - expect) / expect;
  EXPECT_LT(chi2, 44.3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3, 4);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    mn = std::min(mn, d);
    mx = std::max(mx, d);
    sum += d;
  }
  EXPECT_LT(mn, 0.01);
  EXPECT_GT(mx, 0.99);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(5, 6);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(5, 7);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Mix3, AvalancheOnCounter) {
  // Flipping one counter bit should flip ~half the output bits.
  int total = 0;
  for (std::uint64_t c = 0; c < 64; ++c) {
    const std::uint64_t d = mix3(1, 2, c) ^ mix3(1, 2, c ^ 1);
    total += __builtin_popcountll(d);
  }
  EXPECT_GT(total, 64 * 20);
  EXPECT_LT(total, 64 * 44);
}

/// Writes all of `s` to fd in pieces of the given sizes, cycling.
void write_in_pieces(int fd, const std::string& s,
                     const std::vector<std::size_t>& sizes) {
  std::size_t off = 0;
  for (std::size_t k = 0; off < s.size(); ++k) {
    const std::size_t len = std::min(sizes[k % sizes.size()], s.size() - off);
    ASSERT_EQ(::write(fd, s.data() + off, len), static_cast<ssize_t>(len));
    off += len;
  }
}

TEST(LineChannel, LinesComeBackByteExactWhateverTheReads) {
  // A long line arrives over many reads (every byte value but '\n' in
  // it); several short lines and an empty one arrive in one read; the
  // last line has no terminator.
  std::string longline;
  for (std::size_t i = 0; longline.size() < 300000; ++i) {
    const auto c = static_cast<char>((i * 131) % 256);
    if (c != '\n') longline.push_back(c);
  }
  const std::vector<std::string> want = {"first", "second", "", "third",
                                         longline, "x", "", "y"};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    const std::string head = "first\nsecond\n\nthird\n";
    EXPECT_EQ(::write(fds[1], head.data(), head.size()),
              static_cast<ssize_t>(head.size()));
    write_in_pieces(fds[1], longline + "\n", {1, 7, 4095, 4096, 5000, 3});
    write_in_pieces(fds[1], "x\n\ny", {5});
    ::close(fds[1]);
  });
  LineChannel ch(fds[0], -1);
  std::vector<std::string> got;
  std::string line;
  while (ch.read_line(&line)) got.push_back(line);
  writer.join();
  ::close(fds[0]);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "line " << i << ": " << got[i].size()
                                   << " bytes, want " << want[i].size();
  }
}

}  // namespace
}  // namespace iph::support
