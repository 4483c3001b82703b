// Tests for the PRNG and the Zipf sampler.

#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <vector>

namespace gjoin::util {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next64();
    EXPECT_EQ(va, b.Next64());
    // Different seeds should diverge almost surely.
    if (va != c.Next64()) return;
  }
  FAIL() << "seeds 42 and 43 produced identical streams";
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) counts[rng.Uniform(8)]++;
  for (int c : counts) {
    // Each bucket expects 10000; allow 10% deviation.
    EXPECT_NEAR(c, kDraws / 8, kDraws / 80);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ShuffleTest, PermutesWithoutLoss) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  Rng rng(5);
  Shuffle(&v, &rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ZipfTest, UniformWhenSkewZero) {
  ZipfGenerator zipf(1000, 0.0, 99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t k = zipf.Next();
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 1000u);
    counts[k - 1]++;
  }
  // chi-square-lite: no bucket should deviate wildly from 100.
  for (int c : counts) EXPECT_LT(c, 200);
}

TEST(ZipfTest, RanksStayInRange) {
  for (double s : {0.25, 0.5, 0.75, 1.0, 1.25}) {
    ZipfGenerator zipf(12345, s, 7);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t k = zipf.Next();
      EXPECT_GE(k, 1u);
      EXPECT_LE(k, 12345u);
    }
  }
}

TEST(ZipfTest, HeadProbabilityMatchesTheory) {
  // P(rank 1) = 1 / (1^s * H_{n,s}). Check empirically for s = 1, n = 1000:
  // H_{1000,1} ~= 7.485; expected ~13.4% of draws are rank 1.
  const uint64_t n = 1000;
  const double s = 1.0;
  double harmonic = 0;
  for (uint64_t k = 1; k <= n; ++k) harmonic += 1.0 / static_cast<double>(k);
  const double expected = 1.0 / harmonic;

  ZipfGenerator zipf(n, s, 1234);
  const int kDraws = 200000;
  int head = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next() == 1) ++head;
  }
  const double observed = static_cast<double>(head) / kDraws;
  EXPECT_NEAR(observed, expected, 0.01);
}

TEST(ZipfTest, SkewIncreasesHeadMass) {
  // Higher s concentrates more probability on low ranks.
  const int kDraws = 50000;
  double prev_mass = 0;
  for (double s : {0.0, 0.5, 1.0}) {
    ZipfGenerator zipf(10000, s, 321);
    int head = 0;
    for (int i = 0; i < kDraws; ++i) {
      if (zipf.Next() <= 10) ++head;
    }
    const double mass = static_cast<double>(head) / kDraws;
    EXPECT_GT(mass, prev_mass);
    prev_mass = mass;
  }
}

TEST(ZipfTest, NextIsCandidateFilteredOverDraws) {
  int rejected = 0;
  for (const double s : {0.25, 0.5, 1.0, 1.5}) {
    ZipfGenerator sequential(5000, s, 17);
    ZipfGenerator filtered(5000, s, 17);
    for (int i = 0; i < 20000; ++i) {
      uint64_t k = 0;
      while ((k = filtered.Candidate(filtered.rng()->Next64())) == 0) {
        ++rejected;
      }
      ASSERT_EQ(sequential.Next(), k) << "s=" << s << " i=" << i;
    }
  }
  EXPECT_GT(rejected, 0);  // The filter was exercised.
}

TEST(ZipfDeathTest, NonFiniteSkewAbortsNamingIt) {
  EXPECT_DEATH(ZipfGenerator(100, std::nan(""), 1), "Zipf skew nan");
  EXPECT_DEATH(ZipfGenerator(100, INFINITY, 1), "Zipf skew inf");
  EXPECT_DEATH(ZipfGenerator(100, -INFINITY, 1), "Zipf skew -inf");
  // Finite, but 0.5^(1 - s) overflows: no draw would be accepted either.
  EXPECT_DEATH(ZipfGenerator(100, 5000.0, 1), "Zipf skew 5000");
}

class ZipfParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfParamTest, MeanRankDecreasesWithSkewAndIsFinite) {
  ZipfGenerator zipf(100000, GetParam(), 55);
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(zipf.Next());
  const double mean = sum / kDraws;
  EXPECT_GT(mean, 0.0);
  EXPECT_LE(mean, 100000.0);
  if (GetParam() >= 1.0) {
    // Strong skew: mean rank far below the uniform mean of ~50000.
    EXPECT_LT(mean, 10000.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfParamTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0, 1.5));

}  // namespace
}  // namespace gjoin::util
