// Tests for the workload generators of Section V.

#include "src/data/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "src/util/rng.h"

namespace gjoin::data {
namespace {

TEST(UniqueUniformTest, KeysArePermutationOfRange) {
  const Relation rel = MakeUniqueUniform(10000, 1);
  ASSERT_EQ(rel.size(), 10000u);
  std::vector<uint32_t> sorted = rel.keys;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i + 1);
  }
}

TEST(UniqueUniformTest, KeysAreShuffled) {
  const Relation rel = MakeUniqueUniform(10000, 1);
  size_t in_place = 0;
  for (size_t i = 0; i < rel.size(); ++i) {
    if (rel.keys[i] == i + 1) ++in_place;
  }
  EXPECT_LT(in_place, 100u);  // A real shuffle leaves few fixed points.
}

TEST(UniqueUniformTest, PayloadsAreRowIds) {
  const Relation rel = MakeUniqueUniform(100, 2);
  for (size_t i = 0; i < rel.size(); ++i) {
    EXPECT_EQ(rel.payloads[i], i);
  }
}

TEST(UniqueUniformTest, DeterministicInSeed) {
  const Relation a = MakeUniqueUniform(5000, 77);
  const Relation b = MakeUniqueUniform(5000, 77);
  const Relation c = MakeUniqueUniform(5000, 78);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_NE(a.keys, c.keys);
}

TEST(UniformProbeTest, KeysWithinDistinctDomain) {
  const Relation rel = MakeUniformProbe(20000, 512, 3);
  ASSERT_EQ(rel.size(), 20000u);
  for (uint32_t k : rel.keys) {
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 512u);
  }
}

TEST(UniformProbeTest, CoversDomainForLargeSamples) {
  const Relation rel = MakeUniformProbe(20000, 128, 4);
  std::set<uint32_t> distinct(rel.keys.begin(), rel.keys.end());
  EXPECT_EQ(distinct.size(), 128u);
}

TEST(ZipfRelationTest, SkewConcentratesFrequencies) {
  const Relation uniform = MakeZipf(50000, 1000, 0.0, 5);
  const Relation skewed = MakeZipf(50000, 1000, 1.0, 5);
  auto top_frequency = [](const Relation& rel) {
    std::map<uint32_t, size_t> freq;
    for (uint32_t k : rel.keys) freq[k]++;
    size_t top = 0;
    for (auto& [k, c] : freq) top = std::max(top, c);
    return top;
  };
  EXPECT_GT(top_frequency(skewed), 4 * top_frequency(uniform));
}

TEST(ZipfRelationTest, PopularKeysAreScattered) {
  // The rank->key permutation must spread heavy hitters over the key
  // domain (so they do not collapse into the same radix partition).
  const Relation rel = MakeZipf(50000, 10000, 1.0, 6);
  std::map<uint32_t, size_t> freq;
  for (uint32_t k : rel.keys) freq[k]++;
  // Find the most popular key; it should rarely be key 1 specifically.
  uint32_t top_key = 0;
  size_t top = 0;
  for (auto& [k, c] : freq) {
    if (c > top) {
      top = c;
      top_key = k;
    }
  }
  // Not asserting a specific key — only that popularity is not tied to
  // the low end of the domain as raw ranks would be.
  EXPECT_GT(top_key, 10u);
}

TEST(ZipfRelationTest, DomainRespected) {
  const Relation rel = MakeZipf(10000, 777, 0.75, 9);
  for (uint32_t k : rel.keys) {
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 777u);
  }
}

/// The plain sequential definition MakeZipf must reproduce: the shuffled
/// rank-to-key map, then one ZipfGenerator::Next() and one lookup per
/// tuple.
Relation SequentialZipf(size_t n, size_t distinct, double skew, uint64_t seed,
                        uint64_t perm_seed) {
  util::ZipfGenerator zipf(distinct, skew, seed);
  util::Rng rng(perm_seed != 0 ? perm_seed : seed ^ 0xabcdef12345ULL);
  std::vector<uint32_t> rank_to_key(distinct);
  std::iota(rank_to_key.begin(), rank_to_key.end(), 1u);
  util::Shuffle(&rank_to_key, &rng);
  Relation rel;
  for (size_t i = 0; i < n; ++i) {
    rel.Append(rank_to_key[zipf.Next() - 1], static_cast<uint32_t>(i));
  }
  return rel;
}

TEST(ZipfRelationTest, MatchesSequentialDefinition) {
  // Sizes straddle the draw block MakeZipf maps per pool dispatch.
  constexpr size_t kB = kZipfDrawBlock;
  for (const size_t n :
       {size_t{0}, size_t{1}, kB - 1, kB, kB + 1, 3 * kB + 7}) {
    for (const double skew : {0.0, 0.25, 0.5, 1.0, 1.5}) {
      for (const uint64_t perm_seed : {uint64_t{0}, uint64_t{77}}) {
        const Relation got = MakeZipf(n, 5000, skew, 31, perm_seed);
        const Relation want = SequentialZipf(n, 5000, skew, 31, perm_seed);
        EXPECT_EQ(got.keys, want.keys)
            << "n=" << n << " skew=" << skew << " perm_seed=" << perm_seed;
        EXPECT_EQ(got.payloads, want.payloads)
            << "n=" << n << " skew=" << skew << " perm_seed=" << perm_seed;
      }
    }
  }
}

TEST(ZipfRelationTest, GoldenHash) {
  // FNV-1a over every tuple's key and payload bytes of ten relations,
  // captured from the one-draw-at-a-time generator; the block pipeline
  // must keep it at every pool width.
  uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      hash ^= (v >> (8 * b)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  for (const double skew : {0.0, 0.25, 0.5, 1.0, 1.5}) {
    for (const uint64_t perm_seed : {uint64_t{0}, uint64_t{77}}) {
      const Relation rel =
          MakeZipf(3 * 32768 + 7, 20000, skew, 1234, perm_seed);
      for (size_t i = 0; i < rel.size(); ++i) {
        mix(rel.keys[i]);
        mix(rel.payloads[i]);
      }
    }
  }
  EXPECT_EQ(hash, 0xe4572a6972e188c3ULL);
}

TEST(EmptyDomainTest, EveryGeneratorUsesOneKey) {
  // distinct = 0 is the one key 1 (util::ZipfGenerator treats n = 0 so).
  std::vector<Relation> rels = {
      MakeZipf(100, 0, 0.0, 3), MakeZipf(100, 0, 0.5, 3),
      MakeZipf(100, 0, 0.5, 3, 9), MakeUniformProbe(100, 0, 3),
      MakeReplicated(100, 1000.0, 3)};
  Relation streamed;
  StreamUniformProbe(100, 0, 3, 32, [&](const RelationView& view) {
    for (size_t i = 0; i < view.size; ++i) {
      streamed.Append(view.keys[i], view.payloads[i]);
    }
  });
  rels.push_back(streamed);
  for (size_t r = 0; r < rels.size(); ++r) {
    const Relation& rel = rels[r];
    ASSERT_EQ(rel.size(), 100u) << "relation " << r;
    for (size_t i = 0; i < rel.size(); ++i) {
      EXPECT_EQ(rel.keys[i], 1u) << "relation " << r;
      EXPECT_EQ(rel.payloads[i], i) << "relation " << r;
    }
  }
}

TEST(ReplicatedTest, AverageReplicationFactorHolds) {
  const Relation rel = MakeReplicated(40000, 4.0, 11);
  std::set<uint32_t> distinct(rel.keys.begin(), rel.keys.end());
  // 40000 tuples over 10000 distinct values -> ~4 replicas on average;
  // sampling misses a few values, so allow slack.
  EXPECT_GT(distinct.size(), 9000u);
  EXPECT_LE(distinct.size(), 10000u);
}

TEST(ReplicatedTest, ReplicasOfOneIsNearlyUnique) {
  const Relation rel = MakeReplicated(10000, 1.0, 12);
  std::set<uint32_t> distinct(rel.keys.begin(), rel.keys.end());
  // Sampling with replacement: ~63% coverage of the domain.
  EXPECT_GT(distinct.size(), 5500u);
}

Relation CollectStream(size_t n, size_t chunk_tuples,
                       void (*stream)(size_t, uint64_t, size_t,
                                      const ChunkSink&),
                       uint64_t seed) {
  Relation out;
  size_t calls = 0;
  stream(n, seed, chunk_tuples, [&](const RelationView& view) {
    ++calls;
    EXPECT_LE(view.size, chunk_tuples);
    for (size_t i = 0; i < view.size; ++i) {
      out.Append(view.keys[i], view.payloads[i]);
    }
  });
  EXPECT_EQ(calls, n == 0 ? 0u : (n + chunk_tuples - 1) / chunk_tuples);
  return out;
}

TEST(StreamingGeneratorTest, UniqueUniformMatchesMaterialized) {
  const Relation whole = MakeUniqueUniform(10000, 41);
  for (const size_t chunk : {512u, 3000u, 10000u, 20000u}) {
    const Relation streamed = CollectStream(
        10000, chunk,
        [](size_t n, uint64_t seed, size_t c, const ChunkSink& sink) {
          StreamUniqueUniform(n, seed, c, sink);
        },
        41);
    EXPECT_EQ(streamed.keys, whole.keys) << "chunk=" << chunk;
    EXPECT_EQ(streamed.payloads, whole.payloads) << "chunk=" << chunk;
  }
}

TEST(StreamingGeneratorTest, UniformProbeMatchesMaterialized) {
  const Relation whole = MakeUniformProbe(10000, 700, 42);
  // Includes a chunk size that does not divide n and one larger than n.
  for (const size_t chunk : {999u, 4096u, 50000u}) {
    const Relation streamed = CollectStream(
        10000, chunk,
        [](size_t n, uint64_t seed, size_t c, const ChunkSink& sink) {
          StreamUniformProbe(n, n > 0 ? 700 : 1, seed, c, sink);
        },
        42);
    EXPECT_EQ(streamed.keys, whole.keys) << "chunk=" << chunk;
    EXPECT_EQ(streamed.payloads, whole.payloads) << "chunk=" << chunk;
  }
}

TEST(StreamingGeneratorTest, EmptyStreamEmitsNothing) {
  size_t calls = 0;
  StreamUniqueUniform(0, 7, 128, [&](const RelationView&) { ++calls; });
  StreamUniformProbe(0, 1, 7, 128, [&](const RelationView&) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

class RatioTest : public ::testing::TestWithParam<int> {};

TEST_P(RatioTest, ProbeKeepsBuildDistinctValues) {
  // Fig. 8's 1:N setting: probe drawn from the build key domain.
  const size_t build_n = 4000;
  const Relation build = MakeUniqueUniform(build_n, 21);
  const Relation probe =
      MakeUniformProbe(build_n * GetParam(), build_n, 22);
  std::set<uint32_t> build_keys(build.keys.begin(), build.keys.end());
  for (uint32_t k : probe.keys) {
    EXPECT_TRUE(build_keys.count(k)) << "probe key outside build domain";
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, RatioTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace gjoin::data
