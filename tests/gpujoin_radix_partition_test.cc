// Tests for multi-pass GPU radix partitioning with bucket chains
// (Section III-A). Correctness invariants: no tuple lost or duplicated,
// every tuple lands in the partition determined by its key bits, and the
// structure is identical in content (as a multiset) regardless of pass
// structure or work assignment.

#include "src/gpujoin/radix_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/data/generator.h"
#include "src/gpujoin/types.h"
#include "src/util/bits.h"

namespace gjoin::gpujoin {
namespace {

class RadixPartitionTest : public ::testing::Test {
 protected:
  hw::HardwareSpec spec_;
  sim::Device device_{spec_};

  DeviceRelation Upload(const data::Relation& rel) {
    auto result = DeviceRelation::Upload(&device_, rel);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).ValueOrDie();
  }

  // The partition a key must land in given the config's bit layout:
  // pass i maps bits [shift_i, shift_i + bits_i) to the child index
  // child = (parent << bits_i) | sub.
  static uint32_t ExpectedPartition(uint32_t key,
                                    const std::vector<int>& pass_bits) {
    uint32_t partition = 0;
    int shift = 0;
    for (int bits : pass_bits) {
      const uint32_t sub = util::RadixOf(key, shift, bits);
      partition = (partition << bits) | sub;
      shift += bits;
    }
    return partition;
  }

  void VerifyPartitioning(const data::Relation& rel,
                          const PartitionedRelation& parted,
                          const std::vector<int>& pass_bits) {
    ASSERT_EQ(parted.tuples, rel.size());
    ASSERT_EQ(parted.chains.num_partitions(),
              1u << parted.radix_bits);
    // Gather all partitions; each tuple must be present exactly once and
    // in the right partition.
    std::multimap<uint32_t, uint32_t> expected;
    for (size_t i = 0; i < rel.size(); ++i) {
      expected.emplace(rel.keys[i], rel.payloads[i]);
    }
    uint64_t total = 0;
    for (uint32_t p = 0; p < parted.chains.num_partitions(); ++p) {
      for (auto [key, payload] : parted.chains.GatherPartition(p)) {
        EXPECT_EQ(ExpectedPartition(key, pass_bits), p)
            << "key " << key << " in wrong partition";
        auto it = expected.find(key);
        ASSERT_NE(it, expected.end()) << "unexpected tuple key " << key;
        // Erase one matching (key,payload) instance.
        auto range = expected.equal_range(key);
        bool erased = false;
        for (auto e = range.first; e != range.second; ++e) {
          if (e->second == payload) {
            expected.erase(e);
            erased = true;
            break;
          }
        }
        ASSERT_TRUE(erased) << "duplicate tuple key " << key;
        ++total;
      }
    }
    EXPECT_EQ(total, rel.size());
    EXPECT_TRUE(expected.empty()) << expected.size() << " tuples lost";
  }
};

TEST_F(RadixPartitionTest, SinglePassPartitionsCorrectly) {
  const data::Relation rel = data::MakeUniqueUniform(20000, 3);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {6};
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  VerifyPartitioning(rel, *parted, cfg.pass_bits);
}

TEST_F(RadixPartitionTest, TwoPassPartitionsCorrectly) {
  const data::Relation rel = data::MakeUniqueUniform(30000, 4);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {5, 4};
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  EXPECT_EQ(parted->radix_bits, 9);
  EXPECT_EQ(parted->pass_seconds.size(), 2u);
  VerifyPartitioning(rel, *parted, cfg.pass_bits);
}

TEST_F(RadixPartitionTest, ThreePassPartitionsCorrectly) {
  const data::Relation rel = data::MakeUniqueUniform(10000, 5);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {4, 3, 3};
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  VerifyPartitioning(rel, *parted, cfg.pass_bits);
}

TEST_F(RadixPartitionTest, PartitionAtATimeProducesSameContent) {
  const data::Relation rel = data::MakeUniqueUniform(25000, 6);
  RadixPartitionConfig bucket_cfg;
  bucket_cfg.pass_bits = {5, 4};
  bucket_cfg.assignment = WorkAssignment::kBucketAtATime;
  RadixPartitionConfig chain_cfg = bucket_cfg;
  chain_cfg.assignment = WorkAssignment::kPartitionAtATime;

  auto a = RadixPartition(&device_, Upload(rel), bucket_cfg);
  auto b = RadixPartition(&device_, Upload(rel), chain_cfg);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  VerifyPartitioning(rel, *a, bucket_cfg.pass_bits);
  VerifyPartitioning(rel, *b, chain_cfg.pass_bits);
  // Same multiset per partition.
  for (uint32_t p = 0; p < a->chains.num_partitions(); ++p) {
    auto pa = a->chains.GatherPartition(p);
    auto pb = b->chains.GatherPartition(p);
    std::sort(pa.begin(), pa.end());
    std::sort(pb.begin(), pb.end());
    EXPECT_EQ(pa, pb) << "partition " << p;
  }
}

TEST_F(RadixPartitionTest, ChunkedConsumingMatchesMonolithic) {
  const data::Relation rel = data::MakeUniformProbe(40000, 9000, 19);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {5, 4};
  auto whole = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(whole.ok()) << whole.status();

  // Chunk boundaries deliberately unaligned with the launch's per-block
  // ranges; results must be bucket-for-bucket identical regardless.
  for (const size_t chunk : {1000u, 12345u, 40000u}) {
    ChunkedDeviceInput input;
    for (size_t begin = 0; begin < rel.size(); begin += chunk) {
      const size_t end = std::min(rel.size(), begin + chunk);
      input.Add({rel.keys.begin() + begin, rel.keys.begin() + end},
                {rel.payloads.begin() + begin, rel.payloads.begin() + end});
    }
    EXPECT_EQ(input.size(), rel.size());
    EXPECT_EQ(input.MaxKey(), 9000u);
    auto parted = RadixPartitionChunkedConsuming(&device_, std::move(input),
                                                 cfg);
    ASSERT_TRUE(parted.ok()) << parted.status();
    EXPECT_EQ(parted->tuples, whole->tuples);
    EXPECT_EQ(parted->radix_bits, whole->radix_bits);
    // Bitwise-identical charging: same launch, same per-block work.
    EXPECT_EQ(parted->seconds, whole->seconds) << "chunk=" << chunk;
    ASSERT_EQ(parted->pass_seconds.size(), whole->pass_seconds.size());
    for (size_t i = 0; i < whole->pass_seconds.size(); ++i) {
      EXPECT_EQ(parted->pass_seconds[i], whole->pass_seconds[i]);
    }
    // Identical chain content in identical order.
    for (uint32_t p = 0; p < whole->chains.num_partitions(); ++p) {
      EXPECT_EQ(parted->chains.GatherPartition(p),
                whole->chains.GatherPartition(p))
          << "chunk=" << chunk << " partition " << p;
    }
  }
}

TEST_F(RadixPartitionTest, ChunkedConsumingEmptyInput) {
  RadixPartitionConfig cfg;
  cfg.pass_bits = {4};
  ChunkedDeviceInput input;
  input.Add({}, {});  // empty chunks are dropped
  EXPECT_EQ(input.size(), 0u);
  auto parted = RadixPartitionChunkedConsuming(&device_, std::move(input),
                                               cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  EXPECT_EQ(parted->chains.TotalElements(), 0u);
}

TEST_F(RadixPartitionTest, SkewedInputIsStillCorrect) {
  const data::Relation rel = data::MakeZipf(30000, 30000, 1.0, 7);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {5, 4};
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  VerifyPartitioning(rel, *parted, cfg.pass_bits);
}

TEST_F(RadixPartitionTest, EmptyRelationYieldsEmptyPartitions) {
  data::Relation rel;
  RadixPartitionConfig cfg;
  cfg.pass_bits = {4};
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  EXPECT_EQ(parted->chains.TotalElements(), 0u);
}

TEST_F(RadixPartitionTest, SingleTupleLandsInItsPartition) {
  data::Relation rel;
  rel.Append(/*key=*/0b101101, /*payload=*/99);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {3, 3};
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  // parent = low 3 bits = 0b101, sub = next 3 = 0b101;
  // child id = (parent << 3) | sub.
  const uint32_t expect = (0b101u << 3) | 0b101u;
  EXPECT_EQ(parted->chains.PartitionSize(expect), 1u);
  EXPECT_EQ(parted->chains.TotalElements(), 1u);
}

TEST_F(RadixPartitionTest, RejectsOversizedFanout) {
  const data::Relation rel = data::MakeUniqueUniform(100, 8);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {13};  // needs far more shared memory than a block has
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  EXPECT_FALSE(parted.ok());
}

TEST_F(RadixPartitionTest, RejectsEmptyPassList) {
  const data::Relation rel = data::MakeUniqueUniform(100, 9);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {};
  EXPECT_FALSE(RadixPartition(&device_, Upload(rel), cfg).ok());
}

TEST_F(RadixPartitionTest, RejectsInvalidConfigFields) {
  // Each bad field returns a typed kInvalid naming it instead of
  // dividing by zero (stage_elems) or shifting past the key width.
  const data::Relation rel = data::MakeUniqueUniform(1 << 16, 15);
  struct BadConfig {
    const char* field;
    RadixPartitionConfig cfg;
  };
  std::vector<BadConfig> cases(4);
  cases[0].field = "stage_elems";
  cases[0].cfg.pass_bits = {4, 4};
  cases[0].cfg.stage_elems = 0;
  cases[1].field = "base_shift";
  cases[1].cfg.base_shift = -1;
  cases[2].field = "base_shift";
  cases[2].cfg.base_shift = 30;
  cases[3].field = "pass_bits";
  cases[3].cfg.pass_bits = {12, 12, 8};
  for (const BadConfig& bad : cases) {
    SCOPED_TRACE(bad.field);
    for (const WorkAssignment assignment :
         {WorkAssignment::kBucketAtATime, WorkAssignment::kPartitionAtATime}) {
      RadixPartitionConfig cfg = bad.cfg;
      cfg.assignment = assignment;
      auto parted = RadixPartition(&device_, Upload(rel), cfg);
      ASSERT_FALSE(parted.ok());
      EXPECT_EQ(parted.status().code(), util::StatusCode::kInvalid);
      EXPECT_NE(parted.status().message().find(bad.field), std::string::npos)
          << parted.status();
    }
  }
}

TEST_F(RadixPartitionTest, SinglePassesRejectInvalidFields) {
  // Every pass is checked before the first one runs: a one-pass layout
  // with a bad field, and a later pass at shift 29 + 4 bits, are
  // rejected without a launch.
  const data::Relation rel = data::MakeUniqueUniform(4096, 16);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {4};
  cfg.stage_elems = 0;
  auto first = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), util::StatusCode::kInvalid);
  cfg.stage_elems = RadixPartitionConfig{}.stage_elems;
  cfg.base_shift = -1;
  EXPECT_FALSE(RadixPartition(&device_, Upload(rel), cfg).ok());
  cfg.base_shift = 30;
  EXPECT_FALSE(RadixPartition(&device_, Upload(rel), cfg).ok());

  cfg.pass_bits = {4, 4};
  cfg.base_shift = 25;
  auto next = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), util::StatusCode::kInvalid);
  EXPECT_TRUE(device_.profile().empty());
}

TEST_F(RadixPartitionTest, AutoBucketCapacityBounds) {
  EXPECT_EQ(AutoBucketCapacity(0, 16), 128u);
  EXPECT_EQ(AutoBucketCapacity(1 << 20, 1), 1024u);
  // 2^15 partitions over 1M tuples: ~64 expected -> clamped to 128.
  EXPECT_EQ(AutoBucketCapacity(1 << 20, 1 << 15), 128u);
  // Power of two always.
  for (uint64_t n : {1000ull, 123456ull, 999999ull}) {
    EXPECT_TRUE(util::IsPowerOfTwo(AutoBucketCapacity(n, 64)));
  }
}

TEST_F(RadixPartitionTest, BucketsRespectCapacityAndFill) {
  const data::Relation rel = data::MakeUniqueUniform(8192, 10);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {3};
  cfg.bucket_capacity = 256;
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  const auto& chains = parted->chains;
  for (uint32_t p = 0; p < chains.num_partitions(); ++p) {
    for (int32_t b : chains.PartitionBuckets(p)) {
      EXPECT_LE(chains.fill()[b], 256u);
      EXPECT_GT(chains.fill()[b], 0u);  // published buckets are non-empty
    }
  }
}

TEST_F(RadixPartitionTest, ChargesPartitioningTraffic) {
  const data::Relation rel = data::MakeUniqueUniform(50000, 11);
  device_.ClearProfile();
  RadixPartitionConfig cfg;
  cfg.pass_bits = {5, 4};
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok());
  // Two kernel launches, each reading and scatter-writing ~8B/tuple.
  const auto profile = device_.profile();
  ASSERT_EQ(profile.size(), 2u);
  for (const auto& entry : profile) {
    EXPECT_GE(entry.stats.coalesced_read_bytes, 8ull * rel.size());
    EXPECT_GE(entry.stats.scatter_write_bytes, 8ull * rel.size());
    EXPECT_GT(entry.seconds, 0.0);
  }
  EXPECT_GT(parted->seconds, 0.0);
  EXPECT_NEAR(parted->seconds,
              parted->pass_seconds[0] + parted->pass_seconds[1], 1e-12);
}

TEST_F(RadixPartitionTest, SecondPassBucketModeChargesDeviceMetadata) {
  // The bucket-at-a-time mode pays device-memory metadata accesses; the
  // partition-at-a-time mode keeps metadata in shared memory.
  const data::Relation rel = data::MakeUniqueUniform(50000, 12);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {5, 4};

  device_.ClearProfile();
  cfg.assignment = WorkAssignment::kBucketAtATime;
  ASSERT_TRUE(RadixPartition(&device_, Upload(rel), cfg).ok());
  const auto bucket_profile = device_.profile();

  device_.ClearProfile();
  cfg.assignment = WorkAssignment::kPartitionAtATime;
  ASSERT_TRUE(RadixPartition(&device_, Upload(rel), cfg).ok());
  const auto chain_profile = device_.profile();

  // Pass 2 is entry [1] in both profiles.
  EXPECT_GT(bucket_profile[1].stats.random_transactions,
            chain_profile[1].stats.random_transactions);
}

class PassBitsSweep : public RadixPartitionTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(PassBitsSweep, AnyFirstPassFanoutIsCorrect) {
  const data::Relation rel = data::MakeUniqueUniform(4096, 13);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {GetParam()};
  auto parted = RadixPartition(&device_, Upload(rel), cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  VerifyPartitioning(rel, *parted, cfg.pass_bits);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, PassBitsSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gjoin::gpujoin
