// Tests for the shared bucket pool, recycling across passes, the output
// ring, and the segmented / consuming partitioning entry points — the
// machinery that keeps device-memory footprint near the data size
// (DESIGN.md §5).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/bucket_pool.h"
#include "src/gpujoin/output_ring.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/gpujoin/radix_partition.h"
#include "src/util/thread_pool.h"

namespace gjoin::gpujoin {
namespace {

class PoolTest : public ::testing::Test {
 protected:
  hw::HardwareSpec spec_;
  sim::Device device_{spec_};
};

TEST_F(PoolTest, AllocateFreeRoundTrip) {
  auto pool =
      std::move(BucketPool::Allocate(&device_.memory(), 8, 64)).ValueOrDie();
  EXPECT_EQ(pool->free_buckets(), 8u);
  std::set<int32_t> taken;
  for (int i = 0; i < 8; ++i) {
    const int32_t b = pool->AllocateBucket();
    ASSERT_NE(b, BucketPool::kNull);
    EXPECT_TRUE(taken.insert(b).second) << "bucket handed out twice";
  }
  EXPECT_EQ(pool->AllocateBucket(), BucketPool::kNull);  // exhausted
  pool->FreeBucket(*taken.begin());
  EXPECT_EQ(pool->free_buckets(), 1u);
  EXPECT_NE(pool->AllocateBucket(), BucketPool::kNull);
}

TEST_F(PoolTest, AllocationResetsBucketState) {
  auto pool =
      std::move(BucketPool::Allocate(&device_.memory(), 2, 16)).ValueOrDie();
  const int32_t b = pool->AllocateBucket();
  pool->fill()[b] = 7;
  pool->next()[b] = 1;
  pool->FreeBucket(b);
  const int32_t again = pool->AllocateBucket();
  // LIFO free list returns the same bucket, cleaned.
  EXPECT_EQ(again, b);
  EXPECT_EQ(pool->fill()[again], 0u);
  EXPECT_EQ(pool->next()[again], BucketPool::kNull);
}

TEST_F(PoolTest, RejectsZeroGeometry) {
  EXPECT_FALSE(BucketPool::Allocate(&device_.memory(), 0, 64).ok());
  EXPECT_FALSE(BucketPool::Allocate(&device_.memory(), 8, 0).ok());
}

TEST_F(PoolTest, ChainsShareOnePool) {
  auto pool =
      std::move(BucketPool::Allocate(&device_.memory(), 32, 64)).ValueOrDie();
  auto a = std::move(BucketChains::Allocate(&device_.memory(), 4, pool))
               .ValueOrDie();
  auto b = std::move(BucketChains::Allocate(&device_.memory(), 8, pool))
               .ValueOrDie();
  const int32_t from_a = a.AllocateBucket();
  const int32_t from_b = b.AllocateBucket();
  EXPECT_NE(from_a, from_b);
  EXPECT_EQ(pool->free_buckets(), 30u);
  a.FreeBucket(from_a);
  b.FreeBucket(from_b);
  EXPECT_EQ(pool->free_buckets(), 32u);
}

TEST_F(PoolTest, MultiPassPartitioningRecyclesBuckets) {
  // After a 2-pass partition, the pool must hold roughly data-sized
  // buckets, not data + a full intermediate copy: pass 2 recycled the
  // pass-1 buckets.
  const auto rel = data::MakeUniqueUniform(100000, 3);
  auto rel_dev =
      std::move(DeviceRelation::Upload(&device_, rel)).ValueOrDie();
  RadixPartitionConfig cfg;
  cfg.pass_bits = {4, 4};
  cfg.bucket_capacity = 128;
  auto parted = std::move(RadixPartition(&device_, rel_dev, cfg)).ValueOrDie();
  EXPECT_EQ(parted.chains.TotalElements(), rel.size());
  const auto& pool = parted.chains.pool();
  const uint32_t in_use = pool->num_buckets() - pool->free_buckets();
  // Data needs ~782 buckets; allow partial-fill slack, but far below 2x.
  EXPECT_LT(in_use, 782 * 3 / 2 + 256 + 64);
}

TEST_F(PoolTest, ConsumingPartitionFreesInputColumns) {
  const auto rel = data::MakeUniqueUniform(50000, 4);
  auto rel_dev =
      std::move(DeviceRelation::Upload(&device_, rel)).ValueOrDie();
  const size_t before = device_.memory().used();
  RadixPartitionConfig cfg;
  cfg.pass_bits = {4};
  auto parted =
      std::move(RadixPartitionConsuming(&device_, std::move(rel_dev), cfg))
          .ValueOrDie();
  // Input columns (2 x 200KB) were freed; usage reflects chains only,
  // so it must be below input + chains simultaneously.
  EXPECT_LT(device_.memory().used(), before + parted.chains.pool()->num_buckets() *
                                                  parted.chains.bucket_capacity() * 8);
  EXPECT_EQ(parted.chains.TotalElements(), rel.size());
}

TEST_F(PoolTest, SegmentedPartitioningMatchesMonolithic) {
  const auto rel = data::MakeUniformProbe(80000, 5000, 5);
  RadixPartitionConfig cfg;
  cfg.pass_bits = {4, 3};
  auto seg = std::move(RadixPartitionSegmented(&device_, rel, cfg, 5))
                 .ValueOrDie();
  auto rel_dev =
      std::move(DeviceRelation::Upload(&device_, rel)).ValueOrDie();
  auto mono = std::move(RadixPartition(&device_, rel_dev, cfg)).ValueOrDie();
  ASSERT_EQ(seg.chains.num_partitions(), mono.chains.num_partitions());
  EXPECT_EQ(seg.tuples, mono.tuples);
  for (uint32_t p = 0; p < seg.chains.num_partitions(); ++p) {
    auto a = seg.chains.GatherPartition(p);
    auto b = mono.chains.GatherPartition(p);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "partition " << p;
  }
}

TEST_F(PoolTest, FromHostJoinWithManySegmentsIsCorrect) {
  const auto r = data::MakeUniqueUniform(20000, 6);
  const auto s = data::MakeUniformProbe(120000, 20000, 7);
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4, 3};
  auto stats =
      std::move(PartitionedJoinFromHost(&device_, r, s, cfg, /*segments=*/7))
          .ValueOrDie();
  const auto oracle = data::JoinOracle(r, s);
  EXPECT_EQ(stats.matches, oracle.matches);
  EXPECT_EQ(stats.payload_sum, oracle.payload_sum);
}

TEST_F(PoolTest, FromHostFitsTightDeviceViaSegments) {
  // A device that cannot hold probe input + partitions simultaneously:
  // auto-segmentation must make the join feasible.
  hw::HardwareSpec tiny = spec_;
  tiny.gpu.device_memory_bytes = 96 << 20;
  sim::Device small(tiny);
  const auto r = data::MakeUniqueUniform(100000, 8);        // 0.8 MB
  const auto s = data::MakeUniformProbe(4000000, 100000, 9);  // 32 MB
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {5, 4};
  auto stats = PartitionedJoinFromHost(&small, r, s, cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->matches, data::JoinOracle(r, s).matches);
}

class OutputRingTest : public PoolTest {};

TEST_F(OutputRingTest, ClaimAndWriteWithoutWrap) {
  auto ring =
      std::move(OutputRing::Allocate(&device_.memory(), 16)).ValueOrDie();
  for (uint32_t i = 0; i < 10; ++i) ring.Write(ring.Claim(1), i, i * 2);
  EXPECT_EQ(ring.total_written(), 10u);
  EXPECT_FALSE(ring.wrapped());
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.pair(i), (static_cast<uint64_t>(i) << 32) | (i * 2));
  }
}

TEST_F(OutputRingTest, WrapsAndCounts) {
  auto ring =
      std::move(OutputRing::Allocate(&device_.memory(), 4)).ValueOrDie();
  for (uint32_t i = 0; i < 11; ++i) ring.Write(ring.Claim(1), i, i);
  EXPECT_EQ(ring.total_written(), 11u);
  EXPECT_TRUE(ring.wrapped());
  // Position 10 % 4 == 2 holds the last write.
  EXPECT_EQ(ring.pair(2), (10ull << 32) | 10u);
  ring.ResetCursor();
  EXPECT_EQ(ring.total_written(), 0u);
}

TEST_F(OutputRingTest, RejectsZeroCapacity) {
  EXPECT_FALSE(OutputRing::Allocate(&device_.memory(), 0).ok());
}


// ---- Publishing recorded emissions ----
// EmitRecorder::Publish must leave the ring, and its cursor, exactly as
// a serial replay leaves them: every block's pairs claimed and written
// one at a time, in ascending block id.

/// Records `counts[b]` distinct pairs for block b, publishes them onto a
/// ring of `capacity` pairs whose cursor already stands at `start`, and
/// compares every ring word and the cursor against the serial replay,
/// with the blocks recorded from pools of widths 1, 2 and 8.
void ExpectPublishMatchesReplay(sim::Device* device,
                                const std::vector<uint64_t>& counts,
                                size_t capacity, uint64_t start = 0) {
  const auto pair_of = [](size_t block, uint64_t i) {
    return PackPair(static_cast<uint32_t>(block), static_cast<uint32_t>(i));
  };
  // Pre-fills the ring with sentinels, so slots nobody writes are
  // compared too, then advances its cursor to `start`.
  const auto fresh_ring = [&] {
    OutputRing ring =
        std::move(OutputRing::Allocate(&device->memory(), capacity))
            .ValueOrDie();
    for (size_t i = 0; i < capacity; ++i) {
      ring.Write(i, 0xDEADBEEF, static_cast<uint32_t>(i));
    }
    ring.ResetCursor();
    ring.Claim(start);
    return ring;
  };

  OutputRing ref = fresh_ring();
  for (size_t b = 0; b < counts.size(); ++b) {
    for (uint64_t i = 0; i < counts[b]; ++i) {
      const uint64_t pair = pair_of(b, i);
      ref.Write(ref.Claim(1), static_cast<uint32_t>(pair >> 32),
                static_cast<uint32_t>(pair));
    }
  }

  for (const size_t width : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    util::ThreadPool pool(width);
    OutputRing ring = fresh_ring();
    EmitRecorder emits(counts.size());
    // Record from the pool, one block per task, as a launch would.
    pool.ParallelFor(counts.size(), [&](size_t b) {
      EmitRecorder::Cursor& cursor = emits.cursor(static_cast<int>(b));
      for (uint64_t i = 0; i < counts[b]; ++i) {
        const uint64_t pair = pair_of(b, i);
        cursor.Push(static_cast<uint32_t>(pair >> 32),
                    static_cast<uint32_t>(pair));
      }
      EXPECT_EQ(cursor.count(), counts[b]);
    });
    emits.Publish(&ring);
    EXPECT_EQ(ring.total_written(), ref.total_written());
    for (size_t i = 0; i < capacity; ++i) {
      ASSERT_EQ(ring.pair(i), ref.pair(i)) << "ring slot " << i;
    }
  }
}

constexpr uint64_t kPage = EmitRecorder::kPagePairs;

TEST_F(OutputRingTest, PublishNoPairs) {
  ExpectPublishMatchesReplay(&device_, {0, 0, 0}, 16);
  ExpectPublishMatchesReplay(&device_, {}, 16);
}

TEST_F(OutputRingTest, PublishFewerPairsThanCapacity) {
  ExpectPublishMatchesReplay(&device_, {3, 2, 4}, 16);
}

TEST_F(OutputRingTest, PublishExactlyCapacity) {
  ExpectPublishMatchesReplay(&device_, {5, 3, 8}, 16);
}

TEST_F(OutputRingTest, PublishOnePairPastCapacity) {
  ExpectPublishMatchesReplay(&device_, {5, 3, 9}, 16);
}

TEST_F(OutputRingTest, PublishSkipsEmptyBlocks) {
  ExpectPublishMatchesReplay(&device_, {4, 0, 0, 7, 0, 5, 0}, 8);
  ExpectPublishMatchesReplay(&device_, {0, 0, 6, 0, 0, 6, 0, 0}, 8);
}

TEST_F(OutputRingTest, PublishBlockLargerThanRing) {
  ExpectPublishMatchesReplay(&device_, {3, 40, 2}, 16);
  ExpectPublishMatchesReplay(&device_, {3, 2, 40}, 16);
}

TEST_F(OutputRingTest, PublishCapacityOne) {
  ExpectPublishMatchesReplay(&device_, {3, 0, 2}, 1);
  ExpectPublishMatchesReplay(&device_, {1}, 1);
}

TEST_F(OutputRingTest, PublishAfterEarlierClaims) {
  // A second launch publishing onto the same ring (pipeline chunks).
  ExpectPublishMatchesReplay(&device_, {3, 2}, 16, 13);
  ExpectPublishMatchesReplay(&device_, {30, 0, 5}, 16, 7);
}

TEST_F(OutputRingTest, PublishCrossesPageBoundaryMidSurvivors) {
  // The surviving 300 pairs start 150 before block 0's second page.
  ExpectPublishMatchesReplay(&device_, {kPage + 100, 50}, 300);
  // Survivors spanning several pages and blocks, with the ring wrapping
  // inside a page.
  ExpectPublishMatchesReplay(&device_, {2 * kPage + 5, 3, 0, kPage + 7},
                             3 * kPage / 2 + 1, 11);
}

}  // namespace
}  // namespace gjoin::gpujoin
