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
  std::vector<int32_t> v;
  std::set<int32_t> taken;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(pool->AllocateBuckets(1, &v), 1u);
    EXPECT_TRUE(taken.insert(v.back()).second) << "bucket handed out twice";
  }
  EXPECT_EQ(pool->AllocateBuckets(1, &v), 0u);  // exhausted
  EXPECT_EQ(v.size(), 8u);
  pool->FreeBuckets({*taken.begin()});
  EXPECT_EQ(pool->free_buckets(), 1u);
  EXPECT_EQ(pool->AllocateBuckets(1, &v), 1u);
}

TEST_F(PoolTest, AllocationResetsBucketState) {
  auto pool =
      std::move(BucketPool::Allocate(&device_.memory(), 2, 16)).ValueOrDie();
  std::vector<int32_t> v;
  ASSERT_EQ(pool->AllocateBuckets(1, &v), 1u);
  const int32_t b = v.back();
  pool->fill()[b] = 7;
  pool->next()[b] = 1;
  pool->FreeBuckets({b});
  ASSERT_EQ(pool->AllocateBuckets(1, &v), 1u);
  const int32_t again = v.back();
  // LIFO free list returns the same bucket, cleaned.
  EXPECT_EQ(again, b);
  EXPECT_EQ(pool->fill()[again], 0u);
  EXPECT_EQ(pool->next()[again], BucketPool::kNull);
}

TEST_F(PoolTest, AllocateBucketsTakesWhatIsFreeAndResetsEach) {
  auto pool =
      std::move(BucketPool::Allocate(&device_.memory(), 8, 16)).ValueOrDie();
  std::vector<int32_t> all;
  ASSERT_EQ(pool->AllocateBuckets(8, &all), 8u);
  for (const int32_t b : all) {
    pool->fill()[b] = 5;
    pool->next()[b] = 3;
  }
  pool->FreeBuckets(all);

  // Appends to what `out` already holds; every bucket drawn is clean.
  std::vector<int32_t> batch = {-7};
  EXPECT_EQ(pool->AllocateBuckets(3, &batch), 3u);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0], -7);
  for (size_t i = 1; i < batch.size(); ++i) {
    EXPECT_EQ(pool->fill()[batch[i]], 0u);
    EXPECT_EQ(pool->next()[batch[i]], BucketPool::kNull);
  }
  EXPECT_EQ(pool->free_buckets(), 5u);

  // A request the pool can serve only in part empties it.
  std::vector<int32_t> rest;
  EXPECT_EQ(pool->AllocateBuckets(10, &rest), 5u);
  EXPECT_EQ(rest.size(), 5u);
  EXPECT_EQ(pool->free_buckets(), 0u);
  std::set<int32_t> distinct(batch.begin() + 1, batch.end());
  distinct.insert(rest.begin(), rest.end());
  EXPECT_EQ(distinct.size(), 8u) << "bucket handed out twice";
  for (const int32_t b : rest) {
    EXPECT_EQ(pool->fill()[b], 0u);
    EXPECT_EQ(pool->next()[b], BucketPool::kNull);
  }

  // An empty pool takes nothing and appends nothing.
  EXPECT_EQ(pool->AllocateBuckets(4, &rest), 0u);
  EXPECT_EQ(rest.size(), 5u);
}

TEST_F(PoolTest, LockCountCountsEachDrawAndFree) {
  auto pool =
      std::move(BucketPool::Allocate(&device_.memory(), 8, 16)).ValueOrDie();
  std::vector<int32_t> taken;
  pool->AllocateBuckets(3, &taken);
  pool->AllocateBuckets(1, &taken);
  pool->FreeBuckets({taken.back()});
  taken.pop_back();
  pool->FreeBuckets(taken);
  EXPECT_EQ(pool->free_buckets(), 8u);  // reads do not count
  EXPECT_EQ(pool->lock_count(), 4u);
}

TEST_F(PoolTest, DrawBatchKeepsStashesWithinTheInFlightSlack) {
  for (const size_t producers : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 16u, 100u, 128u,
                                 129u, 4096u}) {
    SCOPED_TRACE("producers " + std::to_string(producers));
    const uint32_t batch = BucketPool::DrawBatch(producers);
    EXPECT_GE(batch, 1u);
    EXPECT_LE(batch, BucketPool::kMaxDrawBatch);
    if (producers >= 1 && producers <= BucketPool::kInFlightSlack) {
      EXPECT_LE(batch * producers, BucketPool::kInFlightSlack);
    }
  }
  EXPECT_EQ(BucketPool::DrawBatch(1), BucketPool::kMaxDrawBatch);
  EXPECT_EQ(BucketPool::DrawBatch(8), 16u);
}

TEST_F(PoolTest, PartitioningLocksThePoolOncePerBatch) {
  // small_joins' probe side at pool width 1: 256K tuples, passes {8, 7},
  // 32-tuple buckets. A producer (a pass-1 block, a pass-2 sweeper or
  // block) refills its stash a full batch per lock and returns its
  // leftovers with one more, so it takes at most ceil(used / batch) + 2
  // locks for the `used` pool buckets it keeps. Pass 1 keeps every bucket
  // its chains hold; pass 2 recycles those and draws at most the buckets
  // its own chains hold. Locking once per bucket would take at least one
  // lock per pass-1 bucket.
  util::ThreadPool one(1);
  sim::Device device(spec_, &one);
  const auto rel = data::MakeUniformProbe(256 * 1024, 64 * 1024, 12);
  const uint64_t blocks = static_cast<uint64_t>(spec_.gpu.num_sms) *
                          static_cast<uint64_t>(spec_.gpu.blocks_per_sm);
  const uint64_t batch = BucketPool::DrawBatch(1);
  const auto partition = [&](std::vector<int> pass_bits,
                             WorkAssignment assignment) {
    auto rel_dev =
        std::move(DeviceRelation::Upload(&device, rel)).ValueOrDie();
    RadixPartitionConfig cfg;
    cfg.pass_bits = std::move(pass_bits);
    cfg.assignment = assignment;
    return std::move(RadixPartition(&device, rel_dev, cfg)).ValueOrDie();
  };
  const auto held = [](const PartitionedRelation& parted) {
    const BucketPool& pool = *parted.chains.pool();
    return static_cast<uint64_t>(pool.num_buckets() - pool.free_buckets());
  };

  // Pass 1 alone: `blocks` producers.
  const PartitionedRelation first =
      partition({8}, WorkAssignment::kBucketAtATime);
  ASSERT_EQ(first.chains.bucket_capacity(), 32u);
  const uint64_t pass1_buckets = held(first);
  const uint64_t pass1_bound =
      (pass1_buckets + batch - 1) / batch + 2 * blocks;
  EXPECT_LE(first.chains.pool()->lock_count(), pass1_bound);
  EXPECT_GT(pass1_buckets, 10 * pass1_bound);  // sees per-bucket locks

  for (const WorkAssignment assignment :
       {WorkAssignment::kBucketAtATime, WorkAssignment::kPartitionAtATime}) {
    SCOPED_TRACE(assignment == WorkAssignment::kBucketAtATime
                     ? "bucket at a time"
                     : "partition at a time");
    const PartitionedRelation parted = partition({8, 7}, assignment);
    ASSERT_EQ(parted.chains.bucket_capacity(), 32u);
    // Pass 1's blocks, then one sweeper (width 1) or one producer per
    // block holding parents.
    const uint64_t producers =
        blocks + (assignment == WorkAssignment::kBucketAtATime ? 1 : blocks);
    const uint64_t used = pass1_buckets + held(parted);
    const uint64_t bound = (used + batch - 1) / batch + 2 * producers;
    EXPECT_LE(parted.chains.pool()->lock_count(), bound)
        << used << " buckets filled";
    EXPECT_GT(pass1_buckets, 5 * bound);  // sees per-bucket locks
  }
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
  EXPECT_EQ(a.pool(), b.pool());
  std::vector<int32_t> from_a;
  std::vector<int32_t> from_b;
  ASSERT_EQ(a.pool()->AllocateBuckets(1, &from_a), 1u);
  ASSERT_EQ(b.pool()->AllocateBuckets(1, &from_b), 1u);
  EXPECT_NE(from_a, from_b);
  EXPECT_EQ(pool->free_buckets(), 30u);
  a.pool()->FreeBuckets(from_a);
  b.pool()->FreeBuckets(from_b);
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


// ---- Publishing the survivors ----
// PublishSurvivors must leave the ring, and its cursor, exactly as a
// serial replay leaves them: every block's pairs claimed and written one
// at a time, in ascending block id.

/// Publishes `counts[b]` distinct pairs for block b onto a ring of
/// `capacity` pairs whose cursor already stands at `start`, through an
/// enumerator that emits each block in items of `item_pairs` pairs and
/// skips the items the wrap overwrites whole. Compares every ring word
/// and the cursor against the serial replay at pool widths 1, 2 and 8,
/// and checks that only blocks with survivors are enumerated, each
/// pushing at most its survivors plus the rest of the item the cut
/// falls in.
void ExpectPublishMatchesReplay(sim::Device* device,
                                const std::vector<uint64_t>& counts,
                                size_t capacity, uint64_t start = 0,
                                uint64_t item_pairs = 3) {
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
  std::vector<uint64_t> survivors(counts.size());
  for (size_t b = 0; b < counts.size(); ++b) {
    for (uint64_t i = 0; i < counts[b]; ++i) {
      const uint64_t pair = pair_of(b, i);
      ref.Write(ref.Claim(1), static_cast<uint32_t>(pair >> 32),
                static_cast<uint32_t>(pair));
    }
  }
  // Block b's pairs at logical offsets >= the cut survive.
  const uint64_t cut =
      ref.total_written() > capacity ? ref.total_written() - capacity : 0;
  for (size_t b = 0, base = start; b < counts.size(); base += counts[b++]) {
    survivors[b] = base + counts[b] > cut
                       ? std::min(counts[b], base + counts[b] - cut)
                       : 0;
  }

  for (const size_t width : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    util::ThreadPool pool(width);
    OutputRing ring = fresh_ring();
    // Each block is enumerated by one task, so its slot needs no lock.
    std::vector<uint64_t> calls(counts.size()), pushed(counts.size());
    PublishSurvivors(&ring, counts, &pool, [&](size_t b, SurvivorSink& sink) {
      ++calls[b];
      for (uint64_t from = 0; from < counts[b]; from += item_pairs) {
        const uint64_t n = std::min(item_pairs, counts[b] - from);
        if (sink.Skips(n)) continue;
        for (uint64_t i = from; i < from + n; ++i) {
          const uint64_t pair = pair_of(b, i);
          sink.Push(static_cast<uint32_t>(pair >> 32),
                    static_cast<uint32_t>(pair));
        }
        pushed[b] += n;
      }
    });
    EXPECT_EQ(ring.total_written(), ref.total_written());
    for (size_t i = 0; i < capacity; ++i) {
      ASSERT_EQ(ring.pair(i), ref.pair(i)) << "ring slot " << i;
    }
    for (size_t b = 0; b < counts.size(); ++b) {
      SCOPED_TRACE("block " + std::to_string(b));
      EXPECT_EQ(calls[b], survivors[b] > 0 ? 1u : 0u);
      EXPECT_GE(pushed[b], survivors[b]);
      EXPECT_LT(pushed[b], survivors[b] + item_pairs);
    }
  }
}

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

TEST_F(OutputRingTest, PublishCutFallsMidItem) {
  // The cut falls 30 pairs into block 0's first 40-pair item: the item
  // is enumerated and its first 30 pairs dropped.
  ExpectPublishMatchesReplay(&device_, {100, 50}, 120, 0, 40);
  // Survivors spanning several items and blocks, with the ring wrapping
  // inside an item and the cut inside block 0's ninth item.
  ExpectPublishMatchesReplay(&device_, {205, 3, 0, 107}, 151, 11, 20);
  // Single-pair items: every overwritten pair is skipped by count.
  ExpectPublishMatchesReplay(&device_, {9, 12, 4}, 10, 0, 1);
}

}  // namespace
}  // namespace gjoin::gpujoin
