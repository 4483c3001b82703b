// Concurrency stress tests: the ThreadPool edge cases and, more
// importantly, the determinism contract of the two-phase launch path —
// every join result, every charged KernelStats counter, and every byte
// of a materialized output ring must be identical whether the simulated
// blocks execute on 1 host worker or interleave across 8. The CI thread
// lane runs this suite under TSan with GJOIN_CPU_THREADS=8; here the
// pools are constructed explicitly so the test is deterministic even on
// a single-CPU machine without the environment override.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "src/data/generator.h"
#include "src/gpujoin/nonpartitioned.h"
#include "src/gpujoin/output_ring.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/gpujoin/radix_partition.h"
#include "src/util/thread_pool.h"

namespace gjoin {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool edge cases
// ---------------------------------------------------------------------------

TEST(ThreadPoolStressTest, WaitWithZeroTasksIsImmediate) {
  util::ThreadPool pool(8);
  pool.Wait();  // Nothing submitted: must not hang or throw.
  pool.Wait();  // And again: Wait with an empty queue stays reusable.
}

TEST(ThreadPoolStressTest, NestedSubmitIsCoveredByWait) {
  util::ThreadPool pool(8);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      ++count;
      // Submission from a worker thread: the new task belongs to the
      // same Wait() epoch as its parent.
      pool.Submit([&] { ++count; });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPoolStressTest, WorkerExceptionRethrownFromWait) {
  util::ThreadPool pool(8);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&, i] {
      if (i == 7) throw std::runtime_error("task 7 failed");
      ++survivors;
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The failure is consumed by Wait; the pool stays usable afterwards.
  pool.Submit([&] { ++survivors; });
  pool.Wait();
  EXPECT_EQ(survivors.load(), 16);
}

TEST(ThreadPoolStressTest, ManySmallTasksAllRun) {
  util::ThreadPool pool(8);
  constexpr int kTasks = 4000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&hits, i] { ++hits[i]; });
  }
  pool.Wait();
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolStressTest, ParallelForRangesWorkerIndexIsDense) {
  util::ThreadPool pool(8);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visited(kN);
  std::atomic<size_t> max_worker{0};
  pool.ParallelForRanges(kN, [&](size_t worker, size_t begin, size_t end) {
    size_t seen = max_worker.load();
    while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
    }
    for (size_t i = begin; i < end; ++i) ++visited[i];
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(visited[i].load(), 1);
  EXPECT_LT(max_worker.load(), pool.num_threads());
}

// ---------------------------------------------------------------------------
// Launch determinism: 1 worker vs 8 workers, bit-identical everything
// ---------------------------------------------------------------------------

/// Asserts two launch profiles charged exactly the same stats.
void ExpectSameProfile(const sim::Device& a, const sim::Device& b) {
  const auto pa = a.profile();
  const auto pb = b.profile();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    SCOPED_TRACE("launch " + std::to_string(i) + " (" + pa[i].name + ")");
    EXPECT_EQ(pa[i].name, pb[i].name);
    const auto& sa = pa[i].stats;
    const auto& sb = pb[i].stats;
    EXPECT_EQ(sa.coalesced_read_bytes, sb.coalesced_read_bytes);
    EXPECT_EQ(sa.coalesced_write_bytes, sb.coalesced_write_bytes);
    EXPECT_EQ(sa.scatter_write_bytes, sb.scatter_write_bytes);
    EXPECT_EQ(sa.random_transactions, sb.random_transactions);
    EXPECT_EQ(sa.random_working_set_bytes, sb.random_working_set_bytes);
    EXPECT_EQ(sa.shared_bytes, sb.shared_bytes);
    EXPECT_EQ(sa.shared_atomics, sb.shared_atomics);
    EXPECT_EQ(sa.device_atomics, sb.device_atomics);
    EXPECT_EQ(sa.total_cycles, sb.total_cycles);
    EXPECT_EQ(sa.max_block_cycles, sb.max_block_cycles);
    EXPECT_EQ(sa.num_blocks, sb.num_blocks);
    EXPECT_DOUBLE_EQ(pa[i].seconds, pb[i].seconds);
  }
}

class LaunchDeterminismTest : public ::testing::Test {
 protected:
  LaunchDeterminismTest()
      : r_(data::MakeReplicated(40000, 2.0, 31)),
        s_(data::MakeZipf(80000, 20000, 0.75, 32, 7)) {}

  data::Relation r_;
  data::Relation s_;
  util::ThreadPool pool1_{1};
  util::ThreadPool pool2_{2};
  util::ThreadPool pool8_{8};
};

TEST_F(LaunchDeterminismTest, PartitionedJoinIdenticalAcrossPoolWidths) {
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {5, 4};
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  auto ref = gpujoin::PartitionedJoinFromHost(&d1, r_, s_, cfg);
  ASSERT_TRUE(ref.ok()) << ref.status();
  // Several repetitions: before the two-phase launch epilogue, failures
  // here were interleaving-dependent and intermittent.
  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
    auto got = gpujoin::PartitionedJoinFromHost(&d8, r_, s_, cfg);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->matches, ref->matches);
    EXPECT_EQ(got->payload_sum, ref->payload_sum);
    EXPECT_DOUBLE_EQ(got->seconds, ref->seconds);
    ExpectSameProfile(d1, d8);
  }
}

TEST_F(LaunchDeterminismTest, OversizedSharedHashAggregateIdentical) {
  // Every co-partition exceeds the 1024-tuple budget (~2500 build tuples
  // each), so the aggregate join runs the block-NL fallback, whose host
  // index is built on the device's pool before the launch.
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4};
  cfg.join.shared_elems = 1024;
  cfg.join.hash_slots = 512;
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  auto ref = gpujoin::PartitionedJoinFromHost(&d1, r_, s_, cfg);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (util::ThreadPool* pool : {&pool2_, &pool8_}) {
    SCOPED_TRACE("pool width " + std::to_string(pool->num_threads()));
    sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), pool};
    auto got = gpujoin::PartitionedJoinFromHost(&dev, r_, s_, cfg);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->matches, ref->matches);
    EXPECT_EQ(got->payload_sum, ref->payload_sum);
    EXPECT_DOUBLE_EQ(got->seconds, ref->seconds);
    ExpectSameProfile(d1, dev);
  }
}

TEST_F(LaunchDeterminismTest, PartitionAtATimeSecondPassIdentical) {
  // The default (bucket-at-a-time) second pass runs in the test above
  // through the GlobalChains ordered plan; this covers the
  // partition-at-a-time assignment, whose deferred segment publishes
  // replay through the same epilogue.
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4, 4};
  cfg.partition.assignment = gpujoin::WorkAssignment::kPartitionAtATime;
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  auto ref = gpujoin::PartitionedJoinFromHost(&d1, r_, s_, cfg);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    sim::Device d8{hw::HardwareSpec::Icde2019Testbed(), &pool8_};
    auto got = gpujoin::PartitionedJoinFromHost(&d8, r_, s_, cfg);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->matches, ref->matches);
    EXPECT_EQ(got->payload_sum, ref->payload_sum);
    EXPECT_DOUBLE_EQ(got->seconds, ref->seconds);
    ExpectSameProfile(d1, d8);
  }
}

/// A partitioned relation's layout as a join reads it: per partition,
/// its tuples and its bucket fills, both in chain order.
struct ChainContents {
  std::vector<std::vector<uint32_t>> keys, pays, fills;
};

ChainContents PartitionAndRead(sim::Device* dev, const data::Relation& rel,
                               const gpujoin::RadixPartitionConfig& cfg) {
  ChainContents out;
  auto input = gpujoin::DeviceRelation::Upload(dev, rel);
  EXPECT_TRUE(input.ok()) << input.status();
  if (!input.ok()) return out;
  auto parted = gpujoin::RadixPartition(dev, *input, cfg);
  EXPECT_TRUE(parted.ok()) << parted.status();
  if (!parted.ok()) return out;
  const gpujoin::BucketChains& chains = parted->chains;
  const uint32_t cap = chains.bucket_capacity();
  const uint32_t parts = chains.num_partitions();
  out.keys.resize(parts);
  out.pays.resize(parts);
  out.fills.resize(parts);
  for (uint32_t p = 0; p < parts; ++p) {
    for (int32_t b = chains.heads()[p]; b != gpujoin::BucketChains::kNull;
         b = chains.next()[b]) {
      const uint32_t fill = chains.fill()[b];
      const size_t base = static_cast<size_t>(b) * cap;
      out.fills[p].push_back(fill);
      out.keys[p].insert(out.keys[p].end(), chains.keys() + base,
                         chains.keys() + base + fill);
      out.pays[p].insert(out.pays[p].end(), chains.payloads() + base,
                         chains.payloads() + base + fill);
    }
  }
  return out;
}

/// With more than one worker, bucket-at-a-time passes record each
/// block's runs, plan their buckets in the ordered epilogue and copy the
/// tuples in parallel after the launch; with one worker they pack
/// directly from the block body. Every width must leave the same tuples
/// in the same chain order, in buckets of the same fills, with the same
/// charges — stats alone would not notice two runs swapped in a chain.
void ExpectChainsIdenticalAcrossWidths(
    const data::Relation& rel, const gpujoin::RadixPartitionConfig& cfg,
    std::initializer_list<util::ThreadPool*> pools) {
  sim::Device ref_dev{hw::HardwareSpec::Icde2019Testbed(), *pools.begin()};
  ASSERT_EQ(ref_dev.functional_parallelism(), 1u);  // the direct path
  const ChainContents ref = PartitionAndRead(&ref_dev, rel, cfg);
  size_t tuples = 0;
  for (const auto& keys : ref.keys) tuples += keys.size();
  ASSERT_EQ(tuples, rel.size());
  for (auto it = pools.begin() + 1; it != pools.end(); ++it) {
    SCOPED_TRACE("pool width " + std::to_string((*it)->num_threads()));
    sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), *it};
    const ChainContents got = PartitionAndRead(&dev, rel, cfg);
    ASSERT_EQ(got.keys.size(), ref.keys.size());
    for (size_t p = 0; p < ref.keys.size(); ++p) {
      ASSERT_EQ(got.fills[p], ref.fills[p]) << "partition " << p;
      ASSERT_EQ(got.keys[p], ref.keys[p]) << "partition " << p;
      ASSERT_EQ(got.pays[p], ref.pays[p]) << "partition " << p;
    }
    ExpectSameProfile(ref_dev, dev);
  }
}

TEST_F(LaunchDeterminismTest, ChainContentsIdenticalWithSubLineRuns) {
  // A streaming-chunk shape: 64K tuples over 2^10 partitions leaves each
  // block a few tuples per child in pass 2, so nearly every recorded run
  // is shorter than one 64-byte line.
  const data::Relation rel = data::MakeUniformProbe(1 << 16, 1 << 16, 41);
  gpujoin::RadixPartitionConfig cfg;
  cfg.pass_bits = {3, 7};
  ExpectChainsIdenticalAcrossWidths(rel, cfg, {&pool1_, &pool2_, &pool8_});
}

TEST_F(LaunchDeterminismTest, ChainContentsIdenticalWithZipfRuns) {
  // Popular Zipf keys crowd a few children; with small buckets their
  // long runs straddle bucket boundaries and cover whole lines.
  gpujoin::RadixPartitionConfig cfg;
  cfg.pass_bits = {3, 4};
  cfg.bucket_capacity = 64;
  sim::Device probe_dev{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  const ChainContents layout = PartitionAndRead(&probe_dev, s_, cfg);
  size_t longest = 0;
  for (const auto& fills : layout.fills) {
    longest = std::max(longest, fills.size());
  }
  ASSERT_GE(longest, 8u);  // some child spans many buckets
  ExpectChainsIdenticalAcrossWidths(s_, cfg, {&pool1_, &pool2_, &pool8_});
}

TEST_F(LaunchDeterminismTest, MaterializedRingBytesIdenticalEvenWrapped) {
  // A ring smaller than the result set forces wrap-around overwrites, so
  // even the *order* of ring claims is observable. Publishing the
  // surviving pairs after the launch, in block order, must reproduce the
  // single-worker ring word for word at every pool width.
  const auto run = [&](sim::Device* dev, std::vector<uint64_t>* ring_bytes) {
    gpujoin::RadixPartitionConfig pc;
    pc.pass_bits = {4};
    auto pr = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, r_)).ValueOrDie(),
        pc);
    ASSERT_TRUE(pr.ok()) << pr.status();
    auto ps = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, s_)).ValueOrDie(),
        pc);
    ASSERT_TRUE(ps.ok()) << ps.status();
    auto ring = gpujoin::OutputRing::Allocate(&dev->memory(), 4096);
    ASSERT_TRUE(ring.ok()) << ring.status();
    gpujoin::OutputRing out = std::move(ring).ValueOrDie();
    gpujoin::CoPartitionJoinConfig jcfg;
    jcfg.output = gpujoin::OutputMode::kMaterialize;
    auto stats = gpujoin::JoinCoPartitions(dev, *pr, *ps, jcfg, &out);
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_TRUE(out.wrapped());  // the interesting case
    ring_bytes->resize(out.capacity());
    for (size_t i = 0; i < out.capacity(); ++i) (*ring_bytes)[i] = out.pair(i);
  };

  std::vector<uint64_t> ref;
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  run(&d1, &ref);
  for (util::ThreadPool* pool : {&pool1_, &pool2_, &pool8_, &pool8_}) {
    SCOPED_TRACE("pool width " + std::to_string(pool->num_threads()));
    std::vector<uint64_t> got;
    sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), pool};
    run(&dev, &got);
    EXPECT_EQ(got, ref);
    ExpectSameProfile(d1, dev);
  }
}

TEST_F(LaunchDeterminismTest, NonPartitionedVariantsIdentical) {
  for (const auto variant : {gpujoin::NonPartitionedVariant::kChaining,
                             gpujoin::NonPartitionedVariant::kPerfectHash}) {
    SCOPED_TRACE(static_cast<int>(variant));
    const data::Relation build =
        variant == gpujoin::NonPartitionedVariant::kPerfectHash
            ? data::MakeUniqueUniform(30000, 33)  // perfect hash: unique keys
            : r_;
    gpujoin::NonPartitionedJoinConfig cfg;
    cfg.variant = variant;
    cfg.output = gpujoin::OutputMode::kMaterialize;

    const auto run = [&](sim::Device* dev, gpujoin::JoinStats* stats_out,
                         std::vector<uint64_t>* ring_bytes) {
      auto ub = gpujoin::DeviceRelation::Upload(dev, build);
      auto us = gpujoin::DeviceRelation::Upload(dev, s_);
      ASSERT_TRUE(ub.ok() && us.ok());
      // Far smaller than the result set: the ring wraps here too.
      auto ring = gpujoin::OutputRing::Allocate(&dev->memory(), 2048);
      ASSERT_TRUE(ring.ok()) << ring.status();
      gpujoin::OutputRing out = std::move(ring).ValueOrDie();
      auto stats = gpujoin::NonPartitionedJoin(dev, *ub, *us, cfg, &out);
      ASSERT_TRUE(stats.ok()) << stats.status();
      ASSERT_TRUE(out.wrapped());
      *stats_out = *stats;
      ring_bytes->resize(out.capacity());
      for (size_t i = 0; i < out.capacity(); ++i) {
        (*ring_bytes)[i] = out.pair(i);
      }
    };

    sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
    gpujoin::JoinStats ref;
    std::vector<uint64_t> ref_ring;
    run(&d1, &ref, &ref_ring);
    for (util::ThreadPool* pool : {&pool1_, &pool2_, &pool8_, &pool8_}) {
      SCOPED_TRACE("pool width " + std::to_string(pool->num_threads()));
      sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), pool};
      gpujoin::JoinStats got;
      std::vector<uint64_t> got_ring;
      run(&dev, &got, &got_ring);
      EXPECT_EQ(got.matches, ref.matches);
      EXPECT_EQ(got.payload_sum, ref.payload_sum);
      EXPECT_DOUBLE_EQ(got.seconds, ref.seconds);
      EXPECT_EQ(got_ring, ref_ring);
      ExpectSameProfile(d1, dev);
    }
  }
}

}  // namespace
}  // namespace gjoin
