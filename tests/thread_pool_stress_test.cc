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
#include <string>
#include <vector>

#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/nonpartitioned.h"
#include "src/gpujoin/output_ring.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/gpujoin/radix_partition.h"
#include "src/util/bits.h"
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
  // tables are built and probed on the device's pool before the launch.
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

TEST_F(LaunchDeterminismTest, OversizedSkewedSharedHashAggregateIdentical) {
  // Zipf(1.0) on both sides, same popular keys: the hot co-partitions
  // hold many 256-tuple chunks, their hottest slots hold build tuples in
  // most of those chunks, and their long S chains split over many
  // one-bucket work items, which land on different host workers — each
  // building the partition's chunk-resolved table itself before the
  // launch.
  const data::Relation r = data::MakeZipf(60000, 6000, 1.0, 33, 7);
  const data::Relation s = data::MakeZipf(120000, 6000, 1.0, 34, 7);
  gpujoin::RadixPartitionConfig pc;
  pc.pass_bits = {3};
  pc.bucket_capacity = 512;
  gpujoin::CoPartitionJoinConfig cfg;
  cfg.shared_elems = 256;
  cfg.hash_slots = 128;
  cfg.max_probe_buckets_per_item = 1;
  cfg.probe_extra_payload_bytes = 16;
  const auto run = [&](sim::Device* dev, bool check_shape,
                       gpujoin::CoPartitionJoinResult* result) {
    auto rp = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, r)).ValueOrDie(),
        pc);
    ASSERT_TRUE(rp.ok()) << rp.status();
    auto sp = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, s)).ValueOrDie(),
        pc);
    ASSERT_TRUE(sp.ok()) << sp.status();
    if (check_shape) {
      // Guard the skew: a partition spans many chunks, and its S chain
      // many work items.
      uint64_t most_r = 0;
      uint32_t most_s_buckets = 0;
      for (uint32_t p = 0; p < rp->chains.num_partitions(); ++p) {
        most_r = std::max<uint64_t>(most_r, rp->chains.PartitionSize(p));
        uint32_t buckets = 0;
        for (int32_t b = sp->chains.heads()[p];
             b != gpujoin::BucketChains::kNull; b = sp->chains.next()[b]) {
          ++buckets;
        }
        most_s_buckets = std::max(most_s_buckets, buckets);
      }
      EXPECT_GE(most_r, 16u * cfg.shared_elems);
      EXPECT_GE(most_s_buckets, 16u);
    }
    auto joined = gpujoin::JoinCoPartitions(dev, *rp, *sp, cfg);
    ASSERT_TRUE(joined.ok()) << joined.status();
    *result = *joined;
  };
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  gpujoin::CoPartitionJoinResult ref;
  run(&d1, /*check_shape=*/true, &ref);
  const data::OracleResult oracle = data::JoinOracle(r, s);
  EXPECT_EQ(ref.matches, oracle.matches);
  EXPECT_EQ(ref.payload_sum, oracle.payload_sum);
  for (util::ThreadPool* pool : {&pool2_, &pool8_, &pool8_}) {
    SCOPED_TRACE("pool width " + std::to_string(pool->num_threads()));
    sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), pool};
    gpujoin::CoPartitionJoinResult got;
    run(&dev, /*check_shape=*/false, &got);
    EXPECT_EQ(got.matches, ref.matches);
    EXPECT_EQ(got.payload_sum, ref.payload_sum);
    EXPECT_DOUBLE_EQ(got.seconds, ref.seconds);
    ExpectSameProfile(d1, dev);
  }
}

TEST_F(LaunchDeterminismTest, AggregatedSharedHashProbeIdentical) {
  // Every co-partition fits (about 1250 build tuples against a
  // 2048-tuple budget), so the aggregate join's work items probe
  // key-aggregated tables, each built in its host worker's scratch.
  gpujoin::RadixPartitionConfig pc;
  pc.pass_bits = {5};
  gpujoin::CoPartitionJoinConfig cfg;
  cfg.shared_elems = 2048;
  cfg.hash_slots = 256;
  cfg.build_extra_payload_bytes = 8;
  const auto run = [&](sim::Device* dev,
                       gpujoin::CoPartitionJoinResult* result) {
    auto rp = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, r_)).ValueOrDie(),
        pc);
    ASSERT_TRUE(rp.ok()) << rp.status();
    auto sp = gpujoin::RadixPartition(
        dev, std::move(gpujoin::DeviceRelation::Upload(dev, s_)).ValueOrDie(),
        pc);
    ASSERT_TRUE(sp.ok()) << sp.status();
    auto joined = gpujoin::JoinCoPartitions(dev, *rp, *sp, cfg);
    ASSERT_TRUE(joined.ok()) << joined.status();
    *result = *joined;
  };
  sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
  gpujoin::CoPartitionJoinResult ref;
  run(&d1, &ref);
  for (util::ThreadPool* pool : {&pool1_, &pool2_, &pool8_, &pool8_}) {
    SCOPED_TRACE("pool width " + std::to_string(pool->num_threads()));
    sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), pool};
    gpujoin::CoPartitionJoinResult got;
    run(&dev, &got);
    EXPECT_EQ(got.matches, ref.matches);
    EXPECT_EQ(got.payload_sum, ref.payload_sum);
    EXPECT_DOUBLE_EQ(got.seconds, ref.seconds);
    ExpectSameProfile(d1, dev);
  }
}

TEST_F(LaunchDeterminismTest, PartitionAtATimeSecondPassIdentical) {
  // The default (bucket-at-a-time) second pass runs in the test above
  // as a per-parent sweep; this covers the partition-at-a-time
  // assignment, whose recorded segments are spliced after the launch in
  // ascending block id.
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
/// its tuples and its bucket fills, both in chain order. `stray` counts
/// buckets off the free list that no chain holds (a producer's stash not
/// handed back).
struct ChainContents {
  std::vector<std::vector<uint32_t>> keys, pays, fills;
  uint32_t bucket_capacity = 0;
  int64_t stray = 0;
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
  const gpujoin::BucketPool& pool = *chains.pool();
  out.bucket_capacity = cap;
  out.stray = static_cast<int64_t>(pool.num_buckets()) - pool.free_buckets();
  out.keys.resize(parts);
  out.pays.resize(parts);
  out.fills.resize(parts);
  for (uint32_t p = 0; p < parts; ++p) {
    for (int32_t b = chains.heads()[p]; b != gpujoin::BucketChains::kNull;
         b = chains.next()[b]) {
      const uint32_t fill = chains.fill()[b];
      const size_t base = static_cast<size_t>(b) * cap;
      out.fills[p].push_back(fill);
      --out.stray;
      out.keys[p].insert(out.keys[p].end(), chains.keys() + base,
                         chains.keys() + base + fill);
      out.pays[p].insert(out.pays[p].end(), chains.payloads() + base,
                         chains.payloads() + base + fill);
    }
  }
  return out;
}

/// Bucket-at-a-time passes sweep whole parents on the pool's workers, in
/// whatever order the workers claim them. Every width must leave the
/// same tuples in the same chain order, in buckets of the same fills,
/// with the same charges — stats alone would not notice two runs
/// swapped in a chain — and every bucket not in a chain back on the free
/// list.
void ExpectChainsIdenticalAcrossWidths(
    const data::Relation& rel, const gpujoin::RadixPartitionConfig& cfg,
    std::initializer_list<util::ThreadPool*> pools) {
  sim::Device ref_dev{hw::HardwareSpec::Icde2019Testbed(), *pools.begin()};
  ASSERT_EQ(ref_dev.functional_parallelism(), 1u);
  const ChainContents ref = PartitionAndRead(&ref_dev, rel, cfg);
  size_t tuples = 0;
  for (const auto& keys : ref.keys) tuples += keys.size();
  ASSERT_EQ(tuples, rel.size());
  EXPECT_EQ(ref.stray, 0);
  for (auto it = pools.begin() + 1; it != pools.end(); ++it) {
    SCOPED_TRACE("pool width " + std::to_string((*it)->num_threads()));
    sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), *it};
    const ChainContents got = PartitionAndRead(&dev, rel, cfg);
    EXPECT_EQ(got.stray, 0);
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

TEST_F(LaunchDeterminismTest, ChainContentsIdenticalWithHotParent) {
  // Zipf(1.2) puts about a fifth of the tuples in one pass-1 parent, so
  // one worker sweeps that parent while the others share the rest.
  const data::Relation rel = data::MakeZipf(100000, 50000, 1.2, 43, 9);
  std::vector<size_t> parents(32);
  for (uint32_t key : rel.keys) ++parents[util::RadixOf(key, 0, 5)];
  ASSERT_GE(*std::max_element(parents.begin(), parents.end()),
            4 * rel.size() / parents.size());
  gpujoin::RadixPartitionConfig cfg;
  cfg.pass_bits = {5, 5};
  ExpectChainsIdenticalAcrossWidths(rel, cfg, {&pool1_, &pool2_, &pool8_});
}

TEST_F(LaunchDeterminismTest, BatchedDrawsLeaveNoBucketStrayAtAnyWidth) {
  // Producers draw buckets in batches into private stashes and hand the
  // leftovers back. small_joins' probe geometry (256K tuples, {8, 7},
  // 32-tuple buckets) draws tens of thousands; one-bit passes leave the
  // pool the least room beyond the stashes' in-flight slack.
  const data::Relation small_joins =
      data::MakeUniformProbe(256 * 1024, 64 * 1024, 51);
  const data::Relation one_bit = data::MakeUniformProbe(20000, 20000, 52);
  const data::Relation tiny = data::MakeUniformProbe(100, 100, 53);
  {
    sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
    gpujoin::RadixPartitionConfig cfg;
    cfg.pass_bits = {8, 7};
    ASSERT_EQ(PartitionAndRead(&dev, small_joins, cfg).bucket_capacity, 32u);
  }
  struct Case {
    const data::Relation* rel;
    std::vector<int> bits;
  };
  const Case cases[] = {{&small_joins, {8, 7}}, {&one_bit, {1}},
                        {&one_bit, {1, 1}},     {&tiny, {1}},
                        {&tiny, {1, 1}}};
  for (const gpujoin::WorkAssignment assignment :
       {gpujoin::WorkAssignment::kBucketAtATime,
        gpujoin::WorkAssignment::kPartitionAtATime}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::to_string(c.rel->size()) + " tuples, " +
                   std::to_string(c.bits.size()) + " passes, " +
                   (assignment == gpujoin::WorkAssignment::kBucketAtATime
                        ? "bucket at a time"
                        : "partition at a time"));
      gpujoin::RadixPartitionConfig cfg;
      cfg.pass_bits = c.bits;
      cfg.assignment = assignment;
      ExpectChainsIdenticalAcrossWidths(*c.rel, cfg,
                                        {&pool1_, &pool2_, &pool8_});
    }
  }
}

TEST_F(LaunchDeterminismTest, MaterializedRingBytesIdenticalEvenWrapped) {
  // A ring smaller than the result set forces wrap-around overwrites, so
  // even the *order* of ring claims is observable. Claiming every block's
  // count in block order and enumerating the surviving pairs after the
  // launch must reproduce the single-worker ring word for word at every
  // pool width, for every co-partition kernel. A 1024-tuple shared
  // budget makes the build co-partitions (about 2,500 tuples) oversized.
  struct Kernel {
    const char* name;
    gpujoin::ProbeAlgorithm algo;
    uint32_t shared_elems;
  };
  const Kernel kernels[] = {
      {"shared hash", gpujoin::ProbeAlgorithm::kSharedHash, 4096},
      {"shared hash, oversized", gpujoin::ProbeAlgorithm::kSharedHash, 1024},
      {"device hash", gpujoin::ProbeAlgorithm::kDeviceHash, 4096},
      {"nested loop", gpujoin::ProbeAlgorithm::kNestedLoop, 4096},
      {"nested loop, oversized", gpujoin::ProbeAlgorithm::kNestedLoop, 1024},
  };
  for (const Kernel& kernel : kernels) {
    SCOPED_TRACE(kernel.name);
    const auto run = [&](sim::Device* dev,
                         std::vector<uint64_t>* ring_bytes) {
      gpujoin::RadixPartitionConfig pc;
      pc.pass_bits = {4};
      auto pr = gpujoin::RadixPartition(
          dev,
          std::move(gpujoin::DeviceRelation::Upload(dev, r_)).ValueOrDie(),
          pc);
      ASSERT_TRUE(pr.ok()) << pr.status();
      auto ps = gpujoin::RadixPartition(
          dev,
          std::move(gpujoin::DeviceRelation::Upload(dev, s_)).ValueOrDie(),
          pc);
      ASSERT_TRUE(ps.ok()) << ps.status();
      auto ring = gpujoin::OutputRing::Allocate(&dev->memory(), 4096);
      ASSERT_TRUE(ring.ok()) << ring.status();
      gpujoin::OutputRing out = std::move(ring).ValueOrDie();
      gpujoin::CoPartitionJoinConfig jcfg;
      jcfg.algo = kernel.algo;
      jcfg.output = gpujoin::OutputMode::kMaterialize;
      jcfg.shared_elems = kernel.shared_elems;
      auto stats = gpujoin::JoinCoPartitions(dev, *pr, *ps, jcfg, &out);
      ASSERT_TRUE(stats.ok()) << stats.status();
      ASSERT_TRUE(out.wrapped());  // the interesting case
      ring_bytes->resize(out.capacity());
      for (size_t i = 0; i < out.capacity(); ++i) {
        (*ring_bytes)[i] = out.pair(i);
      }
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
}

TEST_F(LaunchDeterminismTest, StreamedChunksShareBuildTablesIdentically) {
  // Streamed chunks join against one build through a shared
  // BuildTableCache: the first chunk to walk a build co-partition links
  // its table, the later chunks probe it, and each materializing chunk's
  // survivors are enumerated from it. Every chunk's result, charges and
  // ring words must equal a join without the cache, on one worker, at
  // every pool width — with rings that wrap and rings that do not.
  struct Kernel {
    const char* name;
    gpujoin::ProbeAlgorithm algo;
    uint32_t shared_elems;
  };
  const Kernel kernels[] = {
      {"shared hash", gpujoin::ProbeAlgorithm::kSharedHash, 4096},
      {"shared hash, oversized", gpujoin::ProbeAlgorithm::kSharedHash, 1024},
      {"device hash", gpujoin::ProbeAlgorithm::kDeviceHash, 4096},
      {"nested loop", gpujoin::ProbeAlgorithm::kNestedLoop, 4096},
  };
  constexpr size_t kChunks = 4;
  for (const Kernel& kernel : kernels) {
    for (const size_t capacity : {size_t{4096}, size_t{1} << 17}) {
      SCOPED_TRACE(std::string(kernel.name) + ", ring " +
                   std::to_string(capacity));
      // Per chunk: matches, checksum, then every ring word.
      const auto run = [&](sim::Device* dev, bool cached,
                           std::vector<uint64_t>* out) {
        gpujoin::RadixPartitionConfig pc;
        pc.pass_bits = {4};
        auto pr = gpujoin::RadixPartition(
            dev,
            std::move(gpujoin::DeviceRelation::Upload(dev, r_)).ValueOrDie(),
            pc);
        ASSERT_TRUE(pr.ok()) << pr.status();
        gpujoin::CoPartitionJoinConfig jcfg;
        jcfg.algo = kernel.algo;
        jcfg.output = gpujoin::OutputMode::kMaterialize;
        jcfg.shared_elems = kernel.shared_elems;
        // One work item per co-partition: without the cache no build
        // co-partition is memoized, so the two runs take different paths.
        jcfg.max_probe_buckets_per_item = 1024;
        gpujoin::BuildTableCache tables(*pr, jcfg);
        const size_t chunk = s_.size() / kChunks;
        for (size_t c = 0; c < kChunks; ++c) {
          const data::RelationView view =
              data::RelationView::Slice(s_, c * chunk, (c + 1) * chunk);
          auto ps = gpujoin::RadixPartition(
              dev,
              std::move(gpujoin::DeviceRelation::Upload(dev, view))
                  .ValueOrDie(),
              pc);
          ASSERT_TRUE(ps.ok()) << ps.status();
          auto ring = gpujoin::OutputRing::Allocate(&dev->memory(), capacity);
          ASSERT_TRUE(ring.ok()) << ring.status();
          gpujoin::OutputRing ring_out = std::move(ring).ValueOrDie();
          auto st = gpujoin::JoinCoPartitions(dev, *pr, *ps, jcfg, &ring_out,
                                              cached ? &tables : nullptr);
          ASSERT_TRUE(st.ok()) << st.status();
          EXPECT_EQ(ring_out.wrapped(), capacity == 4096);
          out->push_back(st->matches);
          out->push_back(st->payload_sum);
          for (size_t i = 0; i < ring_out.capacity(); ++i) {
            out->push_back(ring_out.pair(i));
          }
        }
        // The oversized build co-partitions are never cached.
        if (cached) {
          EXPECT_EQ(tables.cached_partitions() > 0,
                    kernel.shared_elems == 4096);
        }
      };

      std::vector<uint64_t> ref;
      sim::Device d1{hw::HardwareSpec::Icde2019Testbed(), &pool1_};
      run(&d1, false, &ref);
      for (util::ThreadPool* pool : {&pool1_, &pool2_, &pool8_, &pool8_}) {
        SCOPED_TRACE("pool width " + std::to_string(pool->num_threads()));
        std::vector<uint64_t> got;
        sim::Device dev{hw::HardwareSpec::Icde2019Testbed(), pool};
        run(&dev, true, &got);
        EXPECT_EQ(got, ref);
        ExpectSameProfile(d1, dev);
      }
    }
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
