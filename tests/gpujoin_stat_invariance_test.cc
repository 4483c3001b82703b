// Stat-invariance regression test for the batch-granularity simulator
// fast path.
//
// The batched hot paths (grouped radix partitioning, analytic
// nested-loop tile charging, bulk stage flushes) must charge *exactly*
// the KernelStats the tuple-at-a-time reference implementation charged —
// every simulated-seconds number in the paper-figure benches derives
// from them. The golden values below were captured from the pre-batching
// implementation (PR 1 tree) with the capture harness in this file's
// history: mid-size partitioned joins under all three probe algorithms,
// a partition-at-a-time second pass, and the out-of-GPU streaming probe.
// Any drift in a counter, match count, checksum or modeled time fails
// the test.

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "src/cpu/cpu_joins.h"
#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/nonpartitioned.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/gpujoin/radix_partition.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/util/probe_pipeline.h"
#include "src/util/thread_pool.h"

namespace gjoin {
namespace {

/// One expected launch profile entry: name + every KernelStats counter +
/// modeled seconds.
struct GoldenLaunch {
  const char* name;
  uint64_t coalesced_read_bytes;
  uint64_t coalesced_write_bytes;
  uint64_t scatter_write_bytes;
  uint64_t random_transactions;
  uint64_t random_working_set_bytes;
  uint64_t shared_bytes;
  uint64_t shared_atomics;
  uint64_t device_atomics;
  uint64_t total_cycles;
  uint64_t max_block_cycles;
  uint64_t num_blocks;
  double seconds;
};

void ExpectProfileMatches(const sim::Device& device,
                          const std::vector<GoldenLaunch>& golden) {
  const auto profile = device.profile();
  ASSERT_EQ(profile.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("launch " + std::to_string(i) + " (" + profile[i].name +
                 ")");
    const auto& s = profile[i].stats;
    const auto& g = golden[i];
    EXPECT_EQ(profile[i].name, g.name);
    EXPECT_EQ(s.coalesced_read_bytes, g.coalesced_read_bytes);
    EXPECT_EQ(s.coalesced_write_bytes, g.coalesced_write_bytes);
    EXPECT_EQ(s.scatter_write_bytes, g.scatter_write_bytes);
    EXPECT_EQ(s.random_transactions, g.random_transactions);
    EXPECT_EQ(s.random_working_set_bytes, g.random_working_set_bytes);
    EXPECT_EQ(s.shared_bytes, g.shared_bytes);
    EXPECT_EQ(s.shared_atomics, g.shared_atomics);
    EXPECT_EQ(s.device_atomics, g.device_atomics);
    EXPECT_EQ(s.total_cycles, g.total_cycles);
    EXPECT_EQ(s.max_block_cycles, g.max_block_cycles);
    EXPECT_EQ(s.num_blocks, g.num_blocks);
    EXPECT_DOUBLE_EQ(profile[i].seconds, g.seconds);
  }
}

class StatInvarianceTest : public ::testing::Test {
 protected:
  StatInvarianceTest()
      : r_(data::MakeUniqueUniform(100000, 21)),
        s_(data::MakeUniformProbe(200000, 100000, 22)) {}

  data::Relation r_;
  data::Relation s_;
};

TEST_F(StatInvarianceTest, SharedHashJoinAggregate) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {6, 5};
  auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00012578700876018098);
  EXPECT_DOUBLE_EQ(st->partition_s, 0.00010094888376018099);
  EXPECT_DOUBLE_EQ(st->join_s, 2.4838125e-05);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1651200, 100000,
        5120, 197680, 4942, 40, 1.4496898793363498e-05},
       {"radix_partition_pass2", 800000, 0, 800000, 60612, 800000, 1600000,
        100000, 62660, 201554, 5043, 40, 2.5555766793363497e-05},
       {"radix_partition_pass1", 1600000, 0, 1600000, 0, 0, 3251200, 200000,
        5120, 395200, 9880, 40, 2.3340997586726994e-05},
       {"radix_partition_pass2", 1600000, 0, 1600000, 77307, 1600000,
        3200000, 200000, 79355, 398993, 9981, 40,
        3.7555220586726994e-05},
       {"join_copartitions_hash", 2424576, 0, 0, 4096, 1600000, 11437592,
        100000, 640, 1249080, 31741, 40, 2.4838125e-05}});
}

TEST_F(StatInvarianceTest, NestedLoopJoinAggregate) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {6, 4};
  cfg.join.algo = gpujoin::ProbeAlgorithm::kNestedLoop;
  auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00011372513476018097);
  EXPECT_DOUBLE_EQ(st->partition_s, 9.0617009760180975e-05);
  EXPECT_DOUBLE_EQ(st->join_s, 2.3108124999999998e-05);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1651200, 100000,
        5120, 197680, 4942, 40, 1.4496898793363498e-05},
       {"radix_partition_pass2", 800000, 0, 800000, 40033, 800000, 1600000,
        100000, 42081, 198994, 4979, 40, 2.1666335793363498e-05},
       {"radix_partition_pass1", 1600000, 0, 1600000, 0, 0, 3251200, 200000,
        5120, 395200, 9880, 40, 2.3340997586726994e-05},
       {"radix_partition_pass2", 1600000, 0, 1600000, 43220, 1600000,
        3200000, 200000, 45268, 396433, 9917, 40,
        3.1112777586726992e-05},
       {"join_copartitions_nl", 2412288, 0, 0, 4096, 1600000, 4253952, 0,
        640, 1111451, 28973, 40, 2.3108124999999998e-05}});
}

TEST_F(StatInvarianceTest, DeviceHashJoinMaterialize) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {5, 4};
  cfg.join.algo = gpujoin::ProbeAlgorithm::kDeviceHash;
  cfg.join.output = gpujoin::OutputMode::kMaterialize;
  auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00018746804893966817);
  EXPECT_DOUBLE_EQ(st->partition_s, 8.2260664760180986e-05);
  EXPECT_DOUBLE_EQ(st->join_s, 0.00010520738417948717);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1625600, 100000,
        2560, 197600, 4940, 40, 1.4170498793363497e-05},
       {"radix_partition_pass2", 800000, 0, 800000, 21613, 800000, 1600000,
        100000, 22637, 198226, 4959, 40, 1.8056955793363497e-05},
       {"radix_partition_pass1", 1600000, 0, 1600000, 0, 0, 3225600, 200000,
        2560, 395120, 9878, 40, 2.3014597586726997e-05},
       {"radix_partition_pass2", 1600000, 0, 1600000, 22235, 1600000,
        3200000, 200000, 23259, 395708, 9898, 40,
        2.7018612586726995e-05},
       {"join_copartitions_hash", 2406144, 6594304, 0, 742848, 1600000,
        3200000, 200000, 101445, 328368, 8380, 40,
        0.00010520738417948717}});
}

TEST_F(StatInvarianceTest, PartitionAtATimeSecondPass) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::RadixPartitionConfig cfg;
  cfg.pass_bits = {6, 5};
  cfg.assignment = gpujoin::WorkAssignment::kPartitionAtATime;
  auto dev = gpujoin::DeviceRelation::Upload(&device, r_);
  ASSERT_TRUE(dev.ok());
  auto parted =
      gpujoin::RadixPartition(&device, *dev, cfg);
  ASSERT_TRUE(parted.ok()) << parted.status();
  EXPECT_EQ(parted->tuples, 100000u);
  EXPECT_DOUBLE_EQ(parted->seconds, 2.9347077586726996e-05);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1651200, 100000,
        5120, 197680, 4942, 40, 1.4496898793363498e-05},
       {"radix_partition_pass2", 800000, 0, 800000, 2560, 800000, 1640960,
        100000, 6656, 196626, 6150, 40, 1.4850178793363498e-05}});
}

TEST_F(StatInvarianceTest, StreamingProbeAggregate) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  outofgpu::StreamingProbeConfig cfg;
  cfg.chunk_tuples = 60000;
  cfg.join.partition.pass_bits = {6, 5};
  auto st = outofgpu::StreamingProbeJoin(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00032944916982386048);
  EXPECT_DOUBLE_EQ(st->partition_s, 0.00014845304476018099);
  EXPECT_DOUBLE_EQ(st->join_s, 9.6983750000000001e-05);
  EXPECT_DOUBLE_EQ(st->transfer_s, 0.00024512195121951217);
}

// ---- Block-nested-loop fallback ----
// Build partitions larger than shared_elems are joined chunk by chunk
// (Section III-B). The goldens below were captured before the host
// executed that fallback through a slot-sorted index, so they pin that
// the index leaves every charge, match and checksum where the per-chunk
// rescans put them.

/// A Zipf build joined with a 1024-tuple shared-memory budget: 15 of the
/// 64 co-partitions are oversized (up to 6 chunks), 4 of them probed by
/// a single work item and 11 by several; the other 49 fit one chunk.
util::Result<gpujoin::CoPartitionJoinResult> RunOversizedSharedHashJoin(
    sim::Device* device, int pipeline_depth) {
  const data::Relation r = data::MakeZipf(60000, 100000, 1.0, 51);
  const data::Relation s = data::MakeZipf(100000, 100000, 1.0, 52, 9);
  gpujoin::RadixPartitionConfig pc;
  pc.pass_bits = {6};
  pc.num_blocks = 2;  // few blocks -> short S chains -> one-item partitions
  pc.bucket_capacity = 256;
  GJOIN_ASSIGN_OR_RETURN(gpujoin::DeviceRelation rd,
                         gpujoin::DeviceRelation::Upload(device, r));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::DeviceRelation sd,
                         gpujoin::DeviceRelation::Upload(device, s));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::PartitionedRelation rp,
                         gpujoin::RadixPartition(device, rd, pc));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::PartitionedRelation sp,
                         gpujoin::RadixPartition(device, sd, pc));
  gpujoin::CoPartitionJoinConfig cfg;
  cfg.shared_elems = 1024;
  cfg.hash_slots = 512;
  cfg.max_probe_buckets_per_item = 4;
  cfg.key_bits = 17;
  // Per-match gathers make each (chunk, S bucket)'s match count visible
  // in random_transactions, not just the total.
  cfg.build_extra_payload_bytes = 8;
  cfg.probe_pipeline_depth = pipeline_depth;

  // Guard the workload's shape: both kinds of oversized partition occur.
  int single_item = 0, multi_item = 0;
  for (uint32_t p = 0; p < rp.chains.num_partitions(); ++p) {
    if (rp.chains.PartitionSize(p) <= cfg.shared_elems) continue;
    uint32_t buckets = 0;
    for (int32_t b = sp.chains.heads()[p]; b != gpujoin::BucketChains::kNull;
         b = sp.chains.next()[b]) {
      ++buckets;
    }
    ++(buckets <= cfg.max_probe_buckets_per_item ? single_item : multi_item);
  }
  EXPECT_EQ(single_item, 4);
  EXPECT_EQ(multi_item, 11);
  return gpujoin::JoinCoPartitions(device, rp, sp, cfg);
}

TEST_F(StatInvarianceTest, OversizedSharedHashAggregate) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  auto st = RunOversizedSharedHashJoin(&device, 0);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 73790u);
  EXPECT_EQ(st->payload_sum, 5957537450ull);
  EXPECT_DOUBLE_EQ(st->seconds, 2.5623703157051281e-05);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 480000, 0, 480000, 0, 0, 962560, 60000, 440,
        118510, 59255, 2, 4.2034374999999997e-05},
       {"radix_partition_pass1", 800000, 0, 800000, 0, 0, 1602560, 100000,
        581, 197510, 98755, 2, 6.6721875000000001e-05},
       {"join_copartitions_hash", 2059556, 0, 0, 149145, 800000, 3633300,
        117675, 640, 130616, 6716, 40, 2.5623703157051281e-05}});
}

TEST_F(StatInvarianceTest, CoProcessPlanOversizedWorkingSets) {
  // Working sets of five CPU partitions, each GPU co-partition merging
  // them: ~7800 build tuples against the default 4096-tuple budget, as
  // in the paper's co-processing configuration. The last set holds one
  // CPU partition and fits.
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  outofgpu::CoProcessConfig cfg;
  cfg.join.partition.pass_bits = {2};
  cfg.packing.budget_bytes = 250000;
  auto plan = outofgpu::PlanCoProcessJoin(&device, r_, s_, cfg);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->total_input_bytes, 2400000u);
  const outofgpu::CoProcessPlan::WorkingSetRun golden[] = {
      {62611, 9377033565ull, 3.6353581318438911e-05, 1.7970821749999999e-05,
       1.8382759568438912e-05, 750888, 0},
      {62503, 9383460892ull, 3.6262826614819006e-05, 1.7889618673076922e-05,
       1.8373207941742081e-05, 750024, 1},
      {62562, 9390770919ull, 3.6268331184389136e-05, 1.788990522435897e-05,
       1.8378425960030166e-05, 750496, 2},
      {12324, 1855090891ull, 1.8920011262443437e-05, 7.1957083525641013e-06,
       1.1724302909879335e-05, 148592, 3}};
  ASSERT_EQ(plan->runs.size(), std::size(golden));
  for (size_t i = 0; i < plan->runs.size(); ++i) {
    SCOPED_TRACE("working set run " + std::to_string(i));
    const auto& got = plan->runs[i];
    EXPECT_EQ(got.matches, golden[i].matches);
    EXPECT_EQ(got.payload_sum, golden[i].payload_sum);
    EXPECT_DOUBLE_EQ(got.gpu_seconds, golden[i].gpu_seconds);
    EXPECT_DOUBLE_EQ(got.join_s, golden[i].join_s);
    EXPECT_DOUBLE_EQ(got.partition_s, golden[i].partition_s);
    EXPECT_EQ(got.transfer_bytes, golden[i].transfer_bytes);
    EXPECT_EQ(got.set_index, golden[i].set_index);
  }
}

// ---- Pipeline-depth invariance ----
// The probe pipeline (src/util/probe_pipeline.h) is a host wall-clock
// knob: at every depth the functional results (match counts, checksums,
// materialized ring bytes) and every charged KernelStats counter must
// be byte-identical — the modeled GPU cost is independent of how the
// host computes the answer. Depths {1, 4, 16} cover the scalar
// reference loop, a shallow ring and a deep ring. These tests extend
// the golden suite above without touching its values: each depth is
// compared against the depth-1 run of the same workload.

/// Everything observable from one run: results, full launch profile and
/// (when materializing) the raw ring bytes.
struct DepthRunCapture {
  uint64_t matches = 0;
  uint64_t payload_sum = 0;
  std::vector<sim::ProfileEntry> profile;
  std::vector<uint64_t> ring;
};

void ExpectSameRun(const DepthRunCapture& ref, const DepthRunCapture& got,
                   int depth) {
  SCOPED_TRACE("pipeline depth " + std::to_string(depth));
  EXPECT_EQ(got.matches, ref.matches);
  EXPECT_EQ(got.payload_sum, ref.payload_sum);
  ASSERT_EQ(got.profile.size(), ref.profile.size());
  for (size_t i = 0; i < ref.profile.size(); ++i) {
    SCOPED_TRACE("launch " + std::to_string(i) + " (" + ref.profile[i].name +
                 ")");
    const hw::KernelStats& a = ref.profile[i].stats;
    const hw::KernelStats& b = got.profile[i].stats;
    EXPECT_EQ(got.profile[i].name, ref.profile[i].name);
    EXPECT_EQ(b.coalesced_read_bytes, a.coalesced_read_bytes);
    EXPECT_EQ(b.coalesced_write_bytes, a.coalesced_write_bytes);
    EXPECT_EQ(b.scatter_write_bytes, a.scatter_write_bytes);
    EXPECT_EQ(b.random_transactions, a.random_transactions);
    EXPECT_EQ(b.random_working_set_bytes, a.random_working_set_bytes);
    EXPECT_EQ(b.shared_bytes, a.shared_bytes);
    EXPECT_EQ(b.shared_atomics, a.shared_atomics);
    EXPECT_EQ(b.device_atomics, a.device_atomics);
    EXPECT_EQ(b.total_cycles, a.total_cycles);
    EXPECT_EQ(b.max_block_cycles, a.max_block_cycles);
    EXPECT_EQ(b.num_blocks, a.num_blocks);
    EXPECT_DOUBLE_EQ(got.profile[i].seconds, ref.profile[i].seconds);
  }
  ASSERT_EQ(got.ring.size(), ref.ring.size());
  for (size_t i = 0; i < ref.ring.size(); ++i) {
    ASSERT_EQ(got.ring[i], ref.ring[i]) << "ring byte mismatch at " << i;
  }
}

constexpr int kDepths[] = {1, 4, 16};

TEST_F(StatInvarianceTest, DepthInvariantPartitionedSharedHash) {
  DepthRunCapture ref;
  for (const int depth : kDepths) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    gpujoin::PartitionedJoinConfig cfg;
    cfg.partition.pass_bits = {6, 5};
    cfg.join.probe_pipeline_depth = depth;
    auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
    ASSERT_TRUE(st.ok()) << st.status();
    DepthRunCapture run{st->matches, st->payload_sum, device.profile(), {}};
    if (depth == kDepths[0]) {
      ref = std::move(run);
    } else {
      ExpectSameRun(ref, run, depth);
    }
  }
  // Oversized co-partitions (block-NL fallback) at the scalar loop and a
  // deep ring.
  DepthRunCapture oversized_ref;
  for (const int depth : {1, 32}) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto st = RunOversizedSharedHashJoin(&device, depth);
    ASSERT_TRUE(st.ok()) << st.status();
    DepthRunCapture run{st->matches, st->payload_sum, device.profile(), {}};
    if (depth == 1) {
      oversized_ref = std::move(run);
    } else {
      ExpectSameRun(oversized_ref, run, depth);
    }
  }
}

TEST_F(StatInvarianceTest, DepthInvariantDeviceHashMaterializedRing) {
  // Materialization through a caller-owned ring: the pipeline must
  // preserve the exact match emission order, pinned here byte-for-byte.
  DepthRunCapture ref;
  for (const int depth : kDepths) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    gpujoin::RadixPartitionConfig part_cfg;
    part_cfg.pass_bits = {6, 5};
    auto rd = gpujoin::DeviceRelation::Upload(&device, r_);
    auto sd = gpujoin::DeviceRelation::Upload(&device, s_);
    ASSERT_TRUE(rd.ok() && sd.ok());
    auto rp = gpujoin::RadixPartition(&device, *rd, part_cfg);
    auto sp = gpujoin::RadixPartition(&device, *sd, part_cfg);
    ASSERT_TRUE(rp.ok() && sp.ok());
    gpujoin::CoPartitionJoinConfig cfg;
    cfg.algo = gpujoin::ProbeAlgorithm::kDeviceHash;
    cfg.output = gpujoin::OutputMode::kMaterialize;
    cfg.key_bits = 17;
    cfg.probe_pipeline_depth = depth;
    auto ring_result = gpujoin::OutputRing::Allocate(&device.memory(),
                                                     s_.size() + 1);
    ASSERT_TRUE(ring_result.ok());
    gpujoin::OutputRing ring = std::move(ring_result).ValueOrDie();
    auto st = gpujoin::JoinCoPartitions(&device, *rp, *sp, cfg, &ring);
    ASSERT_TRUE(st.ok()) << st.status();
    DepthRunCapture run{st->matches, st->payload_sum, device.profile(), {}};
    ASSERT_FALSE(ring.wrapped());
    run.ring.reserve(ring.total_written());
    for (uint64_t i = 0; i < ring.total_written(); ++i) {
      run.ring.push_back(ring.pair(i));
    }
    if (depth == kDepths[0]) {
      ref = std::move(run);
    } else {
      ExpectSameRun(ref, run, depth);
    }
  }
}

TEST_F(StatInvarianceTest, DepthInvariantNonPartitioned) {
  for (const bool materialize : {false, true}) {
    for (const auto variant : {gpujoin::NonPartitionedVariant::kChaining,
                               gpujoin::NonPartitionedVariant::kPerfectHash}) {
      DepthRunCapture ref;
      for (const int depth : kDepths) {
        sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
        auto rd = gpujoin::DeviceRelation::Upload(&device, r_);
        auto sd = gpujoin::DeviceRelation::Upload(&device, s_);
        ASSERT_TRUE(rd.ok() && sd.ok());
        gpujoin::NonPartitionedJoinConfig cfg;
        cfg.variant = variant;
        cfg.output = materialize ? gpujoin::OutputMode::kMaterialize
                                 : gpujoin::OutputMode::kAggregate;
        cfg.probe_pipeline_depth = depth;
        auto st = gpujoin::NonPartitionedJoin(&device, *rd, *sd, cfg);
        ASSERT_TRUE(st.ok()) << st.status();
        DepthRunCapture run{st->matches, st->payload_sum, device.profile(),
                            {}};
        if (depth == kDepths[0]) {
          ref = std::move(run);
        } else {
          ExpectSameRun(ref, run, depth);
        }
      }
    }
  }
}

TEST_F(StatInvarianceTest, DepthInvariantCpuJoinAndOracle) {
  const int saved = util::DefaultProbePipelineDepth();
  uint64_t ref_matches = 0, ref_sum = 0;
  for (const int depth : kDepths) {
    cpu::CpuJoinConfig cfg;
    cfg.probe_pipeline_depth = depth;
    const hw::CpuCostModel model{hw::CpuSpec{}};
    auto st = cpu::NpoJoin(r_, s_, cfg, model);
    ASSERT_TRUE(st.ok());
    // The oracle takes the process-wide default depth.
    util::SetDefaultProbePipelineDepth(depth);
    const data::OracleResult oracle = data::JoinOracle(r_, s_);
    EXPECT_EQ(st->matches, oracle.matches);
    EXPECT_EQ(st->payload_sum, oracle.payload_sum);
    if (depth == kDepths[0]) {
      ref_matches = st->matches;
      ref_sum = st->payload_sum;
    } else {
      EXPECT_EQ(st->matches, ref_matches);
      EXPECT_EQ(st->payload_sum, ref_sum);
    }
  }
  util::SetDefaultProbePipelineDepth(saved);
}

// ---- Scatter-buffer and chunked-input invariance ----
// The host-side software-managed scatter buffers and the chunk-consuming
// first-pass input are raw-speed / residency knobs: at every buffer size,
// host thread count and chunking they must charge the same golden stats
// the scalar single-threaded contiguous path charges.

TEST_F(StatInvarianceTest, ScatterBufferSizeAndThreadInvariant) {
  DepthRunCapture ref;
  bool have_ref = false;
  for (const size_t threads : {1u, 8u}) {
    util::ThreadPool pool(threads);
    for (const int tuples : {1, 4, 64}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   " scatter_buffer_tuples " + std::to_string(tuples));
      sim::Device device{hw::HardwareSpec::Icde2019Testbed(), &pool};
      gpujoin::PartitionedJoinConfig cfg;
      cfg.partition.pass_bits = {6, 5};
      cfg.partition.scatter_buffer_tuples = tuples;
      auto st = gpujoin::PartitionedJoinFromHost(&device, r_, s_, cfg);
      ASSERT_TRUE(st.ok()) << st.status();
      // Pinned to the SharedHashJoinAggregate golden above.
      EXPECT_EQ(st->matches, 200000u);
      EXPECT_EQ(st->payload_sum, 30006356267ull);
      EXPECT_DOUBLE_EQ(st->seconds, 0.00012578700876018098);
      DepthRunCapture run{st->matches, st->payload_sum, device.profile(), {}};
      if (!have_ref) {
        ref = std::move(run);
        have_ref = true;
      } else {
        ExpectSameRun(ref, run, tuples);
      }
    }
  }
}

TEST_F(StatInvarianceTest, ChunkedConsumingJoinMatchesContiguous) {
  // Contiguous reference run.
  sim::Device ref_device{hw::HardwareSpec::Icde2019Testbed()};
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {6, 5};
  auto rd = gpujoin::DeviceRelation::Upload(&ref_device, r_);
  auto sd = gpujoin::DeviceRelation::Upload(&ref_device, s_);
  ASSERT_TRUE(rd.ok() && sd.ok());
  auto ref_st = gpujoin::PartitionedJoin(&ref_device, *rd, *sd, cfg);
  ASSERT_TRUE(ref_st.ok()) << ref_st.status();
  const DepthRunCapture ref{ref_st->matches, ref_st->payload_sum,
                            ref_device.profile(), {}};

  auto chunked = [](const data::Relation& rel, size_t chunk) {
    gpujoin::ChunkedDeviceInput input;
    for (size_t begin = 0; begin < rel.size(); begin += chunk) {
      const size_t end = std::min(rel.size(), begin + chunk);
      input.Add({rel.keys.begin() + begin, rel.keys.begin() + end},
                {rel.payloads.begin() + begin, rel.payloads.begin() + end});
    }
    return input;
  };
  for (const size_t chunk : {7000u, 100000u, 1000000u}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto st = gpujoin::PartitionedJoinChunkedConsuming(
        &device, chunked(r_, chunk), chunked(s_, chunk), cfg);
    ASSERT_TRUE(st.ok()) << st.status();
    EXPECT_DOUBLE_EQ(st->seconds, ref_st->seconds);
    EXPECT_DOUBLE_EQ(st->partition_s, ref_st->partition_s);
    EXPECT_DOUBLE_EQ(st->join_s, ref_st->join_s);
    const DepthRunCapture run{st->matches, st->payload_sum, device.profile(),
                              {}};
    ExpectSameRun(ref, run, static_cast<int>(chunk));
  }
}

TEST_F(StatInvarianceTest, ConsumingPlanEqualsSharedPlan) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  outofgpu::CoProcessConfig cfg;
  cfg.join.partition.pass_bits = {6, 5};
  auto shared = outofgpu::PlanCoProcessJoin(&device, r_, s_, cfg);
  ASSERT_TRUE(shared.ok()) << shared.status();

  const hw::CpuCostModel cpu_model(device.spec().cpu);
  auto r_parts = cpu::CpuRadixPartition(r_, cfg.cpu, cpu_model);
  auto s_parts = cpu::CpuRadixPartition(s_, cfg.cpu, cpu_model);
  ASSERT_TRUE(r_parts.ok() && s_parts.ok());
  auto consuming = outofgpu::PlanCoProcessJoinConsuming(
      &device, std::move(r_parts).ValueOrDie(),
      std::move(s_parts).ValueOrDie(), cfg);
  ASSERT_TRUE(consuming.ok()) << consuming.status();

  EXPECT_EQ(consuming->total_input_bytes, shared->total_input_bytes);
  ASSERT_EQ(consuming->runs.size(), shared->runs.size());
  for (size_t i = 0; i < shared->runs.size(); ++i) {
    SCOPED_TRACE("working set run " + std::to_string(i));
    const auto& a = shared->runs[i];
    const auto& b = consuming->runs[i];
    EXPECT_EQ(b.matches, a.matches);
    EXPECT_EQ(b.payload_sum, a.payload_sum);
    EXPECT_DOUBLE_EQ(b.gpu_seconds, a.gpu_seconds);
    EXPECT_DOUBLE_EQ(b.join_s, a.join_s);
    EXPECT_DOUBLE_EQ(b.partition_s, a.partition_s);
    EXPECT_EQ(b.transfer_bytes, a.transfer_bytes);
    EXPECT_EQ(b.set_index, a.set_index);
  }
}

TEST_F(StatInvarianceTest, StreamingProbeMaterialize) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  outofgpu::StreamingProbeConfig cfg;
  cfg.chunk_tuples = 60000;
  cfg.join.partition.pass_bits = {6, 5};
  cfg.materialize_to_host = true;
  auto st = outofgpu::StreamingProbeJoin(&device, r_, s_, cfg);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->matches, 200000u);
  EXPECT_EQ(st->payload_sum, 30006356267ull);
  EXPECT_DOUBLE_EQ(st->seconds, 0.00035910547063171836);
  EXPECT_DOUBLE_EQ(st->transfer_s, 0.00041520325203252029);
}


// ---- Wrapped materialized output ----
// Rings about a quarter the size of the result set wrap several times,
// so which pairs survive — and with them every block's emission order
// and claim offsets — is observable. The goldens were captured when the
// launch epilogue still replayed every pair onto the ring; they pin that
// publishing only the survivors after the launch leaves every charge,
// result and ring word where the replay put them.

/// FNV-1a over the little-endian bytes of every ring word.
uint64_t RingHash(const gpujoin::OutputRing& ring) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < ring.capacity(); ++i) {
    const uint64_t word = ring.pair(i);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

/// What a wrapped materialized run produced besides its launch profile.
struct WrappedRun {
  uint64_t matches;
  uint64_t payload_sum;
  uint64_t total_written;
  uint64_t ring_hash;
};

void ExpectWrappedRun(const WrappedRun& got, const WrappedRun& golden,
                      size_t capacity) {
  EXPECT_EQ(got.matches, golden.matches);
  EXPECT_EQ(got.payload_sum, golden.payload_sum);
  EXPECT_EQ(got.total_written, golden.total_written);
  EXPECT_EQ(got.ring_hash, golden.ring_hash);
  // The interesting case: about four times the ring's worth of pairs.
  EXPECT_GE(got.total_written, 3 * capacity);
}

/// Zipf-skewed inputs sharing their popular keys, so some build
/// co-partitions exceed the 960-tuple shared budget and the shared-hash
/// join materializes through the chunk-by-chunk fallback.
util::Result<WrappedRun> RunWrappedCoPartitionJoin(
    sim::Device* device, gpujoin::ProbeAlgorithm algo, bool buffered,
    size_t capacity) {
  const data::Relation r = data::MakeZipf(30000, 30000, 0.5, 71, 11);
  const data::Relation s = data::MakeZipf(60000, 30000, 0.5, 72, 11);
  gpujoin::RadixPartitionConfig pc;
  pc.pass_bits = {5};
  GJOIN_ASSIGN_OR_RETURN(gpujoin::DeviceRelation rd,
                         gpujoin::DeviceRelation::Upload(device, r));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::DeviceRelation sd,
                         gpujoin::DeviceRelation::Upload(device, s));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::PartitionedRelation rp,
                         gpujoin::RadixPartition(device, rd, pc));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::PartitionedRelation sp,
                         gpujoin::RadixPartition(device, sd, pc));
  gpujoin::CoPartitionJoinConfig cfg;
  cfg.algo = algo;
  cfg.output = gpujoin::OutputMode::kMaterialize;
  cfg.buffered_output = buffered;
  cfg.shared_elems = 960;
  cfg.hash_slots = 512;
  cfg.key_bits = 15;
  // Guard the workload's shape: a quarter of the co-partitions take the
  // chunk-by-chunk fallback.
  int oversized = 0;
  for (uint32_t p = 0; p < rp.chains.num_partitions(); ++p) {
    oversized += rp.chains.PartitionSize(p) > cfg.shared_elems;
  }
  EXPECT_EQ(oversized, 8);
  GJOIN_ASSIGN_OR_RETURN(gpujoin::OutputRing ring,
                         gpujoin::OutputRing::Allocate(&device->memory(),
                                                       capacity));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::CoPartitionJoinResult st,
                         gpujoin::JoinCoPartitions(device, rp, sp, cfg, &ring));
  return WrappedRun{st.matches, st.payload_sum, ring.total_written(),
                    RingHash(ring)};
}

/// The non-partitioned join over a Zipf probe side; the perfect-hash
/// variant needs unique build keys.
util::Result<WrappedRun> RunWrappedNonPartitionedJoin(
    sim::Device* device, gpujoin::NonPartitionedVariant variant,
    size_t capacity) {
  const data::Relation r =
      variant == gpujoin::NonPartitionedVariant::kPerfectHash
          ? data::MakeUniqueUniform(30000, 73)
          : data::MakeZipf(30000, 30000, 0.5, 71, 11);
  const data::Relation s = data::MakeZipf(60000, 30000, 0.5, 72, 11);
  GJOIN_ASSIGN_OR_RETURN(gpujoin::DeviceRelation rd,
                         gpujoin::DeviceRelation::Upload(device, r));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::DeviceRelation sd,
                         gpujoin::DeviceRelation::Upload(device, s));
  gpujoin::NonPartitionedJoinConfig cfg;
  cfg.variant = variant;
  cfg.output = gpujoin::OutputMode::kMaterialize;
  GJOIN_ASSIGN_OR_RETURN(gpujoin::OutputRing ring,
                         gpujoin::OutputRing::Allocate(&device->memory(),
                                                       capacity));
  GJOIN_ASSIGN_OR_RETURN(gpujoin::JoinStats st,
                         gpujoin::NonPartitionedJoin(device, rd, sd, cfg,
                                                     &ring));
  return WrappedRun{st.matches, st.payload_sum, ring.total_written(),
                    RingHash(ring)};
}


constexpr size_t kWrappedCoPartitionRing = 40000;

TEST_F(StatInvarianceTest, WrappedSharedHashMaterialize) {
  for (const bool buffered : {true, false}) {
    SCOPED_TRACE(buffered ? "buffered output" : "direct output");
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto run = RunWrappedCoPartitionJoin(
        &device, gpujoin::ProbeAlgorithm::kSharedHash, buffered,
        kWrappedCoPartitionRing);
    ASSERT_TRUE(run.ok()) << run.status();
    ExpectWrappedRun(*run,
                     {159307u, 7184914719ull, 159307u, 9368097917100180302ull},
                     kWrappedCoPartitionRing);
    const GoldenLaunch join =
        buffered
            ? GoldenLaunch{"join_copartitions_hash", 1873596, 1274456, 0,
                           10368, 480000, 6740934, 317955, 1284, 148773, 4660,
                           40, 2.5089720195512819e-05}
            : GoldenLaunch{"join_copartitions_hash", 1873596, 0, 0, 169675,
                           480000, 4192022, 158648, 159947, 148773, 4660, 40,
                           4.6885849730769224e-05};
    ExpectProfileMatches(
        device,
        {{"radix_partition_pass1", 240000, 0, 240000, 0, 0, 505600, 30000,
          2602, 59360, 1484, 40, 7.9848796380090493e-06},
         {"radix_partition_pass1", 480000, 0, 480000, 0, 0, 985600, 60000,
          2572, 118600, 2965, 40, 1.0634359276018099e-05},
         join});
  }
}

TEST_F(StatInvarianceTest, WrappedDeviceHashMaterialize) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  auto run = RunWrappedCoPartitionJoin(
      &device, gpujoin::ProbeAlgorithm::kDeviceHash, true,
      kWrappedCoPartitionRing);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectWrappedRun(*run,
                   {159307u, 7184914719ull, 159307u, 1776081828212679210ull},
                   kWrappedCoPartitionRing);
  ExpectProfileMatches(
      device,
      {{"radix_partition_pass1", 240000, 0, 240000, 0, 0, 505600, 30000,
        2602, 59360, 1484, 40, 7.9848796380090493e-06},
       {"radix_partition_pass1", 480000, 0, 480000, 0, 0, 985600, 60000,
        2572, 118600, 2965, 40, 1.0634359276018099e-05},
       {"join_copartitions_hash", 1751212, 2889752, 0, 761347, 497920,
        2548912, 159307, 159932, 142415, 4235, 40,
        9.5437713644230774e-05}});
}

TEST_F(StatInvarianceTest, WrappedNonPartitionedChainingMaterialize) {
  constexpr size_t kRing = 40000;
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  auto run = RunWrappedNonPartitionedJoin(
      &device, gpujoin::NonPartitionedVariant::kChaining, kRing);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectWrappedRun(*run,
                   {159307u, 7184914719ull, 159307u, 13916998182845581516ull},
                   kRing);
  ExpectProfileMatches(
      device,
      {{"nonpartitioned_build_chain", 240000, 0, 0, 30000, 622144, 0, 0,
        30000, 3760, 94, 40, 1.1631538461538461e-05},
       {"nonpartitioned_probe_chain", 480000, 1274456, 0, 409293, 622144,
        2548912, 159307, 1922, 21584, 594, 40, 4.1590472387820511e-05}});
}

TEST_F(StatInvarianceTest, WrappedNonPartitionedPerfectHashMaterialize) {
  constexpr size_t kRing = 14000;
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  auto run = RunWrappedNonPartitionedJoin(
      &device, gpujoin::NonPartitionedVariant::kPerfectHash, kRing);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectWrappedRun(*run,
                   {60000u, 2698232585ull, 60000u, 17769625474912937162ull},
                   kRing);
  ExpectProfileMatches(
      device,
      {{"nonpartitioned_build_perfect", 240000, 0, 0, 30000, 120004, 0, 0, 0,
        2840, 71, 40, 7.8815384615384609e-06},
       {"nonpartitioned_probe_perfect", 480000, 480000, 0, 60000, 120004,
        960000, 60000, 1520, 5640, 141, 40, 1.4053653846153844e-05}});
}

}  // namespace
}  // namespace gjoin
