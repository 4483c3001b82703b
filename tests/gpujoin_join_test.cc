// Correctness tests for the in-GPU joins: every probe algorithm and both
// output modes must reproduce the oracle on every workload class the
// paper evaluates (unique uniform, ratios, skew, duplicates).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/nonpartitioned.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/util/bits.h"
#include "src/util/thread_pool.h"

namespace gjoin::gpujoin {
namespace {

class GpuJoinTest : public ::testing::Test {
 protected:
  hw::HardwareSpec spec_;
  sim::Device device_{spec_};

  DeviceRelation Upload(const data::Relation& rel) {
    return std::move(DeviceRelation::Upload(&device_, rel)).ValueOrDie();
  }

  void ExpectMatchesOracle(const data::Relation& r, const data::Relation& s,
                           const JoinStats& stats) {
    const data::OracleResult oracle = data::JoinOracle(r, s);
    EXPECT_EQ(stats.matches, oracle.matches);
    EXPECT_EQ(stats.payload_sum, oracle.payload_sum);
    EXPECT_GT(stats.seconds, 0.0);
  }
};

// ---------------------------------------------------------------------------
// Partitioned join
// ---------------------------------------------------------------------------

TEST_F(GpuJoinTest, PartitionedHashJoinMatchesOracle) {
  const auto r = data::MakeUniqueUniform(30000, 1);
  const auto s = data::MakeUniformProbe(60000, 30000, 2);
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {5, 4};
  auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
  EXPECT_GT(stats->partition_s, 0.0);
  EXPECT_GT(stats->join_s, 0.0);
  EXPECT_NEAR(stats->seconds, stats->partition_s + stats->join_s, 1e-12);
}

TEST_F(GpuJoinTest, PartitionedNestedLoopMatchesOracle) {
  const auto r = data::MakeUniqueUniform(8000, 3);
  const auto s = data::MakeUniformProbe(8000, 8000, 4);
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4, 4};
  cfg.join.algo = ProbeAlgorithm::kNestedLoop;
  auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

TEST_F(GpuJoinTest, PartitionedDeviceHashMatchesOracle) {
  const auto r = data::MakeUniqueUniform(20000, 5);
  const auto s = data::MakeUniformProbe(20000, 20000, 6);
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4, 4};
  cfg.join.algo = ProbeAlgorithm::kDeviceHash;
  auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

TEST_F(GpuJoinTest, SkewedBuildUsesBlockNestedLoopFallbackCorrectly) {
  // Zipf 1.0 build side: the heavy partition exceeds shared_elems and the
  // kernel must fall back to block nested loops without losing matches.
  const auto r = data::MakeZipf(40000, 4000, 1.0, 7, 42);
  const auto s = data::MakeZipf(40000, 4000, 1.0, 8, 42);
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {3, 2};  // few partitions -> big co-partitions
  cfg.join.shared_elems = 1024;      // force the fallback
  cfg.join.hash_slots = 512;
  auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

TEST_F(GpuJoinTest, DuplicateKeysOnBothSides) {
  const auto r = data::MakeReplicated(20000, 4.0, 9);
  const auto s = data::MakeReplicated(20000, 4.0, 10);
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4, 3};
  auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

TEST_F(GpuJoinTest, DisjointKeyDomains) {
  data::Relation r, s;
  for (uint32_t i = 1; i <= 5000; ++i) r.Append(i, i);
  for (uint32_t i = 100000; i < 105000; ++i) s.Append(i, i);
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4, 4};
  auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->matches, 0u);
}

TEST_F(GpuJoinTest, EmptyProbeSide) {
  const auto r = data::MakeUniqueUniform(1000, 11);
  data::Relation s;
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {4};
  auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->matches, 0u);
}

TEST_F(GpuJoinTest, MaterializationProducesExactPairs) {
  const auto r = data::MakeUniqueUniform(5000, 12);
  const auto s = data::MakeUniformProbe(5000, 5000, 13);
  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {3, 3};
  cfg.join.output = OutputMode::kMaterialize;
  cfg.out_capacity = 8192;  // larger than the result: no wrap
  auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

TEST_F(GpuJoinTest, MaterializationIsSlowerThanAggregation) {
  const auto r = data::MakeUniqueUniform(40000, 14);
  const auto s = data::MakeUniformProbe(40000, 40000, 15);
  PartitionedJoinConfig agg;
  agg.partition.pass_bits = {5, 4};
  PartitionedJoinConfig mat = agg;
  mat.join.output = OutputMode::kMaterialize;
  auto a = PartitionedJoin(&device_, Upload(r), Upload(s), agg);
  auto m = PartitionedJoin(&device_, Upload(r), Upload(s), mat);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(m.ok());
  // Fig. 7: materialization costs something but not dramatically more.
  EXPECT_GT(m->seconds, a->seconds);
  EXPECT_LT(m->seconds, a->seconds * 1.6);
}

TEST_F(GpuJoinTest, RejectsMismatchedRadixBits) {
  const auto r = data::MakeUniqueUniform(1000, 16);
  RadixPartitionConfig pa, pb;
  pa.pass_bits = {4};
  pb.pass_bits = {5};
  auto ra = RadixPartition(&device_, Upload(r), pa);
  auto rb = RadixPartition(&device_, Upload(r), pb);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  CoPartitionJoinConfig jcfg;
  EXPECT_FALSE(JoinCoPartitions(&device_, *ra, *rb, jcfg).ok());
}

TEST_F(GpuJoinTest, RejectsNonPowerOfTwoSlots) {
  const auto r = data::MakeUniqueUniform(1000, 17);
  RadixPartitionConfig pc;
  pc.pass_bits = {4};
  auto parted = RadixPartition(&device_, Upload(r), pc);
  ASSERT_TRUE(parted.ok());
  CoPartitionJoinConfig jcfg;
  jcfg.hash_slots = 1000;
  EXPECT_FALSE(JoinCoPartitions(&device_, *parted, *parted, jcfg).ok());
}

TEST_F(GpuJoinTest, RejectsMaterializationWithoutRing) {
  const auto r = data::MakeUniqueUniform(1000, 18);
  RadixPartitionConfig pc;
  pc.pass_bits = {4};
  auto parted = RadixPartition(&device_, Upload(r), pc);
  ASSERT_TRUE(parted.ok());
  CoPartitionJoinConfig jcfg;
  jcfg.output = OutputMode::kMaterialize;
  EXPECT_FALSE(JoinCoPartitions(&device_, *parted, *parted, jcfg, nullptr).ok());
}

/// Joins a small relation with itself under `jcfg` and expects a typed
/// kInvalid naming `field`. Each of these zeros would hang the join or
/// overflow its output stage.
void ExpectConfigRejected(sim::Device* device,
                          const CoPartitionJoinConfig& jcfg,
                          const std::string& field) {
  const auto r = data::MakeUniqueUniform(1000, 19);
  RadixPartitionConfig pc;
  pc.pass_bits = {4};
  auto parted = RadixPartition(
      device, std::move(DeviceRelation::Upload(device, r)).ValueOrDie(), pc);
  ASSERT_TRUE(parted.ok());
  auto ring_result = OutputRing::Allocate(&device->memory(), 1024);
  ASSERT_TRUE(ring_result.ok());
  OutputRing ring = std::move(ring_result).ValueOrDie();
  auto st = JoinCoPartitions(device, *parted, *parted, jcfg, &ring);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), util::StatusCode::kInvalid);
  EXPECT_NE(st.status().message().find(field), std::string::npos)
      << st.status();
}

TEST_F(GpuJoinTest, RejectsZeroSharedElems) {
  CoPartitionJoinConfig jcfg;
  jcfg.shared_elems = 0;
  ExpectConfigRejected(&device_, jcfg, "shared_elems");
}

TEST_F(GpuJoinTest, RejectsZeroProbeBucketsPerItem) {
  CoPartitionJoinConfig jcfg;
  jcfg.max_probe_buckets_per_item = 0;
  ExpectConfigRejected(&device_, jcfg, "max_probe_buckets_per_item");
}

TEST_F(GpuJoinTest, RejectsZeroOutStagePairsWhenMaterializing) {
  CoPartitionJoinConfig jcfg;
  jcfg.output = OutputMode::kMaterialize;
  jcfg.out_stage_pairs = 0;
  ExpectConfigRejected(&device_, jcfg, "out_stage_pairs");
}

TEST_F(GpuJoinTest, BuildTableCacheRejectsAnotherBuildOrConfig) {
  // A cache holds tables linked for one build side under one config; a
  // join that would read them for anything else must refuse.
  RadixPartitionConfig pc;
  pc.pass_bits = {4};
  auto build = RadixPartition(&device_,
                              Upload(data::MakeUniqueUniform(8192, 21)), pc);
  auto other = RadixPartition(&device_,
                              Upload(data::MakeUniqueUniform(8192, 22)), pc);
  auto probe = RadixPartition(
      &device_, Upload(data::MakeUniformProbe(4096, 8192, 23)), pc);
  ASSERT_TRUE(build.ok() && other.ok() && probe.ok());
  CoPartitionJoinConfig jcfg;
  jcfg.hash_slots = 1024;
  BuildTableCache tables(*build, jcfg);
  auto joined = JoinCoPartitions(&device_, *build, *probe, jcfg, nullptr,
                                 &tables);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->matches, 4096u);
  EXPECT_EQ(tables.cached_partitions(), 16u);

  const auto expect_refused = [&](const PartitionedRelation& b,
                                  const CoPartitionJoinConfig& c,
                                  const std::string& why) {
    SCOPED_TRACE(why);
    auto st = JoinCoPartitions(&device_, b, *probe, c, nullptr, &tables);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.status().code(), util::StatusCode::kInvalid);
    EXPECT_NE(st.status().message().find("BuildTableCache"),
              std::string::npos)
        << st.status();
  };
  expect_refused(*other, jcfg, "another build of the same shape");
  CoPartitionJoinConfig slots = jcfg;
  slots.hash_slots = 2048;
  expect_refused(*build, slots, "another hash_slots");
  CoPartitionJoinConfig algo = jcfg;
  algo.algo = ProbeAlgorithm::kDeviceHash;
  expect_refused(*build, algo, "another algo");
  CoPartitionJoinConfig elems = jcfg;
  elems.shared_elems = 2048;
  expect_refused(*build, elems, "another shared_elems");

  // The same build and config still join through it; so does a join
  // with another output mode or key_bits, which the tables do not read.
  CoPartitionJoinConfig agg_bits = jcfg;
  agg_bits.key_bits = 14;
  auto again = JoinCoPartitions(&device_, *build, *probe, agg_bits, nullptr,
                                &tables);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->matches, joined->matches);
  EXPECT_EQ(again->payload_sum, joined->payload_sum);

  BuildTableCache moved = std::move(tables);
  auto moved_from = JoinCoPartitions(&device_, *build, *probe, jcfg, nullptr,
                                     &tables);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved_from.status().code(), util::StatusCode::kInvalid);
  EXPECT_TRUE(
      JoinCoPartitions(&device_, *build, *probe, jcfg, nullptr, &moved).ok());
}

// ---------------------------------------------------------------------------
// Work-item striding
// ---------------------------------------------------------------------------
// Block b runs work items b, b + B, b + 2B, ... of a B-block grid and
// prefetches each next item's buckets while it runs the current one.
// These shapes reach the stride's edges: fewer items than blocks, an
// item count that is not a multiple of the grid, and co-partitions with
// an empty build or probe side between full ones. Every run must match
// the oracle, and its launch profile, result and ring contents must
// match digests captured before the join prefetched, at pool widths 1
// and 8.

/// FNV-1a over 64-bit words.
struct Fnv {
  uint64_t hash = 14695981039346656037ull;
  void Mix(uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
};

/// Work items JoinCoPartitions makes: a co-partition with both sides
/// non-empty slices its S chain into items of `per_item` buckets.
size_t CountWorkItems(const PartitionedRelation& build,
                      const PartitionedRelation& probe, uint32_t per_item) {
  size_t items = 0;
  for (uint32_t p = 0; p < build.chains.num_partitions(); ++p) {
    if (build.chains.PartitionSize(p) == 0) continue;
    items += util::CeilDiv(probe.chains.PartitionBuckets(p).size(), per_item);
  }
  return items;
}

struct StrideGolden {
  ProbeAlgorithm algo;
  OutputMode output;
  uint64_t digest;  ///< Profile, matches, checksum and ring contents.
};

/// Partitions r and s with `pcfg`, joins them under `jcfg` with each
/// golden's algorithm and output mode at pool widths 1 and 8, and checks
/// each run against the oracle and the golden digest. A materializing
/// run's ring holds half the result, so it wraps. Returns the work-item
/// count, for the caller's shape checks.
size_t ExpectStrideGoldens(const data::Relation& r, const data::Relation& s,
                           const RadixPartitionConfig& pcfg,
                           const CoPartitionJoinConfig& jcfg,
                           const std::vector<StrideGolden>& goldens) {
  const data::OracleResult oracle = data::JoinOracle(r, s);
  size_t items = 0;
  for (const size_t threads : {1u, 8u}) {
    util::ThreadPool pool(threads);
    sim::Device device{hw::HardwareSpec::Icde2019Testbed(), &pool};
    const auto partition = [&](const data::Relation& rel) {
      return std::move(
                 RadixPartition(
                     &device,
                     std::move(DeviceRelation::Upload(&device, rel))
                         .ValueOrDie(),
                     pcfg))
          .ValueOrDie();
    };
    const PartitionedRelation build = partition(r);
    const PartitionedRelation probe = partition(s);
    items = CountWorkItems(build, probe, jcfg.max_probe_buckets_per_item);
    for (const StrideGolden& g : goldens) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " algo " +
                   std::to_string(static_cast<int>(g.algo)) + " output " +
                   std::to_string(static_cast<int>(g.output)));
      CoPartitionJoinConfig cfg = jcfg;
      cfg.algo = g.algo;
      cfg.output = g.output;
      OutputRing ring = std::move(OutputRing::Allocate(
                                      &device.memory(),
                                      std::max<uint64_t>(oracle.matches / 2,
                                                         1)))
                            .ValueOrDie();
      device.ClearProfile();
      auto result = JoinCoPartitions(&device, build, probe, cfg, &ring);
      if (!result.ok()) {
        ADD_FAILURE() << result.status();
        continue;
      }
      EXPECT_EQ(result->matches, oracle.matches);
      EXPECT_EQ(result->payload_sum, oracle.payload_sum);
      Fnv fnv;
      for (const auto& launch : device.profile()) {
        for (const char c : launch.name) fnv.Mix(static_cast<uint8_t>(c));
        const auto& st = launch.stats;
        for (const uint64_t v :
             {st.coalesced_read_bytes, st.coalesced_write_bytes,
              st.scatter_write_bytes, st.random_transactions,
              st.random_working_set_bytes, st.shared_bytes,
              st.shared_atomics, st.device_atomics, st.total_cycles,
              st.max_block_cycles, st.num_blocks}) {
          fnv.Mix(v);
        }
      }
      fnv.Mix(result->matches);
      fnv.Mix(result->payload_sum);
      if (g.output == OutputMode::kMaterialize) {
        EXPECT_TRUE(ring.wrapped());
        fnv.Mix(ring.total_written());
        for (size_t i = 0; i < ring.capacity(); ++i) fnv.Mix(ring.pair(i));
      }
      EXPECT_EQ(fnv.hash, g.digest);
    }
  }
  return items;
}

TEST(WorkItemStrideTest, FewerItemsThanBlocks) {
  // Eight co-partitions of about 250 build and 750 probe tuples on a
  // 64-block grid: most blocks get no item, none a second one. With 256
  // hash slots most shared-hash items probe key-aggregated tables.
  const auto r = data::MakeUniqueUniform(2000, 41);
  const auto s = data::MakeUniformProbe(6000, 2000, 42);
  RadixPartitionConfig pcfg;
  pcfg.pass_bits = {3};
  CoPartitionJoinConfig jcfg;
  jcfg.num_blocks = 64;
  jcfg.hash_slots = 256;
  const size_t items = ExpectStrideGoldens(
      r, s, pcfg, jcfg,
      {{ProbeAlgorithm::kSharedHash, OutputMode::kAggregate,
        18169458820038078652ull},
       {ProbeAlgorithm::kSharedHash, OutputMode::kMaterialize,
        2080020687295395291ull},
       {ProbeAlgorithm::kNestedLoop, OutputMode::kAggregate,
        8131777706815792792ull},
       {ProbeAlgorithm::kNestedLoop, OutputMode::kMaterialize,
        6704592787850429218ull},
       {ProbeAlgorithm::kDeviceHash, OutputMode::kAggregate,
        4686007643964073980ull},
       {ProbeAlgorithm::kDeviceHash, OutputMode::kMaterialize,
        11046158083403302454ull}});
  EXPECT_GT(items, 0u);
  EXPECT_LT(items, 64u);
}

TEST(WorkItemStrideTest, ItemCountNotAMultipleOfBlocks) {
  // 128 co-partitions whose S chains of about ten 32-tuple buckets split
  // into items of three buckets, on a 9-block grid: the last round is
  // partial. Partitions probed by several walking items are memoized.
  const auto r = data::MakeUniqueUniform(20000, 43);
  const auto s = data::MakeUniformProbe(40000, 20000, 44);
  RadixPartitionConfig pcfg;
  pcfg.pass_bits = {4, 3};
  pcfg.bucket_capacity = 32;
  CoPartitionJoinConfig jcfg;
  jcfg.num_blocks = 9;
  jcfg.max_probe_buckets_per_item = 3;
  const size_t items = ExpectStrideGoldens(
      r, s, pcfg, jcfg,
      {{ProbeAlgorithm::kSharedHash, OutputMode::kAggregate,
        1776256136947736651ull},
       {ProbeAlgorithm::kSharedHash, OutputMode::kMaterialize,
        6294326277054294622ull},
       {ProbeAlgorithm::kNestedLoop, OutputMode::kAggregate,
        10322516011192123547ull},
       {ProbeAlgorithm::kNestedLoop, OutputMode::kMaterialize,
        8649728671447048963ull},
       {ProbeAlgorithm::kDeviceHash, OutputMode::kAggregate,
        14699237595119770423ull},
       {ProbeAlgorithm::kDeviceHash, OutputMode::kMaterialize,
        6233944160586023794ull}});
  EXPECT_GT(items, 9u * 4);
  EXPECT_NE(items % 9, 0u);
}

TEST(WorkItemStrideTest, EmptySidesBetweenFullCoPartitions) {
  // 16 co-partitions on the low key nibble. Going up, every four hold
  // both sides, the build side only, the probe side only, and neither,
  // so the work list skips three of every four partitions.
  data::Relation r, s;
  for (uint32_t i = 0; i < 4000; ++i) {
    const uint32_t nib = (i % 8) / 2 * 4 + i % 2;  // 0, 1, 4, 5, ...
    r.Append(((i / 8 + 1) << 4) | nib, i);
  }
  for (uint32_t j = 0; j < 8000; ++j) {
    const uint32_t nib = (j % 8) / 2 * 4 + (j % 2) * 2;  // 0, 2, 4, 6, ...
    s.Append((((j / 8) % 500 + 1) << 4) | nib, j);
  }
  RadixPartitionConfig pcfg;
  pcfg.pass_bits = {4};
  CoPartitionJoinConfig jcfg;
  jcfg.num_blocks = 5;
  jcfg.max_probe_buckets_per_item = 1;
  const size_t items = ExpectStrideGoldens(
      r, s, pcfg, jcfg,
      {{ProbeAlgorithm::kSharedHash, OutputMode::kAggregate,
        8652942260162539665ull},
       {ProbeAlgorithm::kSharedHash, OutputMode::kMaterialize,
        7885778774017702430ull},
       {ProbeAlgorithm::kNestedLoop, OutputMode::kAggregate,
        18247488643975302057ull},
       {ProbeAlgorithm::kNestedLoop, OutputMode::kMaterialize,
        12039425903067372085ull},
       {ProbeAlgorithm::kDeviceHash, OutputMode::kAggregate,
        10525996049744513302ull},
       {ProbeAlgorithm::kDeviceHash, OutputMode::kMaterialize,
        17696782665253923688ull}});
  EXPECT_GT(items, 5u);
}

// ---------------------------------------------------------------------------
// Non-partitioned baselines
// ---------------------------------------------------------------------------

TEST_F(GpuJoinTest, NonPartitionedChainingMatchesOracle) {
  const auto r = data::MakeUniqueUniform(30000, 21);
  const auto s = data::MakeUniformProbe(60000, 30000, 22);
  NonPartitionedJoinConfig cfg;
  auto stats = NonPartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

TEST_F(GpuJoinTest, NonPartitionedChainingHandlesDuplicates) {
  const auto r = data::MakeReplicated(20000, 3.0, 23);
  const auto s = data::MakeReplicated(20000, 3.0, 24);
  NonPartitionedJoinConfig cfg;
  auto stats = NonPartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

TEST_F(GpuJoinTest, PerfectHashMatchesOracleOnUniqueKeys) {
  const auto r = data::MakeUniqueUniform(30000, 25);
  const auto s = data::MakeUniformProbe(30000, 30000, 26);
  NonPartitionedJoinConfig cfg;
  cfg.variant = NonPartitionedVariant::kPerfectHash;
  auto stats = NonPartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

TEST_F(GpuJoinTest, PerfectHashRejectsDuplicateKeys) {
  const auto r = data::MakeReplicated(10000, 2.0, 27);
  const auto s = data::MakeUniqueUniform(1000, 28);
  NonPartitionedJoinConfig cfg;
  cfg.variant = NonPartitionedVariant::kPerfectHash;
  auto stats = NonPartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kExecutionError);
}

TEST_F(GpuJoinTest, NonPartitionedMaterializeCountsMatch) {
  const auto r = data::MakeUniqueUniform(10000, 29);
  const auto s = data::MakeUniformProbe(20000, 10000, 30);
  NonPartitionedJoinConfig cfg;
  cfg.output = OutputMode::kMaterialize;
  auto stats = NonPartitionedJoin(&device_, Upload(r), Upload(s), cfg);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ExpectMatchesOracle(r, s, *stats);
}

// ---------------------------------------------------------------------------
// Cross-engine agreement (property): all engines compute the same join.
// ---------------------------------------------------------------------------

struct EngineCase {
  ProbeAlgorithm algo;
  const char* name;
};

class EngineAgreementTest
    : public GpuJoinTest,
      public ::testing::WithParamInterface<double> {};

TEST_P(EngineAgreementTest, AllEnginesAgreeUnderSkew) {
  const double zipf = GetParam();
  const auto r = data::MakeZipf(15000, 5000, zipf, 31, 77);
  const auto s = data::MakeZipf(15000, 5000, zipf, 32, 77);
  const auto oracle = data::JoinOracle(r, s);

  for (ProbeAlgorithm algo :
       {ProbeAlgorithm::kSharedHash, ProbeAlgorithm::kNestedLoop,
        ProbeAlgorithm::kDeviceHash}) {
    PartitionedJoinConfig cfg;
    cfg.partition.pass_bits = {4, 3};
    cfg.join.algo = algo;
    auto stats = PartitionedJoin(&device_, Upload(r), Upload(s), cfg);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->matches, oracle.matches)
        << "algo " << static_cast<int>(algo) << " zipf " << zipf;
    EXPECT_EQ(stats->payload_sum, oracle.payload_sum);
  }
  NonPartitionedJoinConfig ncfg;
  auto nstats = NonPartitionedJoin(&device_, Upload(r), Upload(s), ncfg);
  ASSERT_TRUE(nstats.ok());
  EXPECT_EQ(nstats->matches, oracle.matches);
  EXPECT_EQ(nstats->payload_sum, oracle.payload_sum);
}

INSTANTIATE_TEST_SUITE_P(Skews, EngineAgreementTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace gjoin::gpujoin
