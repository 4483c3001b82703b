// Correctness tests for the in-GPU joins: every probe algorithm and both
// output modes must reproduce the oracle on every workload class the
// paper evaluates (unique uniform, ratios, skew, duplicates).

#include <gtest/gtest.h>

#include <algorithm>

#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/nonpartitioned.h"
#include "src/gpujoin/partitioned_join.h"

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
