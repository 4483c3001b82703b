// Tests for the out-of-GPU execution strategies: working-set packing,
// streaming probe, co-processing, and the UVA/UM transfer mechanisms.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/hw/pcie.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/outofgpu/transfer_mech.h"
#include "src/outofgpu/working_set.h"

namespace gjoin::outofgpu {
namespace {

// ---------------------------------------------------------------------------
// Working-set packing (Section IV-D)
// ---------------------------------------------------------------------------

class WorkingSetTest : public ::testing::Test {
 protected:
  static uint64_t TotalBytes(const std::vector<WorkingSet>& sets) {
    uint64_t total = 0;
    for (const auto& ws : sets) total += ws.bytes;
    return total;
  }
  static void ExpectCoversAll(const std::vector<uint64_t>& parts,
                              const std::vector<WorkingSet>& sets) {
    std::set<uint32_t> seen;
    for (const auto& ws : sets) {
      for (uint32_t p : ws.partitions) {
        EXPECT_TRUE(seen.insert(p).second) << "partition " << p << " twice";
      }
    }
    for (size_t p = 0; p < parts.size(); ++p) {
      if (parts[p] > 0) {
        EXPECT_TRUE(seen.count(static_cast<uint32_t>(p)))
            << "partition " << p << " unassigned";
      }
    }
  }
};

TEST_F(WorkingSetTest, UniformPartitionsPackTightly) {
  std::vector<uint64_t> parts(16, 100);
  WorkingSetConfig cfg;
  cfg.budget_bytes = 500;
  auto sets = PackWorkingSets(parts, cfg);
  ASSERT_TRUE(sets.ok());
  ExpectCoversAll(parts, *sets);
  EXPECT_EQ(TotalBytes(*sets), 1600u);
  // First set maximizes under budget: 5 partitions of 100.
  EXPECT_EQ((*sets)[0].bytes, 500u);
  for (const auto& ws : *sets) EXPECT_LE(ws.bytes, 500u);
}

TEST_F(WorkingSetTest, KnapsackMaximizesFirstSet) {
  // Sizes 60, 50, 45, 5 with budget 100: knapsack picks 50+45+5 = 100;
  // naive index-order packing gets only 60 (60 + 50 > 100 stops it).
  std::vector<uint64_t> parts = {60, 50, 45, 5};
  WorkingSetConfig cfg;
  cfg.budget_bytes = 100;
  auto knap = PackWorkingSets(parts, cfg);
  ASSERT_TRUE(knap.ok());
  EXPECT_EQ((*knap)[0].bytes, 100u);
  cfg.knapsack_first_set = false;
  auto naive = PackWorkingSets(parts, cfg);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ((*naive)[0].bytes, 60u);
  ExpectCoversAll(parts, *knap);
  ExpectCoversAll(parts, *naive);
}

TEST_F(WorkingSetTest, OversizedPartitionGetsOwnSet) {
  std::vector<uint64_t> parts = {50, 900, 50};
  WorkingSetConfig cfg;
  cfg.budget_bytes = 400;
  auto sets = PackWorkingSets(parts, cfg);
  ASSERT_TRUE(sets.ok());
  ExpectCoversAll(parts, *sets);
  bool found_singleton = false;
  for (const auto& ws : *sets) {
    if (ws.bytes == 900) {
      EXPECT_EQ(ws.partitions.size(), 1u);
      found_singleton = true;
    } else {
      EXPECT_LE(ws.bytes, 400u);
    }
  }
  EXPECT_TRUE(found_singleton);
}

TEST_F(WorkingSetTest, AtMostOneOversizedPerGreedySet) {
  // The paper's constraint applies to the greedily packed sets after the
  // first (knapsack) one: at most one oversized partition each. Make the
  // first set absorb the small partitions by shrinking the budget.
  std::vector<uint64_t> parts = {300, 300, 300, 300, 10, 10};
  WorkingSetConfig cfg;
  cfg.budget_bytes = 320;
  cfg.oversize_threshold = 250;
  auto sets = PackWorkingSets(parts, cfg);
  ASSERT_TRUE(sets.ok());
  ExpectCoversAll(parts, *sets);
  for (size_t i = 1; i < sets->size(); ++i) {
    int oversized = 0;
    for (uint32_t p : (*sets)[i].partitions) {
      if (parts[p] > 250) ++oversized;
    }
    EXPECT_LE(oversized, 1) << "greedy set with " << oversized
                            << " oversized partitions";
  }
}

TEST_F(WorkingSetTest, EmptyPartitionsIgnored) {
  std::vector<uint64_t> parts = {0, 100, 0, 100};
  WorkingSetConfig cfg;
  cfg.budget_bytes = 300;
  auto sets = PackWorkingSets(parts, cfg);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(TotalBytes(*sets), 200u);
}

TEST_F(WorkingSetTest, RejectsZeroBudget) {
  WorkingSetConfig cfg;
  EXPECT_FALSE(PackWorkingSets({1, 2, 3}, cfg).ok());
}

// ---------------------------------------------------------------------------
// Streaming probe (Section IV-A)
// ---------------------------------------------------------------------------

class StreamingProbeTest : public ::testing::Test {
 protected:
  hw::HardwareSpec spec_;
  sim::Device device_{spec_};
};

TEST_F(StreamingProbeTest, MatchesOracleAcrossChunks) {
  const auto r = data::MakeUniqueUniform(20000, 1);
  const auto s = data::MakeUniformProbe(100000, 20000, 2);
  StreamingProbeConfig cfg;
  cfg.join.partition.pass_bits = {5, 4};
  auto run = StreamingProbeExecute(&device_, r, s, cfg);
  ASSERT_TRUE(run.ok()) << run.status();
  const gpujoin::JoinStats* stats = &run->stats;
  const auto oracle = data::JoinOracle(r, s);
  EXPECT_EQ(stats->matches, oracle.matches);
  EXPECT_EQ(stats->payload_sum, oracle.payload_sum);
  EXPECT_GT(stats->seconds, 0.0);
  EXPECT_GT(stats->transfer_s, 0.0);
}

TEST_F(StreamingProbeTest, MaterializationAddsD2HTraffic) {
  const auto r = data::MakeUniqueUniform(20000, 3);
  const auto s = data::MakeUniformProbe(80000, 20000, 4);
  StreamingProbeConfig agg, mat;
  agg.join.partition.pass_bits = {5, 4};
  mat = agg;
  mat.materialize_to_host = true;
  auto a_run = StreamingProbeExecute(&device_, r, s, agg);
  auto m_run = StreamingProbeExecute(&device_, r, s, mat);
  ASSERT_TRUE(a_run.ok());
  ASSERT_TRUE(m_run.ok());
  const gpujoin::JoinStats* a = &a_run->stats;
  const gpujoin::JoinStats* m = &m_run->stats;
  EXPECT_EQ(a->matches, m->matches);
  EXPECT_GT(m->transfer_s, a->transfer_s);
  // Fig 11: materialization introduces an overhead "but does not cause a
  // significant performance deterioration" (D2H overlaps on engine 2).
  EXPECT_LT(m->seconds, a->seconds * 1.5);
}

TEST_F(StreamingProbeTest, ThroughputApproachesPcieBound) {
  // Large probe: the pipeline must be transfer-bound, i.e. total time
  // close to the probe's DMA time.
  const auto r = data::MakeUniqueUniform(30000, 5);
  const auto s = data::MakeUniformProbe(600000, 30000, 6);
  StreamingProbeConfig cfg;
  cfg.join.partition.pass_bits = {5, 4};
  // Paper-scale chunks keep per-chunk kernel-launch overhead negligible
  // relative to its transfer; at toy scale that means fewer, larger
  // chunks.
  cfg.chunk_tuples = 100000;
  auto run = StreamingProbeExecute(&device_, r, s, cfg);
  ASSERT_TRUE(run.ok());
  const gpujoin::JoinStats* stats = &run->stats;
  const hw::PcieModel pcie(spec_.pcie);
  const double transfer_floor = pcie.DmaSeconds(s.bytes());
  EXPECT_GT(stats->seconds, transfer_floor * 0.95);
  EXPECT_LT(stats->seconds, transfer_floor * 1.6);
}

TEST_F(StreamingProbeTest, EmptyInputs) {
  data::Relation empty;
  const auto r = data::MakeUniqueUniform(1000, 7);
  StreamingProbeConfig cfg;
  cfg.join.partition.pass_bits = {4};
  auto a = StreamingProbeExecute(&device_, empty, r, cfg);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->stats.matches, 0u);
  auto b = StreamingProbeExecute(&device_, r, empty, cfg);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->stats.matches, 0u);
}

// A prepared build stands in for the run's own upload and partitioning:
// with and without it the stats and the solo op DAG are identical.
TEST_F(StreamingProbeTest, PreparedBuildRunEqualsStandaloneRun) {
  const auto r = data::MakeUniqueUniform(20000, 9);
  const auto s = data::MakeUniformProbe(70000, 20000, 10);
  for (const bool materialize : {false, true}) {
    SCOPED_TRACE(materialize ? "materialize" : "aggregate");
    StreamingProbeConfig cfg;
    cfg.join.partition.pass_bits = {5, 4};
    cfg.materialize_to_host = materialize;
    auto standalone = StreamingProbeExecute(&device_, r, s, cfg);
    ASSERT_TRUE(standalone.ok()) << standalone.status();
    auto prepared = gpujoin::PreparePartitionedBuild(&device_, r, cfg.join);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    auto reused = StreamingProbeExecute(&device_, r, s, cfg, &*prepared);
    ASSERT_TRUE(reused.ok()) << reused.status();

    const gpujoin::JoinStats& a = standalone->stats;
    const gpujoin::JoinStats& b = reused->stats;
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.payload_sum, b.payload_sum);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.partition_s, b.partition_s);
    EXPECT_DOUBLE_EQ(a.join_s, b.join_s);
    EXPECT_DOUBLE_EQ(a.transfer_s, b.transfer_s);
    EXPECT_EQ(standalone->build_h2d, reused->build_h2d);
    EXPECT_EQ(standalone->build_part, reused->build_part);
    const std::vector<sim::Op>& ops_a = standalone->timeline.ops();
    const std::vector<sim::Op>& ops_b = reused->timeline.ops();
    ASSERT_EQ(ops_a.size(), ops_b.size());
    for (size_t i = 0; i < ops_a.size(); ++i) {
      SCOPED_TRACE("op " + std::to_string(i));
      EXPECT_EQ(ops_a[i].lane, ops_b[i].lane);
      EXPECT_DOUBLE_EQ(ops_a[i].duration_s, ops_b[i].duration_s);
      EXPECT_EQ(ops_a[i].deps, ops_b[i].deps);
      EXPECT_EQ(ops_a[i].label, ops_b[i].label);
    }
  }
}

// ---------------------------------------------------------------------------
// Co-processing (Sections IV-B/C/D)
// ---------------------------------------------------------------------------

class CoProcessTest : public ::testing::Test {
 protected:
  hw::HardwareSpec spec_;
  sim::Device device_{spec_};

  CoProcessConfig BaseConfig() {
    CoProcessConfig cfg;
    cfg.join.partition.pass_bits = {5, 4};
    cfg.chunk_tuples = 16384;
    return cfg;
  }
};

TEST_F(CoProcessTest, MatchesOracle) {
  const auto r = data::MakeUniqueUniform(60000, 11);
  const auto s = data::MakeUniformProbe(120000, 60000, 12);
  auto stats = CoProcessJoin(&device_, r, s, BaseConfig());
  ASSERT_TRUE(stats.ok()) << stats.status();
  const auto oracle = data::JoinOracle(r, s);
  EXPECT_EQ(stats->matches, oracle.matches);
  EXPECT_EQ(stats->payload_sum, oracle.payload_sum);
  EXPECT_GT(stats->cpu_s, 0.0);
  EXPECT_GT(stats->transfer_s, 0.0);
}

TEST_F(CoProcessTest, SkewedInputsStillCorrect) {
  const auto r = data::MakeZipf(50000, 10000, 1.0, 13, 5);
  const auto s = data::MakeZipf(50000, 10000, 1.0, 14, 5);
  auto stats = CoProcessJoin(&device_, r, s, BaseConfig());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->matches, data::JoinOracle(r, s).matches);
}

TEST_F(CoProcessTest, MoreThreadsFasterUntilPlateau) {
  const auto r = data::MakeUniqueUniform(100000, 15);
  const auto s = data::MakeUniformProbe(100000, 100000, 16);
  double prev = 1e9;
  std::vector<double> times;
  for (int threads : {2, 6, 16}) {
    auto cfg = BaseConfig();
    cfg.cpu.threads = threads;
    auto stats = CoProcessJoin(&device_, r, s, cfg);
    ASSERT_TRUE(stats.ok());
    times.push_back(stats->seconds);
  }
  // 2 -> 6 threads: clear speedup (CPU-bound regime of Fig. 13).
  EXPECT_LT(times[1], times[0]);
  // 6 -> 16: little further gain (transfer-bound plateau).
  EXPECT_LT(times[2], times[1] * 1.05);
  (void)prev;
}

TEST_F(CoProcessTest, StagingBeatsDirectFarSocketCopies) {
  const auto r = data::MakeUniqueUniform(100000, 17);
  const auto s = data::MakeUniformProbe(100000, 100000, 18);
  auto staged_cfg = BaseConfig();
  auto direct_cfg = BaseConfig();
  direct_cfg.staging = false;
  auto staged = CoProcessJoin(&device_, r, s, staged_cfg);
  auto direct = CoProcessJoin(&device_, r, s, direct_cfg);
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(staged->matches, direct->matches);
  // Fig. 16: staging improves throughput.
  EXPECT_LT(staged->seconds, direct->seconds);
}

TEST_F(CoProcessTest, MaterializationOverheadIsBounded) {
  const auto r = data::MakeUniqueUniform(80000, 19);
  const auto s = data::MakeUniformProbe(80000, 80000, 20);
  auto agg_cfg = BaseConfig();
  auto mat_cfg = BaseConfig();
  mat_cfg.materialize_to_host = true;
  auto agg = CoProcessJoin(&device_, r, s, agg_cfg);
  auto mat = CoProcessJoin(&device_, r, s, mat_cfg);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(mat.ok());
  EXPECT_GE(mat->seconds, agg->seconds);
  EXPECT_LT(mat->seconds, agg->seconds * 1.5);
}

TEST_F(CoProcessTest, RejectsZeroChunkTuples) {
  const auto r = data::MakeUniqueUniform(4096, 21);
  const auto s = data::MakeUniformProbe(8192, 4096, 22);
  auto cfg = BaseConfig();
  cfg.chunk_tuples = 0;
  auto stats = CoProcessJoin(&device_, r, s, cfg);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kInvalid);
  EXPECT_NE(stats.status().message().find("chunk_tuples"), std::string::npos)
      << stats.status();
}

TEST_F(CoProcessTest, RejectsFarSocketFractionOutsideUnitInterval) {
  const auto r = data::MakeUniqueUniform(4096, 23);
  const auto s = data::MakeUniformProbe(8192, 4096, 24);
  for (const double fraction : {-0.25, 1.5}) {
    for (const bool staging : {true, false}) {
      SCOPED_TRACE("far_socket_fraction " + std::to_string(fraction) +
                   (staging ? " staged" : " direct"));
      auto cfg = BaseConfig();
      cfg.far_socket_fraction = fraction;
      cfg.staging = staging;
      auto stats = CoProcessJoin(&device_, r, s, cfg);
      ASSERT_FALSE(stats.ok());
      EXPECT_EQ(stats.status().code(), util::StatusCode::kInvalid);
      EXPECT_NE(stats.status().message().find("far_socket_fraction"),
                std::string::npos)
          << stats.status();
    }
  }
  // The interval's ends are valid.
  for (const double fraction : {0.0, 1.0}) {
    auto cfg = BaseConfig();
    cfg.far_socket_fraction = fraction;
    cfg.staging = false;
    auto stats = CoProcessJoin(&device_, r, s, cfg);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->matches, data::JoinOracle(r, s).matches);
  }
}

TEST_F(CoProcessTest, ExecutePlannedRejectsBadPipelineConfig) {
  const auto r = data::MakeUniqueUniform(4096, 25);
  const auto s = data::MakeUniformProbe(8192, 4096, 26);
  auto plan = PlanCoProcessJoinShared(&device_, r, s, BaseConfig());
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto cfg = BaseConfig();
  cfg.chunk_tuples = 0;
  auto run = CoProcessExecutePlanned(&device_, *plan, cfg);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kInvalid);
}

// Precomputed host partitions are indexed partition by partition for
// every build partition, and each is uploaded keys.size() tuples long:
// a wrong partition count or a short payload column is refused with a
// typed kInvalid, by the shared and the consuming planner alike.
TEST_F(CoProcessTest, PlanRejectsMalformedHostPartitions) {
  const auto r = data::MakeUniqueUniform(4096, 27);
  const auto s = data::MakeUniformProbe(8192, 4096, 28);
  const CoProcessConfig cfg = BaseConfig();
  const hw::CpuCostModel cpu_model(spec_.cpu);
  auto r_parts = cpu::CpuRadixPartition(r, cfg.cpu, cpu_model);
  auto s_parts = cpu::CpuRadixPartition(s, cfg.cpu, cpu_model);
  ASSERT_TRUE(r_parts.ok() && s_parts.ok());

  cpu::HostPartitions short_column = *r_parts;
  short_column.parts[3].payloads.pop_back();
  cpu::HostPartitions missing_part = *s_parts;
  missing_part.parts.pop_back();

  auto shared = PlanCoProcessJoinShared(&device_, r, s, cfg, &short_column);
  ASSERT_FALSE(shared.ok());
  EXPECT_EQ(shared.status().code(), util::StatusCode::kInvalid);
  EXPECT_NE(shared.status().message().find("build partition 3 has"),
            std::string::npos)
      << shared.status();
  shared = PlanCoProcessJoinShared(&device_, r, s, cfg, nullptr,
                                   &missing_part);
  ASSERT_FALSE(shared.ok());
  EXPECT_EQ(shared.status().code(), util::StatusCode::kInvalid);
  EXPECT_NE(shared.status().message().find("probe partitions: 15"),
            std::string::npos)
      << shared.status();

  auto consuming =
      PlanCoProcessJoinConsuming(&device_, short_column, *s_parts, cfg);
  ASSERT_FALSE(consuming.ok());
  EXPECT_EQ(consuming.status().code(), util::StatusCode::kInvalid);
  consuming = PlanCoProcessJoinConsuming(&device_, *r_parts, missing_part, cfg);
  ASSERT_FALSE(consuming.ok());
  EXPECT_EQ(consuming.status().code(), util::StatusCode::kInvalid);

  // Well-formed partitions plan exactly as partitioning in place does.
  auto fresh = PlanCoProcessJoinShared(&device_, r, s, cfg);
  auto reused =
      PlanCoProcessJoinShared(&device_, r, s, cfg, &*r_parts, &*s_parts);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_TRUE(reused.ok()) << reused.status();
  ASSERT_EQ(fresh->runs.size(), reused->runs.size());
  for (size_t i = 0; i < fresh->runs.size(); ++i) {
    EXPECT_EQ(fresh->runs[i].matches, reused->runs[i].matches);
    EXPECT_DOUBLE_EQ(fresh->runs[i].gpu_seconds, reused->runs[i].gpu_seconds);
  }
}

// ---------------------------------------------------------------------------
// Transfer mechanisms (Figs. 21/22)
// ---------------------------------------------------------------------------

class TransferMechTest : public ::testing::Test {
 protected:
  hw::HardwareSpec spec_;
  sim::Device device_{spec_};

  MechanismJoinConfig Config(TransferMechanism mech) {
    MechanismJoinConfig cfg;
    cfg.join.partition.pass_bits = {5, 4};
    cfg.mechanism = mech;
    return cfg;
  }
};

TEST_F(TransferMechTest, AllMechanismsComputeTheSameJoin) {
  const auto r = data::MakeUniqueUniform(30000, 21);
  const auto s = data::MakeUniformProbe(30000, 30000, 22);
  const auto oracle = data::JoinOracle(r, s);
  for (auto mech :
       {TransferMechanism::kGpuResident, TransferMechanism::kUvaLoad,
        TransferMechanism::kUvaPartition, TransferMechanism::kUvaJoin,
        TransferMechanism::kUnifiedMemory}) {
    auto stats = MechanismJoin(&device_, r, s, Config(mech));
    ASSERT_TRUE(stats.ok()) << TransferMechanismName(mech);
    EXPECT_EQ(stats->matches, oracle.matches) << TransferMechanismName(mech);
  }
}

TEST_F(TransferMechTest, MechanismOrderingMatchesFig21) {
  // Resident fastest; each additional UVA stage slower; UM slowest or
  // comparable to full-UVA for in-GPU-sized data.
  const auto r = data::MakeUniqueUniform(50000, 23);
  const auto s = data::MakeUniformProbe(50000, 50000, 24);
  auto resident = MechanismJoin(&device_, r, s,
                                Config(TransferMechanism::kGpuResident));
  auto load = MechanismJoin(&device_, r, s,
                            Config(TransferMechanism::kUvaLoad));
  auto part = MechanismJoin(&device_, r, s,
                            Config(TransferMechanism::kUvaPartition));
  auto join = MechanismJoin(&device_, r, s,
                            Config(TransferMechanism::kUvaJoin));
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(load.ok());
  ASSERT_TRUE(part.ok());
  ASSERT_TRUE(join.ok());
  EXPECT_LT(resident->seconds, load->seconds);
  EXPECT_LT(load->seconds, part->seconds);
  EXPECT_LT(part->seconds, join->seconds);
}

TEST_F(TransferMechTest, ResidentVariantRejectsOversizedData) {
  // Shrink the device so the inputs cannot fit.
  hw::HardwareSpec tiny = spec_;
  tiny.gpu.device_memory_bytes = 64 << 10;
  sim::Device small(tiny);
  const auto r = data::MakeUniqueUniform(10000, 25);
  auto stats = MechanismJoin(&small, r, r,
                             Config(TransferMechanism::kGpuResident));
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kOutOfMemory);
}

TEST_F(TransferMechTest, UmThrashesWhenFootprintExceedsDevice) {
  hw::HardwareSpec tiny = spec_;
  tiny.gpu.device_memory_bytes = 256 << 10;  // 256 KB "GPU"
  sim::Device small(tiny);
  const auto r = data::MakeUniqueUniform(20000, 26);  // 160 KB each side
  MechanismJoinConfig um = Config(TransferMechanism::kUnifiedMemory);
  MechanismJoinConfig uva = Config(TransferMechanism::kUvaJoin);
  auto um_stats = MechanismJoin(&small, r, r, um);
  auto uva_stats = MechanismJoin(&small, r, r, uva);
  ASSERT_TRUE(um_stats.ok());
  ASSERT_TRUE(uva_stats.ok());
  // Fig. 22: UM is the worst mechanism for out-of-GPU joins.
  EXPECT_GT(um_stats->seconds, uva_stats->seconds);
}

// ---- Short payload columns ----
// Every direct entry point reads size() = keys.size() payloads, so a
// relation whose payload column is shorter must be refused with a typed
// kInvalid naming both counts, never read past (an ASan build reports a
// heap-buffer-overflow if it is).

/// 20000 unique keys carrying only 10000 payloads, in a column of
/// exactly that capacity so an overread leaves the allocation.
data::Relation ShortPayloads(uint64_t seed) {
  data::Relation rel = data::MakeUniqueUniform(20000, seed);
  rel.payloads = std::vector<uint32_t>(rel.payloads.begin(),
                                       rel.payloads.begin() + 10000);
  return rel;
}

void ExpectShortColumnRejected(const util::Status& status) {
  EXPECT_EQ(status.code(), util::StatusCode::kInvalid) << status;
  EXPECT_NE(status.message().find("relation has 20000 keys but 10000 "
                                  "payloads"),
            std::string::npos)
      << status;
}

class ShortPayloadColumnTest : public ::testing::Test {
 protected:
  const data::Relation good_ = data::MakeUniqueUniform(20000, 91);
  const data::Relation short_ = ShortPayloads(92);
  hw::HardwareSpec spec_;
  sim::Device device_{spec_};
};

TEST_F(ShortPayloadColumnTest, PartitionedJoinFromHost) {
  gpujoin::PartitionedJoinConfig cfg;
  ExpectShortColumnRejected(
      gpujoin::PartitionedJoinFromHost(&device_, short_, good_, cfg)
          .status());
  ExpectShortColumnRejected(
      gpujoin::PartitionedJoinFromHost(&device_, good_, short_, cfg)
          .status());
}

TEST_F(ShortPayloadColumnTest, PreparePartitionedBuild) {
  ExpectShortColumnRejected(
      gpujoin::PreparePartitionedBuild(&device_, short_, {}).status());
}

TEST_F(ShortPayloadColumnTest, StreamingProbeExecute) {
  const StreamingProbeConfig cfg;
  ExpectShortColumnRejected(
      StreamingProbeExecute(&device_, short_, good_, cfg).status());
  ExpectShortColumnRejected(
      StreamingProbeExecute(&device_, good_, short_, cfg).status());
}

TEST_F(ShortPayloadColumnTest, CoProcessJoin) {
  const CoProcessConfig cfg;
  ExpectShortColumnRejected(
      CoProcessJoin(&device_, short_, good_, cfg).status());
  ExpectShortColumnRejected(
      CoProcessJoin(&device_, good_, short_, cfg).status());
}

TEST_F(ShortPayloadColumnTest, MechanismJoin) {
  const MechanismJoinConfig cfg;
  ExpectShortColumnRejected(
      MechanismJoin(&device_, short_, good_, cfg).status());
  ExpectShortColumnRejected(
      MechanismJoin(&device_, good_, short_, cfg).status());
}

TEST_F(ShortPayloadColumnTest, PlanCoProcessJoinSharedOnRawRelations) {
  const CoProcessConfig cfg;
  ExpectShortColumnRejected(
      PlanCoProcessJoinShared(&device_, short_, good_, cfg).status());
  ExpectShortColumnRejected(
      PlanCoProcessJoinShared(&device_, good_, short_, cfg).status());
}

}  // namespace
}  // namespace gjoin::outofgpu
