// Property sweep: every combination of radix layout, work assignment
// and workload class must produce the oracle's result through the full
// partitioned-join pipeline. This is the broad-coverage net behind the
// targeted tests: any charging, recycling or publishing bug that breaks
// a corner (odd pass splits, three passes, base_shift, duplicates, skew)
// surfaces here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/util/rng.h"

namespace gjoin::gpujoin {
namespace {

enum class Workload { kUnique, kDuplicates, kSkewed, kDisjoint };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kUnique:
      return "unique";
    case Workload::kDuplicates:
      return "duplicates";
    case Workload::kSkewed:
      return "skewed";
    case Workload::kDisjoint:
      return "disjoint";
  }
  return "?";
}

std::pair<data::Relation, data::Relation> MakeWorkload(Workload w, size_t n,
                                                       uint64_t seed) {
  switch (w) {
    case Workload::kUnique:
      return {data::MakeUniqueUniform(n, seed),
              data::MakeUniformProbe(n, n, seed + 1)};
    case Workload::kDuplicates:
      return {data::MakeReplicated(n, 3.0, seed),
              data::MakeReplicated(n, 3.0, seed + 1)};
    case Workload::kSkewed:
      return {data::MakeZipf(n, n / 4, 0.9, seed, 7),
              data::MakeZipf(n, n / 4, 0.9, seed + 1, 7)};
    case Workload::kDisjoint: {
      data::Relation r, s;
      for (uint32_t i = 1; i <= n; ++i) r.Append(2 * i, i);
      for (uint32_t i = 1; i <= n; ++i) s.Append(2 * i + 1, i);
      return {std::move(r), std::move(s)};
    }
  }
  return {};
}

using Param = std::tuple<std::vector<int>, WorkAssignment, Workload, int>;

class JoinPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(JoinPropertyTest, PipelineMatchesOracle) {
  const auto& [pass_bits, assignment, workload, base_shift] = GetParam();
  hw::HardwareSpec spec;
  sim::Device device(spec);

  const size_t n = 12000;
  auto [r, s] = MakeWorkload(workload, n, 0xC0FFEE);
  const auto oracle = data::JoinOracle(r, s);

  PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = pass_bits;
  cfg.partition.assignment = assignment;
  cfg.partition.base_shift = base_shift;
  cfg.join.shared_elems = 2048;
  cfg.join.hash_slots = 512;

  auto stats = PartitionedJoinFromHost(&device, r, s, cfg, /*segments=*/3);
  ASSERT_TRUE(stats.ok()) << stats.status() << " workload "
                          << WorkloadName(workload);
  EXPECT_EQ(stats->matches, oracle.matches) << WorkloadName(workload);
  EXPECT_EQ(stats->payload_sum, oracle.payload_sum);
  EXPECT_GT(stats->seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinPropertyTest,
    ::testing::Combine(
        ::testing::Values(std::vector<int>{7}, std::vector<int>{4, 3},
                          std::vector<int>{3, 2, 2}, std::vector<int>{1, 6}),
        ::testing::Values(WorkAssignment::kBucketAtATime,
                          WorkAssignment::kPartitionAtATime),
        ::testing::Values(Workload::kUnique, Workload::kDuplicates,
                          Workload::kSkewed, Workload::kDisjoint),
        ::testing::Values(0, 3)));

// ---- Aggregate shared-hash joins ----
// Random co-partition layouts around the key-aggregated probe's edges:
// duplicate keys (key 0 included), empty and one-tuple sides, 1 to 2048
// hash slots, build partitions of exactly shared_elems tuples and one
// fewer, and 1 to 8 S buckets per work item. Work items that probe at
// least as many tuples as their partition holds, on a partition filling
// half the hash slots, probe a key-aggregated table; the rest walk
// Listing 2 chains. Every case must match the oracle, and its launch
// stats must equal those of the all-chain-walk execution: each case's
// fingerprint below was recorded before any item probed a table.

/// One random case. Partition p's keys are p + (x << radix_bits) for x
/// drawn from a small domain, so keys repeat and x = 0 in partition 0
/// is key 0.
struct AggregateCase {
  data::Relation r, s;
  RadixPartitionConfig partition;
  CoPartitionJoinConfig join;
};

AggregateCase MakeAggregateCase(uint64_t seed) {
  util::Rng rng(seed);
  AggregateCase c;
  const int radix_bits = 1 + static_cast<int>(rng.Uniform(4));
  const uint32_t parts = 1u << radix_bits;
  c.partition.pass_bits = {radix_bits};
  c.partition.bucket_capacity = 32u << rng.Uniform(2);
  c.partition.num_blocks = 1 + static_cast<int>(rng.Uniform(4));
  c.join.shared_elems = 64u << rng.Uniform(4);
  c.join.hash_slots = 1u << rng.Uniform(12);
  c.join.max_probe_buckets_per_item = 1 + static_cast<uint32_t>(rng.Uniform(8));
  c.join.build_extra_payload_bytes = rng.Uniform(2) != 0 ? 8 : 0;
  const uint32_t elems = c.join.shared_elems;
  // Whole-side shapes: 0 = sized per partition, 1 = empty build,
  // 2 = empty probe, 3 = one build tuple, 4 = one probe tuple.
  const uint64_t side = rng.Uniform(10) < 6 ? 0 : 1 + rng.Uniform(4);
  const uint32_t domain = 1 + static_cast<uint32_t>(rng.Uniform(2 * elems));
  const auto key = [&](uint32_t p, uint32_t dom) {
    return p + (static_cast<uint32_t>(rng.Uniform(dom)) << radix_bits);
  };
  for (uint32_t p = 0; p < parts; ++p) {
    uint32_t r_size;
    switch (rng.Uniform(5)) {
      case 0: r_size = elems; break;
      case 1: r_size = elems - 1; break;
      case 2: r_size = static_cast<uint32_t>(rng.Uniform(2)); break;
      default: r_size = static_cast<uint32_t>(rng.Uniform(elems + 1));
    }
    const uint32_t s_size = static_cast<uint32_t>(rng.Uniform(3 * elems));
    if (side != 1 && side != 3) {
      for (uint32_t i = 0; i < r_size; ++i) {
        c.r.Append(key(p, domain), rng.Next32());
      }
    }
    if (side != 2 && side != 4) {
      // A quarter of the probes miss: their keys lie beyond the domain.
      for (uint32_t i = 0; i < s_size; ++i) {
        c.s.Append(key(p, domain + domain / 3 + 1), rng.Next32());
      }
    }
  }
  if (side == 3) c.r.Append(key(0, domain), rng.Next32());
  if (side == 4) c.s.Append(key(0, domain), rng.Next32());
  return c;
}

constexpr int kAggregateCases = 240;

/// Fingerprints (FNV-1a over matches, payload sum and every launch's
/// name and KernelStats counters) of the cases, recorded while every
/// aggregate shared-hash item walked Listing 2 chains.
constexpr uint64_t kChainWalkFingerprints[kAggregateCases] = {
    0x150a6602a1f1027eull, 0x2e80ee4dcd06ab00ull, 0x9d097f425ac06df6ull,
    0xecd8231c8ea1adb2ull, 0x4e13b853738e846dull, 0x1bd448d90fdd5ac3ull,
    0x219abf99f2aed2aaull, 0x86616a571ea70090ull, 0x6b93e6ab146991b1ull,
    0x826eb662808871b9ull, 0xb926b5465f1226c8ull, 0x05d8bb1639177502ull,
    0xeb1ff4012ddb4e8aull, 0x9b57366c35c570b7ull, 0x088539359b5df285ull,
    0xd5a974ccf6f06460ull, 0x4b3d58eb4fa86872ull, 0xd8e8685317116765ull,
    0x23bb1144fd323c6full, 0x93960d3ca9755564ull, 0x657b196bcb621c06ull,
    0x6be5969ad67174f1ull, 0x312dd79bb60d52baull, 0x435427e8e7277e5eull,
    0x9d19eb2255357d67ull, 0xacca554da6123b68ull, 0x28c34b806b3163fcull,
    0xe16a881c2cefdb3full, 0x91edccb7d8acad7dull, 0x1d9c94b20d011b5full,
    0x08c5eef09901069eull, 0xb6180cd6c44d1f40ull, 0x602f46c1c17488bcull,
    0xadaa5d7159519316ull, 0x7e51fd6236c8307bull, 0x658f17c95acdacb6ull,
    0xb74b4f6335339c15ull, 0x53c5b3ddb6752f81ull, 0xc4ffd89de75aca16ull,
    0xd022c1eb1d78df23ull, 0xd24b9922d720c784ull, 0xd080ddc4d3d4b925ull,
    0x553963626f4ba428ull, 0xc0db8212f8e3dd02ull, 0x33c2474dc2a4091bull,
    0xf16a43ddfd7be2b7ull, 0xfa920bb82cf34efcull, 0x87948747cced55f5ull,
    0x56469416aacf74c1ull, 0xa2f2fea1fb9ba017ull, 0xbfe88c3f7a84610cull,
    0x892d7c9079464399ull, 0x11662daa3cccfcbeull, 0x2885d2a464aeca63ull,
    0x0e179be6f3cec3d5ull, 0xd323e9f7cef8a895ull, 0xe7764bae31747d95ull,
    0x858c9b1b46a705dfull, 0x921ba33d32e6c9f3ull, 0x8f53baf779d641d9ull,
    0x545cee1d06e1b832ull, 0x97cc247977825fc4ull, 0x9f7a3a5dd57a2e77ull,
    0x146cedbee710878full, 0x3df646f8d57e41ffull, 0xfc95d0e9dcd20eddull,
    0xaf338fff5b267d3eull, 0x4c4775ee1a061fdcull, 0x742cc88228d03a47ull,
    0x5a024a20eda43e42ull, 0xdf4c41318f02d557ull, 0x97cadd96a96dffdfull,
    0xa6d3047ddd2852a0ull, 0x9017244c8f8e9fc6ull, 0x1ffaf2550e45f0fcull,
    0xb5d30771b9e88135ull, 0xf1f96d1824d54175ull, 0x88e2508f2e63fa84ull,
    0x587261015b06d663ull, 0x8ac839de38e1428cull, 0x586954ef09c0fca5ull,
    0x037496c7e60b990bull, 0x207b51e0985a2424ull, 0x7459239be94725ccull,
    0x8b9dccea9681d5f8ull, 0xe35a32d76f848742ull, 0x4b6ac58de33f8838ull,
    0x39d3740650265b87ull, 0x6121fbad1f4be935ull, 0x88ee295fe260985bull,
    0xcbd72a02715a1d2full, 0xc5d21b9f77a6467eull, 0x617253a5728c3c67ull,
    0xfd434e441789cdecull, 0x6149b289476462aaull, 0x32e2ab8db23f32d7ull,
    0x96eacbf5aca4602dull, 0x9e3861afc687cc75ull, 0xd7f737a4f2dc96aaull,
    0x0cf4858b2fd03a46ull, 0x6ede4d1741585139ull, 0x3fe3343c47e910c2ull,
    0xcf02cab3bdc6b3e6ull, 0xbfd4de83f1999228ull, 0xa30c748590af70a5ull,
    0x5e83d5c50b010ffeull, 0x8c61f034c5be1441ull, 0x5b9c890673b3dee0ull,
    0x379e2cea1cefd6b9ull, 0x979dfc0635e970f7ull, 0x4b080dc67d19ea90ull,
    0x4f8a253aa07bb5f6ull, 0x3d9cdaf9688501a9ull, 0x1e28c8ed2666e0e7ull,
    0xad01f434278e0871ull, 0x826904d863395811ull, 0x6a8093dc146408eeull,
    0x3ba535756c7f010cull, 0x5b82569a4d0904daull, 0xc1653d9b260701b7ull,
    0x53c66680199094e1ull, 0xd61b47f874fd583dull, 0xc6d00d9c4d8fea66ull,
    0x237c589fd8ea8870ull, 0x72e8d3c78764208dull, 0x0620b45ca6548cd1ull,
    0x99cd0f92885fbbcbull, 0x6a596d8b7f32520dull, 0x7ba98959697a7967ull,
    0xc36ae311c7e38705ull, 0x991b758df41d0ceeull, 0xf3d38cd72c2ea2ddull,
    0x91960980379764c1ull, 0xd5d1752a88e17738ull, 0x6c65c5f9462666ccull,
    0xe7a539acc5ac6be7ull, 0x9ee19eacb6d2b00bull, 0x01928c8a4b0e038dull,
    0xe3560c90e042b85bull, 0xc86797fc66830508ull, 0x634cf2003e6c3edbull,
    0xb548298a3e19f94aull, 0xabec0f4370116549ull, 0x28b8d12ed6cb2311ull,
    0x8fc1e16b39101012ull, 0xc105746111116e3eull, 0x2b50ab6328998a32ull,
    0xc8ae51af84423e50ull, 0x4cba6a1a4820e614ull, 0x3a8ac40121abe80aull,
    0xb07fd8e63b7be063ull, 0x1670b461af271f33ull, 0xb665e4e812445c90ull,
    0xa1f19a8e8c8b26feull, 0x527934b6ead8ca6eull, 0xdaf456cf837620b6ull,
    0x151a90df9439b709ull, 0x33a89b952d9271e8ull, 0xbf774e0a75dcc6abull,
    0x67a1df5767e364f4ull, 0xdced3c089b5d3b65ull, 0x907279d02ae039fdull,
    0x3eb1b298637329b1ull, 0x145162bc6f2034e7ull, 0xfb40e12627bb4f6full,
    0xbb8a4c0da1bb3f2aull, 0xab20e232896d4099ull, 0x39bc28a990f2804bull,
    0xb8c299680a6565adull, 0x209a090a3dc179f6ull, 0xde8309cc30af9ec6ull,
    0x24f750aaf3dcd7e1ull, 0xe2f527ff391386f0ull, 0x530b8fed711ef2edull,
    0x6bf1abb6eab53b93ull, 0xc262ed959b9f99efull, 0x758173389a7cd236ull,
    0x76aeb9e104bc6c4eull, 0x0cd89d275470a857ull, 0x47d72013cd02c4c0ull,
    0x77804de3ccea775cull, 0xa7d0bae37f812d1dull, 0x1038d02cb57c2da0ull,
    0xd18d423d0ea65efbull, 0x4073f620650278a7ull, 0xa02d2fc6b363cfdeull,
    0xfed3bc05b1cb93c9ull, 0xc12873ab9b9a7e1eull, 0x7488136528a5abfbull,
    0x125e7a343f04860dull, 0x6df0c736fb55a3b3ull, 0xdb2be872d5d24f35ull,
    0x1c3e1c98975eecbfull, 0x8bc356f855bd4d5aull, 0xe6ee86073ac8ad41ull,
    0xc6e5822e921ae1a8ull, 0x4d6e1048abf72875ull, 0x9dc02bf6c4eef928ull,
    0x528776cb0a4d34aaull, 0x7c336e1df5b98f32ull, 0xe0727af365796c1bull,
    0xb15022e4bceaac1bull, 0x5c491573e2f83361ull, 0xfd4285f76e22de80ull,
    0xc69e44eb9939e07eull, 0xad56e6acc0aa52ccull, 0x06e4895e4aa0ab6eull,
    0xaad8e50f67b652cdull, 0xf1275a08bf24ab01ull, 0xc049927ae094ff57ull,
    0x70a25cca26ca3fffull, 0x73a76213fe7e73a1ull, 0xae75eaabea3caf5full,
    0xcf56c93cfb49cef7ull, 0x859299ca013692ddull, 0x3424304d6123cb60ull,
    0x65db7311e37fabdbull, 0x80f2c614740e1fb8ull, 0x498d29357557807eull,
    0x98fc013563102c7eull, 0xd79db7ac704afb6bull, 0x3dec1466c19e0b35ull,
    0x486e6c715e9eed35ull, 0xe4ac8a1b79d660efull, 0x812171df9acf8725ull,
    0xd2f55dc5bb9aef1cull, 0x263c386d45b6e674ull, 0xaeea6f3d93bfb9f4ull,
    0x3786b092d87f031aull, 0xb17403c9a877fee1ull, 0x852e87b9e479fa9aull,
    0x1be4ec352b18db91ull, 0xbe5d1412a3fde132ull, 0xb799b530cc099fa4ull,
    0x15579c5d6115c202ull, 0xbaf3acc9a1baadf6ull, 0xe3e7298bbc8d4bdfull,
    0xc80c17774b45f596ull, 0x511b8a5eaba27dc6ull, 0x104065b5bd2e3235ull,
};

/// One aggregate join of a case on a fresh device: its result and the
/// fingerprint of that result and the launch profile.
struct AggregateRun {
  CoPartitionJoinResult result;
  uint64_t fingerprint = 14695981039346656037ull;
};

util::Result<AggregateRun> RunAggregateCase(const AggregateCase& c) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  GJOIN_ASSIGN_OR_RETURN(DeviceRelation rd,
                         DeviceRelation::Upload(&device, c.r));
  GJOIN_ASSIGN_OR_RETURN(DeviceRelation sd,
                         DeviceRelation::Upload(&device, c.s));
  GJOIN_ASSIGN_OR_RETURN(PartitionedRelation rp,
                         RadixPartition(&device, rd, c.partition));
  GJOIN_ASSIGN_OR_RETURN(PartitionedRelation sp,
                         RadixPartition(&device, sd, c.partition));
  AggregateRun run;
  GJOIN_ASSIGN_OR_RETURN(run.result,
                         JoinCoPartitions(&device, rp, sp, c.join));
  uint64_t& h = run.fingerprint;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ull;
    }
  };
  mix(run.result.matches);
  mix(run.result.payload_sum);
  for (const sim::ProfileEntry& e : device.profile()) {
    for (const char ch : e.name) mix(static_cast<unsigned char>(ch));
    const hw::KernelStats& k = e.stats;
    for (const uint64_t v :
         {k.coalesced_read_bytes, k.coalesced_write_bytes,
          k.scatter_write_bytes, k.random_transactions,
          k.random_working_set_bytes, k.shared_bytes, k.shared_atomics,
          k.device_atomics, k.total_cycles, k.max_block_cycles,
          k.num_blocks}) {
      mix(v);
    }
  }
  return run;
}

std::string CaseTrace(const char* suite, int index, uint64_t seed,
                      const AggregateCase& c) {
  return "seed " + std::to_string(seed) + " (repro: " +
         "gpujoin_property_test --gtest_filter='Seeds/" + suite + ".*/" +
         std::to_string(index) + "'): |R| " + std::to_string(c.r.size()) +
         " |S| " + std::to_string(c.s.size()) + " hash_slots " +
         std::to_string(c.join.hash_slots) + " shared_elems " +
         std::to_string(c.join.shared_elems) + " max_probe_buckets_per_item " +
         std::to_string(c.join.max_probe_buckets_per_item);
}

class AggregateSharedHashPropertyTest
    : public ::testing::TestWithParam<int> {};

TEST_P(AggregateSharedHashPropertyTest, MatchesOracleAndChainWalkStats) {
  const uint64_t seed = 0xA66 + static_cast<uint64_t>(GetParam());
  const AggregateCase c = MakeAggregateCase(seed);
  SCOPED_TRACE(
      CaseTrace("AggregateSharedHashPropertyTest", GetParam(), seed, c));
  const data::OracleResult oracle = data::JoinOracle(c.r, c.s);
  auto run = RunAggregateCase(c);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->result.matches, oracle.matches);
  EXPECT_EQ(run->result.payload_sum, oracle.payload_sum);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016llxull",
                static_cast<unsigned long long>(run->fingerprint));
  EXPECT_EQ(run->fingerprint, kChainWalkFingerprints[GetParam()])
      << "launch stats differ from the chain walks'; fingerprint " << hex;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateSharedHashPropertyTest,
                         ::testing::Range(0, kAggregateCases));

// ---- Oversized aggregate shared-hash joins ----
// Build partitions beyond shared_elems run the kernel's block-nested-loop
// fallback: one table per shared_elems chunk of R_p, S rescanned per
// chunk. Random cases around the host's chunk-resolved probe of it:
// R_p from shared_elems + 1 to 8 x shared_elems next to partitions that
// fit, duplicate keys (key 0 included) whose copies land in different
// chunks, wide payloads on either side (so per-chunk hits reach the
// gather charges), and 1 to 8 S buckets per work item. Every fifth case
// has hash_slots = 8 x shared_elems, so the table's slot rows outnumber
// the build tuples and are mostly empty; every eighth case gives one
// partition a hot key with more than 65535 copies (each chunk holds
// fewer). Each case's fingerprint was recorded from
// the slot-sorted-index implementation that preceded the chunk-resolved
// table.

constexpr int kOversizedCases = 64;
/// Hot keys carry at least this many copies: more than a 16-bit count.
constexpr uint32_t kHotCopies = 1u << 16;

bool OversizedCaseHasWideSlotTable(int index) { return index % 5 == 4; }
bool OversizedCaseHasHotKey(int index) { return index % 8 == 7; }

AggregateCase MakeOversizedCase(int index) {
  util::Rng rng(0x0F5A + static_cast<uint64_t>(index));
  AggregateCase c;
  const int radix_bits = 1 + static_cast<int>(rng.Uniform(3));
  const uint32_t parts = 1u << radix_bits;
  c.partition.pass_bits = {radix_bits};
  c.partition.bucket_capacity = 32u << rng.Uniform(2);
  c.partition.num_blocks = 1 + static_cast<int>(rng.Uniform(4));
  const int elems_log2 = 6 + static_cast<int>(rng.Uniform(3));
  c.join.shared_elems = 1u << elems_log2;
  c.join.hash_slots =
      OversizedCaseHasWideSlotTable(index)
          ? 8 * c.join.shared_elems
          : 1u << rng.Uniform(static_cast<uint64_t>(elems_log2) + 3);
  c.join.max_probe_buckets_per_item = 1 + static_cast<uint32_t>(rng.Uniform(8));
  switch (rng.Uniform(4)) {
    case 0: c.join.build_extra_payload_bytes = 8; break;
    case 1: c.join.probe_extra_payload_bytes = 40; break;
    case 2:
      c.join.build_extra_payload_bytes = 4;
      c.join.probe_extra_payload_bytes = 64;
      break;
    default: break;
  }
  const uint32_t elems = c.join.shared_elems;
  const uint32_t domain = 1 + static_cast<uint32_t>(rng.Uniform(2 * elems));
  const auto key = [&](uint32_t p, uint32_t dom) {
    // Partition 0 draws key 0 a sixteenth of the time, so its copies
    // spread over every chunk.
    const uint32_t x = p == 0 && rng.Uniform(16) == 0
                           ? 0
                           : static_cast<uint32_t>(rng.Uniform(dom));
    return p + (x << radix_bits);
  };
  const uint32_t hot_p = OversizedCaseHasHotKey(index)
                             ? static_cast<uint32_t>(rng.Uniform(parts))
                             : parts;
  for (uint32_t p = 0; p < parts; ++p) {
    // Mostly oversized partitions, some that fit, a few empty.
    uint32_t r_size;
    switch (rng.Uniform(8)) {
      case 0: r_size = 0; break;
      case 1: r_size = static_cast<uint32_t>(rng.Uniform(elems + 1)); break;
      case 2: r_size = elems + 1; break;
      default:
        r_size = elems + 1 + static_cast<uint32_t>(rng.Uniform(7 * elems));
    }
    const uint32_t s_size = static_cast<uint32_t>(rng.Uniform(3 * elems));
    for (uint32_t i = 0; i < r_size; ++i) {
      c.r.Append(key(p, domain), rng.Next32());
    }
    if (p == hot_p) {
      const uint32_t hot = p + (1u << radix_bits);
      const uint32_t copies =
          kHotCopies + static_cast<uint32_t>(rng.Uniform(elems));
      for (uint32_t i = 0; i < copies; ++i) c.r.Append(hot, rng.Next32());
      // Make sure the hot key is probed.
      c.s.Append(hot, rng.Next32());
    }
    // A quarter of the probes miss: their keys lie beyond the domain.
    for (uint32_t i = 0; i < s_size; ++i) {
      c.s.Append(key(p, domain + domain / 3 + 1), rng.Next32());
    }
  }
  return c;
}

/// Fingerprints (as kChainWalkFingerprints) of the oversized cases,
/// recorded from the slot-sorted-index implementation.
constexpr uint64_t kSlotIndexFingerprints[kOversizedCases] = {
    0xf0d81f80a10d153cull, 0x2e27e253d3a599d1ull, 0x5ea03058b33f30afull,
    0x92da1f13ef09bae3ull, 0x697768791177ee24ull, 0x060d996b83bf3055ull,
    0xba8489b9378d127full, 0x512959186eb0ac07ull, 0xbd8c1d5215d5f4b6ull,
    0x58e758f23bf494e9ull, 0x64001006f6c8153dull, 0x3402214bbfcb3be3ull,
    0xa9d457f4d21e4aabull, 0xc39f98dd7dbd9286ull, 0xf30ce15321d56002ull,
    0x1a205466c41d0746ull, 0x9fd6a80a1a31fc11ull, 0x2b2cf569094d1f80ull,
    0x1049c8ca12eb1643ull, 0x47a3bd33f87c3dfdull, 0x384eb9b89f2c0bc0ull,
    0x6f28247234bce62aull, 0x6e656016b7eb918bull, 0xe32accb695750822ull,
    0xcec1b5604eef98a0ull, 0xcd457a5a0ad70442ull, 0x6cd2f7fcdfa11c30ull,
    0xc08ad98f4138076eull, 0x6d00c6d0fd06c087ull, 0xd5f8c09261b30fb1ull,
    0x1cb53527e4fb3733ull, 0x136aa54f71c8b141ull, 0x2b186f66f04ff056ull,
    0x95a72ed8ce9467f4ull, 0x973a4c99c84098dcull, 0xc3e8ad8ef0b968daull,
    0xe00e636d9c0898b4ull, 0x051311e92b1ea2a6ull, 0xe3db27dac753f196ull,
    0xa3723cdab2b01936ull, 0x9f2baa65f961eed8ull, 0x58ea0adc51b84b00ull,
    0x0641a2200d88af6cull, 0xcea159a55c4dae9bull, 0xf28980ef0c113358ull,
    0xd133aa560629a30cull, 0xfc0083e4f36d3505ull, 0x4daa518f181781a1ull,
    0xeab5d0173951d4eeull, 0xd85e037ab7e4b6f4ull, 0x0127c663f48378e2ull,
    0x1a7c6fbf4544dec1ull, 0x9b1fdd8a3df967deull, 0x41b3e3d4ff4241bfull,
    0xad94220ee03db7daull, 0xbfed94bf6e3d3787ull, 0x91797ae7fd3e50dfull,
    0x3a2dff914f15cebcull, 0x4d7b60800af47a88ull, 0xef89bd564f0cda11ull,
    0x75175d77ec03ecf7ull, 0xee45cfede122254eull, 0xe0716d52e028952aull,
    0x87068728d79f51beull,
};

/// Fingerprint of MakeManyDistinctKeysCase(), recorded likewise.
constexpr uint64_t kManyDistinctKeysFingerprint = 0x173c7f15bef44423ull;

class OversizedAggregatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OversizedAggregatePropertyTest, MatchesOracleAndSlotIndexStats) {
  const int index = GetParam();
  const AggregateCase c = MakeOversizedCase(index);
  SCOPED_TRACE(CaseTrace("OversizedAggregatePropertyTest", index,
                         0x0F5A + static_cast<uint64_t>(index), c));
  const data::OracleResult oracle = data::JoinOracle(c.r, c.s);
  auto run = RunAggregateCase(c);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->result.matches, oracle.matches);
  EXPECT_EQ(run->result.payload_sum, oracle.payload_sum);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016llxull",
                static_cast<unsigned long long>(run->fingerprint));
  EXPECT_EQ(run->fingerprint, kSlotIndexFingerprints[index])
      << "launch stats differ from the slot index's; fingerprint " << hex;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OversizedAggregatePropertyTest,
                         ::testing::Range(0, kOversizedCases));

/// Builds the case of ManyDistinctKeys: each of two partitions holds 160
/// shared_elems chunks of distinct keys, more than a chunk-resolved
/// table's key table holds before it grows, then duplicates of them
/// (key 0 included) in later chunks.
AggregateCase MakeManyDistinctKeysCase() {
  util::Rng rng(0x6A0);
  AggregateCase c;
  c.partition.pass_bits = {1};
  c.join.shared_elems = 64;
  c.join.hash_slots = 128;
  c.join.build_extra_payload_bytes = 8;
  constexpr uint32_t kKeys = 2 * 160 * 64;
  // Distinct keys scattered over the key space (an odd multiplier is a
  // bijection on 32 bits).
  const auto key = [](uint32_t i) { return i * 2654435761u; };
  for (uint32_t i = 0; i < kKeys; ++i) c.r.Append(key(i), rng.Next32());
  for (uint32_t i = 0; i < kKeys / 4; ++i) {
    const uint32_t k =
        i % 64 == 0 ? 0 : key(static_cast<uint32_t>(rng.Uniform(kKeys)));
    c.r.Append(k, rng.Next32());
  }
  for (uint32_t i = 0; i < 2 * kKeys; ++i) {
    c.s.Append(key(static_cast<uint32_t>(rng.Uniform(kKeys + kKeys / 4))),
               rng.Next32());
  }
  return c;
}

/// The key table's growth path: the join matches the oracle, and its
/// fingerprint was recorded from the slot-sorted-index implementation.
TEST(OversizedAggregateCasesTest, ManyDistinctKeysMatchSlotIndexStats) {
  const AggregateCase c = MakeManyDistinctKeysCase();
  const data::OracleResult oracle = data::JoinOracle(c.r, c.s);
  auto run = RunAggregateCase(c);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->result.matches, oracle.matches);
  EXPECT_EQ(run->result.payload_sum, oracle.payload_sum);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016llxull",
                static_cast<unsigned long long>(run->fingerprint));
  EXPECT_EQ(run->fingerprint, kManyDistinctKeysFingerprint)
      << "launch stats differ from the slot index's; fingerprint " << hex;
}

/// Guards the oversized cases' shapes: without them the suite above
/// would pass vacuously on the paths it exists for.
TEST(OversizedAggregateCasesTest, CoverTheirShapes) {
  int wide_slots = 0, hot = 0, key0_spans_chunks = 0, wide = 0;
  for (int index = 0; index < kOversizedCases; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    const AggregateCase c = MakeOversizedCase(index);
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto rd = DeviceRelation::Upload(&device, c.r);
    ASSERT_TRUE(rd.ok()) << rd.status();
    auto rp = RadixPartition(&device, *std::move(rd), c.partition);
    ASSERT_TRUE(rp.ok()) << rp.status();
    const uint32_t elems = c.join.shared_elems;
    uint64_t largest = 0;
    bool oversized = false;
    for (uint32_t p = 0; p < rp->chains.num_partitions(); ++p) {
      const uint64_t size = rp->chains.PartitionSize(p);
      oversized |= size > elems;
      largest = std::max(largest, size);
      // Copies of one key per chunk, in chain order.
      std::map<uint32_t, std::map<uint64_t, uint32_t>> per_chunk;
      uint64_t pos = 0;
      for (int32_t b = rp->chains.heads()[p]; b != BucketChains::kNull;
           b = rp->chains.next()[b]) {
        const uint32_t* keys = rp->chains.keys() +
                               static_cast<size_t>(b) *
                                   rp->chains.bucket_capacity();
        for (uint32_t i = 0; i < rp->chains.fill()[b]; ++i, ++pos) {
          ++per_chunk[keys[i]][pos / elems];
        }
      }
      if (per_chunk.count(0) != 0 && per_chunk[0].size() >= 2) {
        ++key0_spans_chunks;
      }
      for (const auto& [k, chunks] : per_chunk) {
        uint64_t copies = 0;
        for (const auto& [chunk, n] : chunks) {
          copies += n;
          ASSERT_LT(n, 65535u) << "key " << k << " chunk " << chunk;
        }
        if (copies >= kHotCopies) {
          ASSERT_TRUE(OversizedCaseHasHotKey(index));
          ++hot;
        }
      }
    }
    EXPECT_TRUE(oversized);
    if (!OversizedCaseHasHotKey(index)) {
      EXPECT_LE(largest, 8u * elems);
    }
    wide_slots += c.join.hash_slots > 4 * elems;
    wide += c.join.build_extra_payload_bytes > 0 ||
            c.join.probe_extra_payload_bytes > 0;
  }
  EXPECT_EQ(wide_slots, kOversizedCases / 5);
  EXPECT_EQ(hot, kOversizedCases / 8);
  EXPECT_GE(key0_spans_chunks, kOversizedCases / 2);
  EXPECT_GE(wide, kOversizedCases / 2);
}

}  // namespace
}  // namespace gjoin::gpujoin
