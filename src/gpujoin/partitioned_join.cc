#include "src/gpujoin/partitioned_join.h"

#include <algorithm>

#include "src/util/bits.h"

namespace gjoin::gpujoin {

int KeyBitsFor(uint32_t max_key) {
  // Keys start at 1 in the paper's workloads, so an empty side's floor
  // is max_key = 1.
  max_key = std::max<uint32_t>(max_key, 1);
  return util::Log2Floor(max_key) + 1;
}

util::Result<JoinStats> JoinPartitioned(sim::Device* device,
                                        const PartitionedRelation& r_parted,
                                        const PartitionedRelation& s_parted,
                                        const PartitionedJoinConfig& config,
                                        size_t probe_tuples,
                                        BuildTableCache* tables) {
  OutputRing ring;
  OutputRing* ring_ptr = nullptr;
  if (config.join.output == OutputMode::kMaterialize) {
    const size_t capacity =
        config.out_capacity != 0 ? config.out_capacity
                                 : std::max<size_t>(probe_tuples, 1);
    GJOIN_ASSIGN_OR_RETURN(ring,
                           OutputRing::Allocate(&device->memory(), capacity));
    ring_ptr = &ring;
  }

  GJOIN_ASSIGN_OR_RETURN(
      CoPartitionJoinResult join_result,
      JoinCoPartitions(device, r_parted, s_parted, config.join, ring_ptr,
                       tables));

  JoinStats stats;
  stats.matches = join_result.matches;
  stats.payload_sum = join_result.payload_sum;
  stats.partition_s = r_parted.seconds + s_parted.seconds;
  stats.join_s = join_result.seconds;
  stats.seconds = stats.partition_s + stats.join_s;
  return stats;
}

util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        const DeviceRelation& build,
                                        const DeviceRelation& probe,
                                        const PartitionedJoinConfig& config) {
  PartitionedJoinConfig cfg = config;
  if (cfg.join.key_bits == 0) {
    // Keys are positive and bounded by the relation sizes in the paper's
    // workloads; derive the significant bit count for the ballot loop.
    uint32_t max_key = 0;
    for (size_t i = 0; i < build.size; ++i) {
      max_key = std::max(max_key, build.keys[i]);
    }
    cfg.join.key_bits = KeyBitsFor(max_key);
  }
  GJOIN_ASSIGN_OR_RETURN(PartitionedRelation r_parted,
                         RadixPartition(device, build, cfg.partition));
  GJOIN_ASSIGN_OR_RETURN(PartitionedRelation s_parted,
                         RadixPartition(device, probe, cfg.partition));
  return JoinPartitioned(device, r_parted, s_parted, cfg, probe.size);
}

util::Result<PreparedBuild> PreparePartitionedBuild(
    sim::Device* device, const data::Relation& build,
    const PartitionedJoinConfig& config) {
  PreparedBuild prepared;
  prepared.key_bits = config.join.key_bits;
  if (prepared.key_bits == 0) {
    uint32_t max_key = 0;
    for (uint32_t k : build.keys) max_key = std::max(max_key, k);
    prepared.key_bits = KeyBitsFor(max_key);
  }
  GJOIN_ASSIGN_OR_RETURN(DeviceRelation r_dev,
                         DeviceRelation::Upload(device, build));
  GJOIN_ASSIGN_OR_RETURN(
      prepared.parted,
      RadixPartitionConsuming(device, std::move(r_dev), config.partition));
  return prepared;
}

util::Result<JoinStats> PartitionedJoinFromHost(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments, const PreparedBuild* prepared) {
  PreparedBuild fresh;
  if (prepared == nullptr) {
    GJOIN_ASSIGN_OR_RETURN(fresh,
                           PreparePartitionedBuild(device, build, config));
    prepared = &fresh;
  }
  PartitionedJoinConfig cfg = config;
  if (cfg.join.key_bits == 0) cfg.join.key_bits = prepared->key_bits;

  if (probe_segments <= 0) {
    // Size segments so one raw segment plus the partitioned probe side
    // (chains plus pool slack, ~2x the data) fits the remaining device
    // memory.
    const uint64_t budget = device->memory().available();
    const uint64_t need = probe.bytes() * 2;
    const uint64_t seg_budget = budget > need ? budget - need : budget / 8;
    probe_segments = static_cast<int>(std::min<uint64_t>(
        16, util::CeilDiv(probe.bytes(), std::max<uint64_t>(seg_budget, 1))));
    if (probe_segments < 1) probe_segments = 1;
  }
  GJOIN_ASSIGN_OR_RETURN(
      PartitionedRelation s_parted,
      RadixPartitionSegmented(device, probe, cfg.partition, probe_segments));

  return JoinPartitioned(device, prepared->parted, s_parted, cfg,
                         probe.size());
}

}  // namespace gjoin::gpujoin
