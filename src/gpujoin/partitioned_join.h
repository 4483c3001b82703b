// The in-GPU partitioned hash join: the paper's core contribution for
// GPU-resident data (Section III). Orchestrates radix partitioning of
// both relations followed by the co-partition join pass.

#ifndef GJOIN_GPUJOIN_PARTITIONED_JOIN_H_
#define GJOIN_GPUJOIN_PARTITIONED_JOIN_H_

#include "src/data/relation.h"
#include "src/gpujoin/join_copartitions.h"
#include "src/gpujoin/radix_partition.h"
#include "src/gpujoin/types.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// \brief Full configuration of the in-GPU partitioned join.
struct PartitionedJoinConfig {
  RadixPartitionConfig partition;     ///< Default: 2 passes to 2^15.
  CoPartitionJoinConfig join;         ///< Default: shared-memory hash join.

  /// Materialized-output ring capacity in pairs; 0 sizes it to the probe
  /// cardinality (the natural 1:1 result size).
  size_t out_capacity = 0;
};

/// Runs the partitioned join over two device-resident relations and
/// returns verified counts plus modeled per-phase timing. The config's
/// join.key_bits is auto-derived from the key domain when 0.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoin(sim::Device* device,
                                        const DeviceRelation& build,
                                        const DeviceRelation& probe,
                                        const PartitionedJoinConfig& config);

/// \brief A build side uploaded and partitioned once, reusable across
/// several probes — the multi-query sharing primitive (concurrent
/// queries against a common relation share its device-resident
/// partitioned form instead of re-uploading and re-partitioning).
struct PreparedBuild {
  PartitionedRelation parted;
  int key_bits = 0;  ///< Derived from the build keys when config left 0.
};

/// The join's key_bits for keys no larger than `max_key`: the significant
/// bit count of the key domain (at least 1), which the ballot loop walks
/// when a config leaves key_bits 0.
int KeyBitsFor(uint32_t max_key);

/// Uploads and partitions `build` as PartitionedJoinFromHost would.
[[nodiscard]]
util::Result<PreparedBuild> PreparePartitionedBuild(
    sim::Device* device, const data::Relation& build,
    const PartitionedJoinConfig& config);

/// Highest-level in-GPU entry point: uploads from host relations,
/// partitioning the probe side in segments (0 = auto-size so everything
/// fits device memory) so large build:probe ratios remain feasible.
/// Upload *timing* is not charged (in-GPU experiments assume resident
/// data; out-of-GPU strategies time transfers explicitly). A non-null
/// `prepared` (PreparePartitionedBuild of `build` under `config`) is
/// joined instead of uploading and partitioning `build` again; stats
/// are identical, since partitioning is deterministic and the prepared
/// form's seconds stand in for a fresh run's.
[[nodiscard]]
util::Result<JoinStats> PartitionedJoinFromHost(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const PartitionedJoinConfig& config,
    int probe_segments = 0, const PreparedBuild* prepared = nullptr);

/// The join phase every in-GPU partitioned join ends in: allocates the
/// materialized-output ring (config.out_capacity pairs, else
/// max(probe_tuples, 1)) when config.join.output materializes, joins the
/// co-partitions, and rolls up JoinStats over both partitioned inputs
/// (partition_s = both sides' partitioning seconds; seconds = partition_s
/// + join_s). config.join.key_bits is used as given (0 = full 32-bit
/// keys); the entry points above derive it with KeyBitsFor first. A
/// non-null `tables` must be a BuildTableCache for `r_parted` and
/// config.join, shared by every join against that build.
[[nodiscard]]
util::Result<JoinStats> JoinPartitioned(sim::Device* device,
                                        const PartitionedRelation& r_parted,
                                        const PartitionedRelation& s_parted,
                                        const PartitionedJoinConfig& config,
                                        size_t probe_tuples,
                                        BuildTableCache* tables = nullptr);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_PARTITIONED_JOIN_H_
