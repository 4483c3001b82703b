// Non-partitioned GPU hash joins: the baselines of Figure 8.
//
// kChaining builds one global hash table in device memory ("a chain of
// elements connected with offset pointers"); probing costs "three to
// four random memory accesses: one for the hash table itself, one for
// the key, one for checking that there is no successor in the chain and
// for the case of a match, an access to the payload".
//
// kPerfectHash is the paper's best-case scenario: with unique keys over
// a contiguous range, payloads are stored in a dense array indexed by
// key, so a probe is exactly one random access.

#ifndef GJOIN_GPUJOIN_NONPARTITIONED_H_
#define GJOIN_GPUJOIN_NONPARTITIONED_H_

#include <vector>

#include "src/gpujoin/output_ring.h"
#include "src/gpujoin/types.h"
#include "src/sim/device.h"
#include "src/util/probe_pipeline.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// \brief Hash-table variant of the non-partitioned join.
enum class NonPartitionedVariant {
  kChaining,     ///< Global chained table; the realistic baseline.
  kPerfectHash,  ///< Dense payload array; best case (requires unique,
                 ///< contiguous build keys — returns ExecutionError on
                 ///< duplicate keys outside the dense domain).
};

/// \brief Configuration of the non-partitioned join.
struct NonPartitionedJoinConfig {
  NonPartitionedVariant variant = NonPartitionedVariant::kChaining;
  OutputMode output = OutputMode::kAggregate;
  int threads_per_block = 1024;
  int num_blocks = 0;        ///< 0 = one block per SM slot.
  uint32_t slots_per_tuple = 2;  ///< Table slots = next_pow2(n * this).
  /// Probe-pipeline depth for the functional probe loops (0 = process
  /// default, 1 = scalar reference loop). Affects host wall-clock only;
  /// results and charged stats are identical at every depth.
  int probe_pipeline_depth = 0;
  /// Late-materialization payload widths (Figs. 9/10). The probe side
  /// stays in input order here, so its gather is sequential — the reason
  /// non-partitioned joins win for wide probe payloads (Fig. 9).
  int build_extra_payload_bytes = 0;
  int probe_extra_payload_bytes = 0;
};

/// Runs the non-partitioned hash join over device-resident relations.
/// In kMaterialize mode, result pairs go to `out` when it is given, and
/// otherwise to a ring of |S| pairs the join allocates and frees.
[[nodiscard]]
util::Result<JoinStats> NonPartitionedJoin(
    sim::Device* device, const DeviceRelation& build,
    const DeviceRelation& probe, const NonPartitionedJoinConfig& config,
    OutputRing* out = nullptr);

/// \brief A build-side hash table constructed once and probed many
/// times — the non-partitioned analogue of PreparedBuild (multi-query
/// sharing: queries probing a common resident relation reuse its table
/// instead of rebuilding it). Holds the state of whichever variant the
/// prepare call's config selected; the other variant's members stay
/// empty.
struct PreparedNonPartitionedBuild {
  NonPartitionedVariant variant = NonPartitionedVariant::kChaining;
  size_t build_tuples = 0;
  double build_s = 0;  ///< Modeled seconds of the build launch.
  /// kPerfectHash: dense payload array indexed by key (0 marks empty).
  sim::DeviceBuffer<uint32_t> dense;
  uint32_t max_key = 0;
  /// kChaining: slot heads, device-resident next pointers, and the
  /// packed functional mirror of the chain nodes (see the build's
  /// comment in nonpartitioned.cc).
  sim::DeviceBuffer<int32_t> heads;
  sim::DeviceBuffer<int32_t> next;
  std::vector<util::PackedHashNode> nodes;
  size_t slots = 0;
  uint64_t table_bytes = 0;
};

/// Builds the hash table for `config.variant` exactly as
/// NonPartitionedJoin would (same launch, same charges).
[[nodiscard]]
util::Result<PreparedNonPartitionedBuild> PrepareNonPartitionedBuild(
    sim::Device* device, const DeviceRelation& build,
    const NonPartitionedJoinConfig& config);

/// Probes against a prepared table. Stats equal a fresh
/// NonPartitionedJoin(device, build, probe, config) run's — the build
/// is deterministic, so the prepared form's recorded seconds stand in
/// for rebuilding. `config.variant` must match the prepared build's.
/// `out` is as for NonPartitionedJoin.
[[nodiscard]]
util::Result<JoinStats> NonPartitionedJoinWithBuild(
    sim::Device* device, const PreparedNonPartitionedBuild& build,
    const DeviceRelation& probe, const NonPartitionedJoinConfig& config,
    OutputRing* out = nullptr);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_NONPARTITIONED_H_
