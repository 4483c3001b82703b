// Joining co-partitions: the build+probe kernels of Sections III-B/C.
//
// After both relations are radix-partitioned with the same bit layout,
// all matches of partition p of R lie in partition p of S. Work items
// pair an R partition with a slice of its S chain ("long bucket chains
// ... are decomposed and assigned to different SMs to balance load");
// blocks process items round-robin:
//
//   kSharedHash — R_p is loaded into shared memory and hashed into a
//     table with 16-bit offset links built wait-free with atomic
//     exchanges (Listing 2); S_p streams from device memory and probes
//     the table. If R_p exceeds the shared-memory budget the kernel
//     degrades to hash-based *block* nested loops — building the table
//     over shared-memory-sized chunks of R_p and rescanning S_p per
//     chunk — which is exactly the skew collapse mechanism of Fig. 17.
//
//     In aggregate mode the host need not walk chains. For an R_p that
//     fits and fills at least half the hash slots, a work item probing
//     at least as many S tuples as R_p holds probes a key-aggregated
//     table instead (agg_table.h): per slot the chain length, per
//     distinct key the match count and payload sum, so each probe tuple
//     costs two O(1) lookups. The chain steps charged per S bucket are
//     the sum of its tuples' slot lengths, and the matches the sum of
//     their key counts — exactly what the walks would tally, so results
//     and stats equal the Listing 2 execution. Items build the table in
//     per-thread scratch reused across items and launches. Other items
//     walk the chains, which are cheaper to build and, when short,
//     about as cheap to walk.
//
//     An oversized R_p in aggregate mode runs the block-nested-loop
//     fallback from one chunk-resolved key-aggregated table of R_p
//     (agg_table.h), built once per partition before the launch: per
//     hash slot a dense row of its chain length in every chunk, per
//     distinct key its (chunk, match count, payload sum) runs. Each S
//     tuple is probed once, against every chunk: it adds its slot's row
//     to its S bucket's per-chunk steps and makes one key lookup for its
//     per-chunk matches. The launch then charges every chunk's build
//     and rescan from those tallies, with the same calls as the literal
//     execution.
//
//   kNestedLoop — R_p is staged contiguously in shared memory and warps
//     compare 32 probe values against 32 build values at a time using
//     ballot votes over the key bits not fixed by partitioning
//     (Listing 1).
//
//   kDeviceHash — same hash join but the table lives in device memory
//     (the Fig. 6 baseline): every build insert and probe step pays an
//     uncoalesced device transaction instead of a shared-memory access.
//
// Output: aggregation (per-thread local sums, one atomic per thread at
// the end) or materialization through a warp-shared output buffer that
// flushes to device memory with one global-offset atomic per flush
// (Section III-C).

#ifndef GJOIN_GPUJOIN_JOIN_COPARTITIONS_H_
#define GJOIN_GPUJOIN_JOIN_COPARTITIONS_H_

#include <cstdint>

#include "src/gpujoin/output_ring.h"
#include "src/gpujoin/radix_partition.h"
#include "src/gpujoin/types.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// \brief Configuration of the co-partition join kernel.
struct CoPartitionJoinConfig {
  ProbeAlgorithm algo = ProbeAlgorithm::kSharedHash;
  OutputMode output = OutputMode::kAggregate;

  /// Threads per joining block (paper: 512).
  int threads_per_block = 512;
  /// Grid size; 0 = one block per SM slot.
  int num_blocks = 0;

  /// Shared-memory capacity for the build side, in tuples (paper: 4096
  /// elements per CUDA block). Larger build partitions trigger the
  /// block-nested-loop fallback.
  uint32_t shared_elems = 4096;
  /// Hash-table slot count, power of two (paper: 2048 buckets).
  uint32_t hash_slots = 2048;

  /// Probe-chain slices per work item: partitions whose S chain is longer
  /// are decomposed across blocks for load balance.
  uint32_t max_probe_buckets_per_item = 8;

  /// Warp output buffer capacity in result pairs (materialization).
  uint32_t out_stage_pairs = 256;

  /// Significant key bits; the ballot loop of the nested-loop probe
  /// iterates bits [radix_bits, key_bits). 0 = assume full 32-bit keys.
  int key_bits = 0;

  /// Late-materialization payload gathers charged per match, beyond the
  /// 4-byte row id the join itself moves (Figs. 9/10).
  int build_extra_payload_bytes = 0;
  int probe_extra_payload_bytes = 0;

  /// Probe-pipeline depth for the functional probe loops (0 = process
  /// default, 1 = scalar reference loop). Host wall-clock only; results
  /// and charged stats are identical at every depth. Device-memory
  /// tables use the out-of-order/ordered pipelines; shared-memory
  /// chain walks use the in-order batched head resolution (their host
  /// copy is cache-resident, but batching still overlaps the per-probe
  /// dependence chains). Aggregate shared-memory probes that look up a
  /// key-aggregated table (see the header comment) do not use it.
  int probe_pipeline_depth = 0;

  // --- Ablation switches (bench/abl_*) ---

  /// kNestedLoop only: false degrades Listing 1's warp-cooperative
  /// ballot matching to the conventional implementation where every
  /// thread reads and compares all shared-memory values itself.
  bool nl_use_ballot = true;

  /// kMaterialize only: false bypasses the Section III-C warp output
  /// buffer — each match is written straight to device memory with its
  /// own global atomic (uncoalesced).
  bool buffered_output = true;
};

/// \brief Result of a co-partition join pass.
struct CoPartitionJoinResult {
  uint64_t matches = 0;
  uint64_t payload_sum = 0;  ///< Checksum: sum of (r.payload + s.payload).
  double seconds = 0;        ///< Modeled kernel time.
};

/// Joins every co-partition pair. `build` and `probe` must be partitioned
/// with identical bit layouts. In kMaterialize mode, result pairs are
/// written to `out` (required non-null), wrapping when full — the
/// paper's methodology for isolating in-GPU performance under output
/// explosion (Section V-E).
[[nodiscard]]
util::Result<CoPartitionJoinResult> JoinCoPartitions(
    sim::Device* device, const PartitionedRelation& build,
    const PartitionedRelation& probe, const CoPartitionJoinConfig& config,
    OutputRing* out = nullptr);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_JOIN_COPARTITIONS_H_
