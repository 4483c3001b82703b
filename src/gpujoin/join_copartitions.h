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
//     The launch only counts matches, so the host need not walk
//     chains (see Output below for materialization). For an R_p that
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
//     An oversized R_p runs the block-nested-loop fallback from one
//     chunk-resolved key-aggregated table of R_p (agg_table.h), built
//     once per partition before the launch: per hash slot a dense row
//     of its chain length in every chunk, per distinct key its (chunk,
//     match count, payload sum) runs. Each S
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
//
// Materialization counts first. The launch counts every block's and
// every work item's pairs exactly as aggregation does, and charges each
// block's emission from its count. After the launch, PublishSurvivors
// (output_ring.h) claims the counts in ascending block id, and each
// block holding pairs that survive the ring's wrap re-enumerates them in
// the kernel's emission order straight into the ring: it skips whole
// work items, and a chunked co-partition's whole (chunk, S bucket)
// cells, by their counts, and walks the rest. Host memory and time for
// the output follow the ring's capacity, not the result size.

#ifndef GJOIN_GPUJOIN_JOIN_COPARTITIONS_H_
#define GJOIN_GPUJOIN_JOIN_COPARTITIONS_H_

#include <cstdint>
#include <memory>

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

class BuildTableCache;

/// Joins every co-partition pair. `build` and `probe` must be partitioned
/// with identical bit layouts. In kMaterialize mode, result pairs are
/// written to `out` (required non-null), wrapping when full — the
/// paper's methodology for isolating in-GPU performance under output
/// explosion (Section V-E). A non-null `tables` must have been created
/// for `build` and `config` (else kInvalid): the join probes the build
/// co-partitions it holds and adds the ones it walks (see
/// BuildTableCache).
[[nodiscard]]
util::Result<CoPartitionJoinResult> JoinCoPartitions(
    sim::Device* device, const PartitionedRelation& build,
    const PartitionedRelation& probe, const CoPartitionJoinConfig& config,
    OutputRing* out = nullptr, BuildTableCache* tables = nullptr);

/// \brief The host tables of one partitioned build side, shared by every
/// join against it.
///
/// Before probing a build co-partition R_p, a join gathers it out of its
/// bucket chains and links config.algo's table over it (Listing 2's
/// 16-bit chains for kSharedHash, the node chains for kDeviceHash, the
/// counting index for kNestedLoop). Those tables depend only on the
/// build and the config, so every join of probe relations against one
/// resident build can share them: the streaming probe (Section IV-A)
/// hands each chunk's join the same cache, and each R_p that fits one
/// shared-memory chunk and holds at least hash_slots / 8 tuples is
/// gathered and linked by the first join that probes it and read from
/// the cache by every later one. A join given no cache memoizes, in a
/// cache of its own, only the co-partitions that several of its work
/// items walk.
///
/// Host work only: each join still charges the kernel's reload of R_p
/// into shared memory and the rebuild of its table per work item, so
/// results and charged stats are those of a join without a cache.
///
/// A cache is bound to the build and config it was created for. A join
/// against other chains, tuple count or radix layout, or with another
/// algo, hash_slots or shared_elems, returns kInvalid. One join uses a
/// cache at a time. It holds up to the whole build's tuples once more
/// (8 bytes each) plus each cached co-partition's table: for kSharedHash
/// 2 bytes per tuple and 2 * hash_slots bytes of slot heads, which the
/// size floor keeps within 16 bytes per tuple.
class BuildTableCache {
 public:
  /// An empty cache for joins against `build` under `config`.
  BuildTableCache(const PartitionedRelation& build,
                  const CoPartitionJoinConfig& config);
  ~BuildTableCache();
  BuildTableCache(BuildTableCache&&) noexcept;
  BuildTableCache& operator=(BuildTableCache&&) noexcept;

  /// Build co-partitions whose tables the cache holds.
  size_t cached_partitions() const;

 private:
  struct Tables;
  // Befriends the [[nodiscard]] JoinCoPartitions declared above.
  // lint:allow nodiscard
  friend util::Result<CoPartitionJoinResult> JoinCoPartitions(
      sim::Device*, const PartitionedRelation&, const PartitionedRelation&,
      const CoPartitionJoinConfig&, OutputRing*, BuildTableCache*);

  std::unique_ptr<Tables> tables_;
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_JOIN_COPARTITIONS_H_
