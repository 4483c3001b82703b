// Multi-pass GPU radix partitioning with bucket chains (Section III-A).
//
// Pass 1 scans the contiguous input relation; each thread block stages
// tuples per partition in shared memory (the "shuffle space"), flushes
// staged runs into its current bucket with coalesced bursts, draws fresh
// buckets from the pool with a device atomic when one fills up, and
// finally publishes its chain segments wait-free onto the global
// per-partition lists.
//
// Later passes redistribute the previous pass's buckets to blocks either
// one bucket at a time (the paper's choice: skew-robust, but pays
// metadata re-initialization when consecutive buckets belong to
// different parent partitions) or one partition chain at a time (better
// for uniform data, collapses under skew because "the longest running
// CUDA block defines the total execution time"). Both assignments are
// implemented; WorkAssignment selects them, and bench/abl_assignment
// measures the trade-off.
//
// The host executes a bucket-at-a-time pass by parent, not by block: a
// child's chain depends only on its parent's tuples in the order the
// deal hands them to blocks, so each pool worker sweeps whole parents,
// moving every tuple once, and a single charge-only launch then charges
// each block its share of the deal in closed form from per-block,
// per-child counts. Chains and every charged counter are those of
// block-by-block execution at any pool width.

#ifndef GJOIN_GPUJOIN_RADIX_PARTITION_H_
#define GJOIN_GPUJOIN_RADIX_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/gpujoin/bucket_chains.h"
#include "src/gpujoin/types.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace gjoin::obs {
class MetricsRegistry;
}  // namespace gjoin::obs

namespace gjoin::gpujoin {

/// \brief How later passes hand the previous pass's output to blocks.
enum class WorkAssignment {
  kBucketAtATime,     ///< Paper's default: round-robin over buckets.
  kPartitionAtATime,  ///< Round-robin over whole partition chains.
};

/// \brief Configuration of the multi-pass partitioner.
struct RadixPartitionConfig {
  /// Radix bits consumed by each pass, lowest bits first. The paper's
  /// in-GPU experiments use {8, 7}: two passes to 2^15 partitions.
  std::vector<int> pass_bits = {8, 7};

  /// Key bit where the first pass starts. Non-zero when the relations
  /// were already partitioned on lower bits by the host (the
  /// co-processing strategy's CPU pre-partitioning, Section IV-B).
  int base_shift = 0;

  /// Tuples per bucket; 0 = auto-size (power of two, scaled to the
  /// expected final partition size, within [kMinBucketCapacity, 1024]).
  uint32_t bucket_capacity = 0;

  /// Threads per partitioning block (paper: 1024).
  int threads_per_block = 1024;

  /// Grid size; 0 = one block per SM slot (num_sms * blocks_per_sm).
  int num_blocks = 0;

  /// Work distribution for passes after the first.
  WorkAssignment assignment = WorkAssignment::kBucketAtATime;

  /// Shared-memory staging slots per partition ("shuffle space").
  uint32_t stage_elems = 16;

  /// Optional sink for host-scatter throughput counters
  /// (gjoin_partition_scatter_bytes_total / _flushes_total; a
  /// bucket-at-a-time pass drains its buffers once per parent, so its
  /// flush count is per parent, not per block). Observes only —
  /// attaching a registry never changes results or charges.
  obs::MetricsRegistry* metrics = nullptr;

  /// Total radix bits across all passes.
  int total_bits() const {
    int total = 0;
    for (int b : pass_bits) total += b;
    return total;
  }
  /// Final partition count.
  uint32_t num_partitions() const { return 1u << total_bits(); }
};

/// \brief A fully partitioned relation: final-pass chains + provenance.
struct PartitionedRelation {
  BucketChains chains;
  int radix_bits = 0;       ///< log2(number of partitions).
  int base_shift = 0;       ///< First key bit the partitioning consumed.
  uint64_t tuples = 0;      ///< Total elements across partitions.
  double seconds = 0;       ///< Modeled time summed over all passes.
  std::vector<double> pass_seconds;  ///< Modeled time per pass.
};

/// \brief First-pass input assembled from host-staged chunks (e.g. the
/// co-partitions of an out-of-GPU working set), each chunk's columns
/// moved in and released the moment the last thread block reading it
/// has finished.
///
/// This is the streamed working-set buffer of the co-processing
/// strategy: instead of concatenating host partitions and uploading one
/// contiguous copy, the pass walks the chunks in place through a cursor
/// and peak residency is the partitioned output plus the not-yet-
/// consumed tail — never input plus output. The kernel, its launch
/// geometry and every charge are those of the contiguous path, so the
/// partitioned form and the modeled seconds are bit-identical to
/// RadixPartition over the concatenation (pinned by
/// gpujoin_stat_invariance_test). As with DeviceRelation::Upload,
/// transfer timing is the caller's concern.
class ChunkedDeviceInput {
 public:
  ChunkedDeviceInput() = default;
  ChunkedDeviceInput(ChunkedDeviceInput&&) = default;
  ChunkedDeviceInput& operator=(ChunkedDeviceInput&&) = default;

  /// Appends one chunk, taking ownership of its columns (which must
  /// have equal length; empty chunks are dropped).
  void Add(std::vector<uint32_t> keys, std::vector<uint32_t> payloads);

  /// Total tuples across all chunks.
  size_t size() const { return total_; }

  /// Largest key across all chunks (0 when empty); call before the
  /// input is consumed.
  uint32_t MaxKey() const;

  /// \name Consumption interface used by the first partitioning pass.
  /// BeginConsume fixes the per-block range size; each block walks its
  /// tuple range through a Cursor; BlockDone releases every chunk whose
  /// last reader finished.
  /// @{
  struct Cursor {
    uint32_t key() const { return *k_; }
    uint32_t pay() const { return *p_; }
    /// Advances one tuple. Must not be called past the last tuple of
    /// the owning block's range: the next chunk may belong entirely to
    /// other blocks and already be freed.
    void Next() {
      ++k_;
      ++p_;
      if (k_ == k_end_) Advance();
    }

   private:
    friend class ChunkedDeviceInput;
    void Advance();
    const ChunkedDeviceInput* in_ = nullptr;
    size_t chunk_ = 0;
    const uint32_t* k_ = nullptr;
    const uint32_t* p_ = nullptr;
    const uint32_t* k_end_ = nullptr;
  };
  /// Positions a cursor at global tuple index `i` (< size()).
  Cursor At(size_t i) const;
  void BeginConsume(size_t block_tuples);
  void BlockDone(size_t begin, size_t end);
  /// @}

 private:
  struct Chunk {
    std::vector<uint32_t> keys;
    std::vector<uint32_t> payloads;
    size_t begin = 0;  ///< Global index of the chunk's first tuple.
  };
  size_t ChunkEnd(size_t c) const {
    return c + 1 < chunks_.size() ? chunks_[c + 1].begin : total_;
  }
  std::vector<Chunk> chunks_;
  /// Remaining reader blocks per chunk (set by BeginConsume).
  std::unique_ptr<std::atomic<int>[]> readers_;
  size_t block_tuples_ = 0;
  size_t total_ = 0;
};

/// Runs all configured passes over `input` and returns the final
/// partitioned form. Partitioning is on `total_bits()` of the key above
/// base_shift, pass i consuming its bits above the bits of passes < i.
/// All passes share one bucket pool; later passes recycle consumed
/// buckets, so the footprint stays near the data size.
[[nodiscard]]
util::Result<PartitionedRelation> RadixPartition(
    sim::Device* device, const DeviceRelation& input,
    const RadixPartitionConfig& config);

/// Like RadixPartition but takes ownership of the input and frees its
/// raw columns as soon as the first pass has consumed them.
[[nodiscard]]
util::Result<PartitionedRelation> RadixPartitionConsuming(
    sim::Device* device, DeviceRelation input,
    const RadixPartitionConfig& config);

/// Like RadixPartitionConsuming over the concatenation of the input's
/// chunks, with chunks released as the first pass consumes them (see
/// ChunkedDeviceInput). Output and charged stats are bit-identical to
/// the contiguous run.
[[nodiscard]]
util::Result<PartitionedRelation> RadixPartitionChunkedConsuming(
    sim::Device* device, ChunkedDeviceInput input,
    const RadixPartitionConfig& config);

/// Partitions a host-resident relation by uploading and consuming it in
/// `segments` pieces (each segment's device columns are freed after the
/// first pass reads them). Peak device footprint is one segment plus the
/// partitioned form — how implementations fit large probe sides next to
/// an already-partitioned build side. Transfer timing is the caller's
/// concern (as with DeviceRelation::Upload).
[[nodiscard]]
util::Result<PartitionedRelation> RadixPartitionSegmented(
    sim::Device* device, const data::Relation& input,
    const RadixPartitionConfig& config, int segments);

/// Auto-sizes bucket capacity for `tuples` spread over `partitions`
/// (exposed for tests).
uint32_t AutoBucketCapacity(uint64_t tuples, uint32_t partitions);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_RADIX_PARTITION_H_
