// Host-side radix partitioning for the co-processing strategy
// (Section IV-B).
//
// "Each of the two inputs is split into chunks and each chunk is
//  assigned to a local-to-data thread which partitions it and produces a
//  list of buckets per partition. After an input relation is consumed,
//  the lists from different threads corresponding to the same partition
//  are concatenated."
//
// The functional implementation performs exactly that (chunk -> per-
// chunk partition lists -> concatenation); timing comes from
// hw::CpuCostModel::PartitionOutputGbps (software-managed buffers with
// non-temporal stores), optionally derated by NUMA arbitration.

#ifndef GJOIN_CPU_CPU_PARTITION_H_
#define GJOIN_CPU_CPU_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/data/relation.h"
#include "src/hw/cpu_cost.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace gjoin::obs {
class MetricsRegistry;
}  // namespace gjoin::obs

namespace gjoin::cpu {

/// \brief A host relation split into radix partitions.
struct HostPartitions {
  std::vector<data::Relation> parts;  ///< One relation per partition.
  int radix_bits = 0;
  uint64_t tuples = 0;
  double seconds = 0;  ///< Modeled partitioning time for the whole input.

  /// Bytes of partition p's join columns.
  uint64_t PartitionBytes(uint32_t p) const { return parts[p].bytes(); }
};

/// \brief Configuration for the host partitioner.
struct CpuPartitionConfig {
  int radix_bits = 4;   ///< Paper: "a 16-way partitioning on the CPU".
  int threads = 16;     ///< Paper: 16 partitioning threads.
  size_t chunk_tuples = 1 << 20;  ///< Chunk granularity for threads.

  /// Optional sink for gjoin_partition_scatter_* counters (observes
  /// only; never changes results).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Partitions `rel` on the low `radix_bits` key bits.
[[nodiscard]]
util::Result<HostPartitions> CpuRadixPartition(const data::Relation& rel,
                                               const CpuPartitionConfig& config,
                                               const hw::CpuCostModel& model,
                                               util::ThreadPool* pool = nullptr);

/// \brief Chunk-at-a-time host partitioner: feed the input as a stream
/// of views and collect the same HostPartitions CpuRadixPartition would
/// produce for their concatenation (partitioning is a stable counting
/// sort, so the split into Append calls never changes the output, and
/// the modeled seconds depend only on the total bytes).
///
/// This is what lets fig13 partition relations that are never
/// materialized: a streaming generator hands each chunk straight to the
/// partitioner and peak residency stays at the partitioned output plus
/// one chunk. CpuRadixPartition itself is a single-Append stream.
class StreamingCpuPartitioner {
 public:
  /// `expected_tuples` (0 = unknown) pre-reserves each partition at its
  /// expected share so streamed appends do not geometrically over-grow
  /// the partition vectors (a pure residency/wall-clock hint).
  [[nodiscard]]
  static util::Result<StreamingCpuPartitioner> Create(
      const CpuPartitionConfig& config, const hw::CpuCostModel& model,
      size_t expected_tuples = 0, util::ThreadPool* pool = nullptr);

  /// Appends one chunk of tuples (in stream order).
  void Append(const data::RelationView& view);

  /// Finalizes: computes the modeled seconds for everything appended and
  /// publishes scatter metrics. The partitioner is consumed.
  HostPartitions Finish() &&;

 private:
  StreamingCpuPartitioner() = default;

  CpuPartitionConfig config_;
  const hw::CpuCostModel* model_ = nullptr;
  util::ThreadPool* pool_ = nullptr;
  HostPartitions out_;
  uint64_t scatter_tuples_total_ = 0;
  uint64_t scatter_flushes_total_ = 0;
};

/// Modeled seconds for the partitioner to *produce* `bytes` of output at
/// the configured thread count (used by the pipeline scheduler for
/// per-chunk stages).
double CpuPartitionSeconds(uint64_t bytes, int threads,
                           const hw::CpuCostModel& model);

}  // namespace gjoin::cpu

#endif  // GJOIN_CPU_CPU_PARTITION_H_
