// The partitioned data structure of Section III-A: per-partition linked
// lists of fixed-capacity buckets drawn from a shared pool.
//
// "Each pass produces a linked list of buckets per partition. To amortize
//  the overhead of pointer chasing and to improve scan coalescing, each
//  bucket is an array of elements with a capacity that is a multiple of
//  the GPU thread block size."
//
// A BucketChains is the per-pass view: heads[p] anchors partition p's
// chain; the element storage, links and fill counts live in the shared
// BucketPool so later passes can recycle consumed buckets. Producers
// publish finished chain segments wait-free with an atomic exchange on
// the head — the same pattern as the paper's Listing 2.

#ifndef GJOIN_GPUJOIN_BUCKET_CHAINS_H_
#define GJOIN_GPUJOIN_BUCKET_CHAINS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/gpujoin/bucket_pool.h"
#include "src/sim/device_memory.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// \brief Bucket-chained partitioned storage over a shared pool.
class BucketChains {
 public:
  /// Sentinel for "no next bucket" / "empty partition".
  static constexpr int32_t kNull = BucketPool::kNull;

  /// Empty (unallocated) chains; assign from Allocate() before use.
  BucketChains() = default;

  /// Creates chains for `num_partitions` partitions over `pool`.
  [[nodiscard]]
  static util::Result<BucketChains> Allocate(sim::DeviceMemory* memory,
                                             uint32_t num_partitions,
                                             std::shared_ptr<BucketPool> pool);

  /// Convenience: creates a dedicated pool of `num_buckets` x
  /// `bucket_capacity` and chains over it.
  [[nodiscard]]
  static util::Result<BucketChains> Allocate(sim::DeviceMemory* memory,
                                             uint32_t num_partitions,
                                             uint32_t num_buckets,
                                             uint32_t bucket_capacity);

  BucketChains(BucketChains&&) = default;
  BucketChains& operator=(BucketChains&&) = default;

  // --- Geometry ---
  uint32_t num_partitions() const { return num_partitions_; }
  uint32_t bucket_capacity() const { return pool_->bucket_capacity(); }

  /// The shared storage pool.
  const std::shared_ptr<BucketPool>& pool() const { return pool_; }

  // --- Device-side storage (kernels index these directly) ---
  uint32_t* keys() { return pool_->keys(); }
  const uint32_t* keys() const { return pool_->keys(); }
  uint32_t* payloads() { return pool_->payloads(); }
  const uint32_t* payloads() const { return pool_->payloads(); }
  int32_t* next() { return pool_->next(); }
  const int32_t* next() const { return pool_->next(); }
  uint32_t* fill() { return pool_->fill(); }
  const uint32_t* fill() const { return pool_->fill(); }
  int32_t* heads() { return heads_.data(); }
  const int32_t* heads() const { return heads_.data(); }

  /// Atomically publishes a chain segment [first..last] onto partition
  /// p's list: heads[p] = first, next[last] = previous head.
  void PublishSegment(uint32_t partition, int32_t first, int32_t last);

  // --- Host-side inspection (tests, work-list construction) ---

  /// Buckets of partition p in chain order.
  std::vector<int32_t> PartitionBuckets(uint32_t partition) const;

  /// Total elements in partition p.
  uint64_t PartitionSize(uint32_t partition) const;

  /// All (key, payload) pairs of partition p (test helper).
  std::vector<std::pair<uint32_t, uint32_t>> GatherPartition(
      uint32_t partition) const;

  /// Sum of PartitionSize over all partitions.
  uint64_t TotalElements() const;

 private:
  uint32_t num_partitions_ = 0;
  std::shared_ptr<BucketPool> pool_;
  sim::DeviceBuffer<int32_t> heads_;
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_BUCKET_CHAINS_H_
