// The shared bucket pool behind all bucket-chain structures of one join
// (Section III-A: "Initially, a pool of buckets is allocated").
//
// Element storage (keys/payloads), chain links and fill counts live in
// one pool; BucketChains instances (one per partitioning pass output)
// allocate buckets from it and *recycle* consumed input buckets back to
// the free list during later passes. Recycling is what keeps the
// partitioned form's memory footprint near the data size — without it,
// a pass would need input and output copies simultaneously, which does
// not fit device memory for the paper's larger build:probe ratios.

#ifndef GJOIN_GPUJOIN_BUCKET_POOL_H_
#define GJOIN_GPUJOIN_BUCKET_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/device_memory.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace gjoin::gpujoin {

/// \brief Device-resident bucket storage with a free list.
class BucketPool {
 public:
  /// Sentinel for "no bucket".
  static constexpr int32_t kNull = -1;

  /// Allocates a pool of `num_buckets` buckets of `bucket_capacity`
  /// tuples each; all buckets start on the free list.
  [[nodiscard]]
  static util::Result<std::shared_ptr<BucketPool>> Allocate(
      sim::DeviceMemory* memory, uint32_t num_buckets,
      uint32_t bucket_capacity);

  /// Pops a bucket from the free list (one device atomic in kernels);
  /// kNull when exhausted. The bucket's fill is reset to 0 and its next
  /// pointer to kNull.
  int32_t AllocateBucket();

  /// Returns a consumed bucket to the free list.
  void FreeBucket(int32_t bucket);

  /// Returns several consumed buckets under one lock acquisition.
  void FreeBuckets(const std::vector<int32_t>& buckets);

  // --- Geometry ---
  uint32_t num_buckets() const { return num_buckets_; }
  uint32_t bucket_capacity() const { return bucket_capacity_; }

  /// Buckets currently on the free list.
  uint32_t free_buckets() const;

  // --- Device-side storage ---
  uint32_t* keys() { return keys_.data(); }
  const uint32_t* keys() const { return keys_.data(); }
  uint32_t* payloads() { return payloads_.data(); }
  const uint32_t* payloads() const { return payloads_.data(); }
  int32_t* next() { return next_.data(); }
  const int32_t* next() const { return next_.data(); }
  uint32_t* fill() { return fill_.data(); }
  const uint32_t* fill() const { return fill_.data(); }

 private:
  BucketPool() = default;

  uint32_t num_buckets_ = 0;
  uint32_t bucket_capacity_ = 0;
  sim::DeviceBuffer<uint32_t> keys_;
  sim::DeviceBuffer<uint32_t> payloads_;
  sim::DeviceBuffer<int32_t> next_;
  sim::DeviceBuffer<uint32_t> fill_;
  mutable util::Mutex free_mu_;
  std::vector<int32_t> free_list_ GJOIN_GUARDED_BY(free_mu_);
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_BUCKET_POOL_H_
