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
//
// The free list is LIFO (recently freed, cache-hot buckets go out
// first) behind one host mutex. In the kernel every bucket drawn is one
// device atomic on the pool cursor, and partitioning still charges
// exactly that; on the host, producers draw in batches
// (AllocateBuckets) into a private stash and hand leftovers back with
// one FreeBuckets, so the lock is taken once per batch, not per bucket.
// A batch is at most DrawBatch(width) buckets: with `width` producers
// in flight, the stashes then hold at most kInFlightSlack buckets the
// chains do not, which is the slack RadixPartition adds to every pool.

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

  /// Buckets every partitioning pool reserves beyond its chains' need
  /// for buckets held in producers' stashes.
  static constexpr uint32_t kInFlightSlack = 128;

  /// Largest batch a producer draws per lock.
  static constexpr uint32_t kMaxDrawBatch = 32;

  /// The batch size for `producers` concurrent producers:
  /// min(kMaxDrawBatch, kInFlightSlack / producers), at least 1, so all
  /// stashes together never exceed kInFlightSlack.
  static uint32_t DrawBatch(size_t producers);

  /// Allocates a pool of `num_buckets` buckets of `bucket_capacity`
  /// tuples each; all buckets start on the free list.
  [[nodiscard]]
  static util::Result<std::shared_ptr<BucketPool>> Allocate(
      sim::DeviceMemory* memory, uint32_t num_buckets,
      uint32_t bucket_capacity);

  /// Pops up to `n` buckets under one lock acquisition and appends them
  /// to `out`, each reset by ResetBucket. Returns how many were taken:
  /// min(n, free_buckets()), so a request the pool can only partly
  /// serve empties it instead of failing.
  uint32_t AllocateBuckets(uint32_t n, std::vector<int32_t>* out);

  /// Returns consumed buckets to the free list under one lock
  /// acquisition.
  void FreeBuckets(const std::vector<int32_t>& buckets);

  /// Empties a bucket its holder owns: fill 0, no successor. Every
  /// bucket handed out is in this state.
  void ResetBucket(int32_t bucket) {
    fill_[bucket] = 0;
    next_[bucket] = kNull;
  }

  /// Free-list lock acquisitions since allocation (AllocateBuckets and
  /// FreeBuckets calls). Read by the regression test that bounds the
  /// locks a partition takes per bucket drawn.
  uint64_t lock_count() const;

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
  uint64_t lock_count_ GJOIN_GUARDED_BY(free_mu_) = 0;
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_BUCKET_POOL_H_
