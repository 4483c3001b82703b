#include "src/gpujoin/bucket_pool.h"

#include <algorithm>

namespace gjoin::gpujoin {

uint32_t BucketPool::DrawBatch(size_t producers) {
  const size_t per_producer = kInFlightSlack / std::max<size_t>(producers, 1);
  return static_cast<uint32_t>(
      std::clamp<size_t>(per_producer, 1, kMaxDrawBatch));
}

util::Result<std::shared_ptr<BucketPool>> BucketPool::Allocate(
    sim::DeviceMemory* memory, uint32_t num_buckets,
    uint32_t bucket_capacity) {
  if (num_buckets == 0 || bucket_capacity == 0) {
    return util::Status::Invalid("BucketPool: zero-sized geometry");
  }
  auto pool = std::shared_ptr<BucketPool>(new BucketPool());
  pool->num_buckets_ = num_buckets;
  pool->bucket_capacity_ = bucket_capacity;
  const size_t slots =
      static_cast<size_t>(num_buckets) * static_cast<size_t>(bucket_capacity);
  // Element storage starts indeterminate (like cudaMalloc): every read
  // of a bucket's tuples is bounded by its fill count, which only grows
  // as the producer writes — zeroing multi-GB pools the scatter is
  // about to overwrite would touch every page twice.
  GJOIN_ASSIGN_OR_RETURN(
      pool->keys_,
      memory->AllocateUninitialized<uint32_t>(slots, "bucket-pool:keys"));
  GJOIN_ASSIGN_OR_RETURN(
      pool->payloads_,
      memory->AllocateUninitialized<uint32_t>(slots, "bucket-pool:payloads"));
  GJOIN_ASSIGN_OR_RETURN(
      pool->next_, memory->Allocate<int32_t>(num_buckets, "bucket-pool:next"));
  GJOIN_ASSIGN_OR_RETURN(
      pool->fill_,
      memory->Allocate<uint32_t>(num_buckets, "bucket-pool:fill"));
  pool->free_list_.reserve(num_buckets);
  // LIFO free list; popping from the back reuses recently-freed (hot)
  // buckets first.
  for (uint32_t b = 0; b < num_buckets; ++b) {
    pool->next_[b] = kNull;
    pool->free_list_.push_back(static_cast<int32_t>(num_buckets - 1 - b));
  }
  return pool;
}

uint32_t BucketPool::AllocateBuckets(uint32_t n, std::vector<int32_t>* out) {
  util::MutexLock lock(&free_mu_);
  ++lock_count_;
  const size_t take = std::min<size_t>(n, free_list_.size());
  const auto first = free_list_.end() - static_cast<ptrdiff_t>(take);
  for (auto it = first; it != free_list_.end(); ++it) ResetBucket(*it);
  out->insert(out->end(), first, free_list_.end());
  free_list_.erase(first, free_list_.end());
  return static_cast<uint32_t>(take);
}

void BucketPool::FreeBuckets(const std::vector<int32_t>& buckets) {
  util::MutexLock lock(&free_mu_);
  ++lock_count_;
  free_list_.insert(free_list_.end(), buckets.begin(), buckets.end());
}

uint64_t BucketPool::lock_count() const {
  util::MutexLock lock(&free_mu_);
  return lock_count_;
}

uint32_t BucketPool::free_buckets() const {
  util::MutexLock lock(&free_mu_);
  return static_cast<uint32_t>(free_list_.size());
}

}  // namespace gjoin::gpujoin
