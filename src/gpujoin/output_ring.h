// Device-memory result buffer for materialized join output.
//
// Result pairs are packed as (r.payload << 32 | s.payload) and written
// through the warp-buffered path of Section III-C. The ring wraps when
// the buffer fills — the paper's Figure 17 methodology ("we do not flush
// the results back to the CPU when they overflow the GPU memory ... but
// overwrite them in order to isolate the in-GPU performance"); the
// out-of-GPU strategies instead drain it over PCIe between wraps.
//
// Join kernels do not write the ring from their block bodies: a launch
// only counts each block's pairs. PublishSurvivors then claims every
// block's count in ascending block id, and for each block with pairs
// that survive the wrap runs the kernel's in-order enumerator from the
// block's first surviving pair, writing straight into the ring slots.
// The ring then holds exactly what serialized block-order execution
// would have left in it, at any host pool width, and host memory and
// time follow the ring, not the result.

#ifndef GJOIN_GPUJOIN_OUTPUT_RING_H_
#define GJOIN_GPUJOIN_OUTPUT_RING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/device_memory.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace gjoin::gpujoin {

/// Packs one result pair the way the ring stores it.
inline uint64_t PackPair(uint32_t r_payload, uint32_t s_payload) {
  return (static_cast<uint64_t>(r_payload) << 32) | s_payload;
}

/// \brief Where one block's result pairs go after a launch: the pairs a
/// later pair overwrites are dropped, the rest are written straight into
/// their ring slots.
class SurvivorSink {
 public:
  /// A sink over the `capacity` ring slots at `slots` that drops the
  /// first `skip` pairs and writes the rest from slot `pos` on.
  SurvivorSink(uint64_t* slots, uint64_t capacity, uint64_t pos,
               uint64_t skip)
      : slots_(slots), capacity_(capacity), pos_(pos), skip_(skip) {}

  /// True if the block's next `n` pairs are all overwritten. They are
  /// then consumed, so an enumerator skips a unit of work whose pair
  /// count it knows without enumerating it.
  bool Skips(uint64_t n) {
    if (n > skip_) return false;
    skip_ -= n;
    return true;
  }

  /// Takes the block's next pair in emission order.
  void Push(uint32_t r_payload, uint32_t s_payload) {
    if (skip_ > 0) {
      --skip_;
      return;
    }
    slots_[pos_] = PackPair(r_payload, s_payload);
    if (++pos_ == capacity_) pos_ = 0;
  }

 private:
  uint64_t* slots_;
  uint64_t capacity_;
  uint64_t pos_;   // ring slot of the next surviving pair
  uint64_t skip_;  // overwritten pairs still to drop
};

/// \brief Ring buffer of packed result pairs in device memory.
class OutputRing {
 public:
  /// Allocates a ring of `capacity` pairs (8 bytes each).
  [[nodiscard]]
  static util::Result<OutputRing> Allocate(sim::DeviceMemory* memory,
                                           size_t capacity) {
    if (capacity == 0) return util::Status::Invalid("OutputRing: capacity 0");
    OutputRing ring;
    GJOIN_ASSIGN_OR_RETURN(
        ring.pairs_, memory->Allocate<uint64_t>(capacity, "output-ring"));
    ring.cursor_ = std::make_unique<std::atomic<uint64_t>>(0);
    return ring;
  }

  OutputRing() = default;
  OutputRing(OutputRing&&) = default;
  OutputRing& operator=(OutputRing&&) = default;

  /// Claims space for `count` pairs; returns the starting logical offset
  /// (callers write at offset % capacity). Models the global atomicAdd.
  uint64_t Claim(uint64_t count) {
    return cursor_->fetch_add(count, std::memory_order_relaxed);
  }

  /// Writes one pair at logical offset `pos` (wraps internally).
  void Write(uint64_t pos, uint32_t r_payload, uint32_t s_payload) {
    pairs_[pos % pairs_.size()] = PackPair(r_payload, s_payload);
  }

  /// Pairs written so far (may exceed capacity; excess wrapped).
  uint64_t total_written() const {
    return cursor_->load(std::memory_order_relaxed);
  }

  /// True iff the ring has wrapped (results were overwritten).
  bool wrapped() const { return total_written() > pairs_.size(); }

  /// Ring capacity in pairs.
  size_t capacity() const { return pairs_.size(); }

  /// Raw pair at ring position i (for verification while un-wrapped).
  uint64_t pair(size_t i) const { return pairs_[i]; }

  /// Resets the cursor (between pipeline chunks).
  void ResetCursor() { cursor_->store(0, std::memory_order_relaxed); }

 private:
  friend void PublishSurvivors(
      OutputRing*, const std::vector<uint64_t>&, util::ThreadPool*,
      const std::function<void(size_t, SurvivorSink&)>&);

  sim::DeviceBuffer<uint64_t> pairs_;
  std::unique_ptr<std::atomic<uint64_t>> cursor_;
};

/// Publishes a launch's result pairs onto `ring`. Claims `counts[b]`
/// pairs for every block b in ascending block id, so block b's pairs take
/// logical offsets [base_b, base_b + counts[b]) and the cursor ends where
/// serialized block-order execution leaves it. Only offsets >= total -
/// capacity survive the wrap: for every block holding some,
/// `enumerate(b, sink)` must push block b's pairs into `sink` in
/// emission order, and may skip the overwritten ones through
/// SurvivorSink::Skips. Surviving blocks write disjoint ring slots, so
/// they run concurrently on `pool`.
void PublishSurvivors(
    OutputRing* ring, const std::vector<uint64_t>& counts,
    util::ThreadPool* pool,
    const std::function<void(size_t, SurvivorSink&)>& enumerate);

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_OUTPUT_RING_H_
