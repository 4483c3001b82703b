// Device-memory result buffer for materialized join output.
//
// Result pairs are packed as (r.payload << 32 | s.payload) and written
// through the warp-buffered path of Section III-C. The ring wraps when
// the buffer fills — the paper's Figure 17 methodology ("we do not flush
// the results back to the CPU when they overflow the GPU memory ... but
// overwrite them in order to isolate the in-GPU performance"); the
// out-of-GPU strategies instead drain it over PCIe between wraps.
//
// Join kernels do not write the ring from their block bodies. Each block
// records its pairs in an EmitRecorder; after the launch, Publish claims
// every block's count in ascending block id and copies only the pairs
// that survive the wrap. The ring then holds exactly what serialized
// block-order execution would have left in it, at any host pool width.

#ifndef GJOIN_GPUJOIN_OUTPUT_RING_H_
#define GJOIN_GPUJOIN_OUTPUT_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/device_memory.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// Packs one result pair the way the ring stores it.
inline uint64_t PackPair(uint32_t r_payload, uint32_t s_payload) {
  return (static_cast<uint64_t>(r_payload) << 32) | s_payload;
}

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
  friend class EmitRecorder;

  sim::DeviceBuffer<uint64_t> pairs_;
  std::unique_ptr<std::atomic<uint64_t>> cursor_;
};

/// \brief Result pairs recorded per block during a launch, for
/// publication onto an OutputRing after it.
///
/// Record: a block body appends its pairs, in emission order, through
/// its own Cursor into fixed-size pages (nothing reallocates or moves).
/// Claim: Publish reserves each block's count in ascending block id, so
/// block b's pairs take logical offsets [base_b, base_b + n_b), where
/// base_b follows every earlier block's pairs — and the ring cursor ends
/// where serialized block-order execution leaves it. Publish: only
/// offsets >= total - capacity survive the wrap, so only those pairs are
/// copied, each ring slot exactly once.
class EmitRecorder {
 public:
  /// Pairs per page (512 KB).
  static constexpr size_t kPagePairs = size_t{1} << 16;

  /// \brief One block's append position. Touched only by the thread
  /// running that block; cache-line aligned so neighbours do not share.
  class alignas(64) Cursor {
   public:
    void Push(uint32_t r_payload, uint32_t s_payload) {
      if (pos_ == end_) NextPage();
      *pos_++ = PackPair(r_payload, s_payload);
    }

    /// Pairs recorded so far.
    uint64_t count() const {
      if (pages_.empty()) return 0;
      return (pages_.size() - 1) * kPagePairs +
             static_cast<uint64_t>(pos_ - pages_.back().get());
    }

   private:
    friend class EmitRecorder;
    void NextPage();

    std::vector<std::unique_ptr<uint64_t[]>> pages_;
    uint64_t* pos_ = nullptr;
    uint64_t* end_ = nullptr;
  };

  explicit EmitRecorder(size_t num_blocks) : cursors_(num_blocks) {}

  /// Block `block`'s cursor.
  Cursor& cursor(int block) { return cursors_[static_cast<size_t>(block)]; }

  /// Claims every block's pairs on `ring` in ascending block id, then
  /// copies the pairs that survive the wrap into it. Call once, after the
  /// launch whose bodies recorded the pairs has returned.
  void Publish(OutputRing* ring);

 private:
  std::vector<Cursor> cursors_;
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_OUTPUT_RING_H_
