#include "src/gpujoin/output_ring.h"

#include <algorithm>
#include <cstring>

namespace gjoin::gpujoin {

void EmitRecorder::Cursor::NextPage() {
  pages_.push_back(std::make_unique_for_overwrite<uint64_t[]>(kPagePairs));
  pos_ = pages_.back().get();
  end_ = pos_ + kPagePairs;
}

void EmitRecorder::Publish(OutputRing* ring) {
  // base[b] is block b's first logical offset.
  std::vector<uint64_t> base(cursors_.size());
  for (size_t b = 0; b < cursors_.size(); ++b) {
    base[b] = ring->Claim(cursors_[b].count());
  }
  const uint64_t capacity = ring->capacity();
  const uint64_t end = ring->total_written();
  const uint64_t first = end > capacity ? end - capacity : 0;

  uint64_t* const slots = ring->pairs_.data();
  for (size_t b = 0; b < cursors_.size(); ++b) {
    const Cursor& cursor = cursors_[b];
    const uint64_t n = cursor.count();
    // Skip the block's pairs that a later pair overwrites.
    for (uint64_t i = first > base[b] ? first - base[b] : 0; i < n;) {
      const uint64_t off = i % kPagePairs;
      const uint64_t run = std::min(kPagePairs - off, n - i);
      const uint64_t* src = cursor.pages_[i / kPagePairs].get() + off;
      // A run of survivors is at most one ring's worth: it wraps at most
      // once.
      const uint64_t pos = (base[b] + i) % capacity;
      const uint64_t head = std::min(run, capacity - pos);
      std::memcpy(slots + pos, src, head * sizeof(uint64_t));
      std::memcpy(slots, src + head, (run - head) * sizeof(uint64_t));
      i += run;
    }
  }
}

}  // namespace gjoin::gpujoin
