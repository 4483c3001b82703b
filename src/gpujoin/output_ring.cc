#include "src/gpujoin/output_ring.h"

namespace gjoin::gpujoin {

void PublishSurvivors(
    OutputRing* ring, const std::vector<uint64_t>& counts,
    util::ThreadPool* pool,
    const std::function<void(size_t, SurvivorSink&)>& enumerate) {
  // base[b] is block b's first logical offset.
  std::vector<uint64_t> base(counts.size());
  for (size_t b = 0; b < counts.size(); ++b) base[b] = ring->Claim(counts[b]);
  const uint64_t capacity = ring->capacity();
  const uint64_t end = ring->total_written();
  const uint64_t cut = end > capacity ? end - capacity : 0;

  std::vector<size_t> surviving;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] > 0 && base[b] + counts[b] > cut) surviving.push_back(b);
  }
  pool->ParallelFor(surviving.size(), [&](size_t i) {
    const size_t b = surviving[i];
    const uint64_t skip = cut > base[b] ? cut - base[b] : 0;
    SurvivorSink sink(ring->pairs_.data(), capacity,
                      (base[b] + skip) % capacity, skip);
    enumerate(b, sink);
  });
}

}  // namespace gjoin::gpujoin
