// Software-managed scatter buffers (the paper's CPU-side partitioning
// recipe, Section IV-B: "software-managed buffers [...] flushed with
// non-temporal stores").
//
// A radix-partition scatter writes each tuple to a data-dependent
// destination: 8-16 bytes land on a random cache line per tuple, so the
// CPU pays a read-for-ownership miss plus an eventual writeback for
// every line it barely fills. The ScatterBuffers staging area fixes the
// access pattern, not the work: tuples accumulate in a small
// per-destination buffer (a few cache lines each, L1/L2-resident), and a
// full buffer is flushed to its destination as one sequential
// line-granularity burst. StreamCopyU32 performs that burst with
// non-temporal stores on every whole line where the ISA has them — the
// flushed lines bypass the cache entirely (no RFO read of data the CPU
// is about to fully overwrite, no eviction pressure on the staging
// area); the partial lines at a burst's ends take plain stores.
//
// This header is the ONLY place non-temporal intrinsics may appear (the
// `nontemporal-guard` linter rule enforces it): NT stores break the
// usual happens-before reasoning — they drain through write-combining
// buffers and are not ordered by plain loads/stores — so every use must
// go through StreamCopyU32 + StreamFence, whose callers inherit a
// single audited publication protocol. Mutex acquire/release (our
// thread-pool joins) also drains WC buffers on x86, but callers publish
// with an explicit StreamFence() at the end of each producing region
// anyway — belt and braces, and self-documenting.
//
// Each destination stages up to kScatterBufferTuples tuples (callers
// may cap that lower to bound host memory). Results and charged
// KernelStats do not depend on the buffer size: all stage/flush charges
// are linear in the tuple count, bucket boundaries depend only on
// cumulative per-destination counts, and per-destination tuple order is
// preserved (gpujoin_stat_invariance_test pins the stats).

#ifndef GJOIN_UTIL_SCATTER_BUFFER_H_
#define GJOIN_UTIL_SCATTER_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace gjoin::util {

/// Staged tuples per destination: 256 tuples = 2 KB = 32 cache lines,
/// big enough that every flush is a multi-line burst, small enough that
/// a 2^8-fanout pass stages under 512 KB.
inline constexpr int kScatterBufferTuples = 256;

/// Copies `n` uint32 values to `dst`. Where the ISA has non-temporal
/// stores, every whole 64-byte line of `dst` the copy covers is written
/// with them; the partial lines at either end (and the whole copy, when
/// it covers no full line) use plain stores. A non-temporal store to a
/// partial line is slow: the write-combining buffer cannot retire it as
/// one line write, so it drains as a masked partial write to memory —
/// and the line is usually shared with a neighbouring run that is about
/// to be written anyway. Content is identical either way. Callers MUST
/// publish with StreamFence() before other threads may read `dst`.
inline void StreamCopyU32(const uint32_t* src, uint32_t* dst, size_t n) {
#if defined(__SSE2__)
  constexpr size_t kLineWords = 64 / sizeof(uint32_t);
  // Words before dst's first line boundary (0 when already aligned).
  const size_t head =
      ((0 - reinterpret_cast<uintptr_t>(dst)) & 63u) / sizeof(uint32_t);
  if (n < head + kLineWords) {
    for (size_t i = 0; i < n; ++i) dst[i] = src[i];
    return;
  }
  size_t i = 0;
  for (; i < head; ++i) dst[i] = src[i];
  for (; i + kLineWords <= n; i += kLineWords) {
    for (size_t j = 0; j < kLineWords; j += 4) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + j));
      _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i + j), v);
    }
  }
  for (; i < n; ++i) dst[i] = src[i];
#else
  std::copy_n(src, n, dst);
#endif
}

/// Orders all prior non-temporal stores before subsequent stores: call
/// once at the end of every region that used StreamCopyU32, before its
/// output is handed to another thread.
inline void StreamFence() {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

/// \brief Per-destination staging for a radix scatter: `fanout` buffers
/// of `capacity` (key, payload) tuples each, stored as two contiguous
/// strided arrays so a buffer's flush reads sequential staging lines.
///
/// Protocol: Push() stages one tuple and returns true when the
/// destination's buffer just filled — the caller flushes Run(d) to the
/// real destination (typically via StreamCopyU32) and calls Clear(d).
/// At the end of the producing scope the caller drains the partial
/// buffers (DrainAll). With capacity 1 every Push returns true.
///
/// Flush counters (tuples/flushes drained through Clear) accumulate
/// across Init() calls so one thread-local instance can serve many
/// blocks; TakeCounters() reads and resets them.
class ScatterBuffers {
 public:
  /// (Re-)shapes the staging area and empties all buffers. Counters are
  /// preserved. Storage is reused when the shape shrinks.
  void Init(uint32_t fanout, int capacity = kScatterBufferTuples) {
    fanout_ = fanout;
    capacity_ = static_cast<uint32_t>(
        std::clamp(capacity, 1, kScatterBufferTuples));
    const size_t slots = static_cast<size_t>(fanout_) * capacity_;
    if (keys_.size() < slots) {
      keys_.resize(slots);
      pays_.resize(slots);
    }
    fill_.assign(fanout_, 0);
  }

  uint32_t fanout() const { return fanout_; }
  uint32_t capacity() const { return capacity_; }

  /// Stages one tuple for destination d. True = d's buffer is now full;
  /// the caller must flush Run(d) and Clear(d) before the next Push(d).
  bool Push(uint32_t d, uint32_t key, uint32_t pay) {
    const uint32_t fill = fill_[d];
    const size_t base = static_cast<size_t>(d) * capacity_ + fill;
    keys_[base] = key;
    pays_[base] = pay;
    fill_[d] = fill + 1;
    return fill + 1 == capacity_;
  }

  struct RunView {
    const uint32_t* keys;
    const uint32_t* pays;
    uint32_t count;
  };

  /// The currently staged run of destination d.
  RunView Run(uint32_t d) const {
    const size_t base = static_cast<size_t>(d) * capacity_;
    return {keys_.data() + base, pays_.data() + base, fill_[d]};
  }

  /// Marks destination d's staged run as flushed.
  void Clear(uint32_t d) {
    flushed_tuples_ += fill_[d];
    ++flushes_;
    fill_[d] = 0;
  }

  /// Invokes fn(d, RunView) for every non-empty buffer in ascending
  /// destination order (deterministic drain), clearing each.
  template <typename Fn>
  void DrainAll(Fn&& fn) {
    for (uint32_t d = 0; d < fanout_; ++d) {
      if (fill_[d] == 0) continue;
      fn(d, Run(d));
      Clear(d);
    }
  }

  struct Counters {
    uint64_t flushed_tuples = 0;
    uint64_t flushes = 0;
  };

  /// Reads and resets the accumulated flush counters.
  Counters TakeCounters() {
    Counters c{flushed_tuples_, flushes_};
    flushed_tuples_ = 0;
    flushes_ = 0;
    return c;
  }

 private:
  uint32_t fanout_ = 0;
  uint32_t capacity_ = 1;
  std::vector<uint32_t> keys_, pays_;
  std::vector<uint32_t> fill_;
  uint64_t flushed_tuples_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace gjoin::util

#endif  // GJOIN_UTIL_SCATTER_BUFFER_H_
