// Tests for the software-managed scatter buffers (src/util/scatter_buffer.h):
// StreamCopyU32's content across every destination alignment and length
// (plain head, whole non-temporal lines, plain tail), and the
// ScatterBuffers Push/Run/Clear/DrainAll protocol with its counters.

#include "src/util/scatter_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace gjoin::util {
namespace {

TEST(StreamCopyTest, MatchesCopyNAtEveryAlignmentAndLength) {
  constexpr size_t kGuard = 16;       // one line of guard words per side
  constexpr size_t kMaxMisalign = 15;  // destination offsets 0..15 words
  constexpr size_t kMaxN = 80;         // up to five whole lines
  constexpr size_t kWords = 2 * kGuard + kMaxMisalign + kMaxN;
  constexpr uint32_t kSentinel = 0xdeadbeefu;

  std::vector<uint32_t> src(kMaxN + 1);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint32_t>(i * 2654435761u + 1);
  }
  alignas(64) uint32_t got[kWords];
  alignas(64) uint32_t want[kWords];
  for (size_t misalign = 0; misalign <= kMaxMisalign; ++misalign) {
    for (size_t n = 0; n <= kMaxN; ++n) {
      SCOPED_TRACE("misalign " + std::to_string(misalign) + " words, n " +
                   std::to_string(n));
      std::fill(std::begin(got), std::end(got), kSentinel);
      std::fill(std::begin(want), std::end(want), kSentinel);
      // An unaligned source too: the copy loads with unaligned loads.
      StreamCopyU32(src.data() + 1, got + kGuard + misalign, n);
      StreamFence();
      std::copy_n(src.data() + 1, n, want + kGuard + misalign);
      for (size_t i = 0; i < kWords; ++i) {
        ASSERT_EQ(got[i], want[i]) << "word " << i;
      }
    }
  }
}

TEST(ScatterBuffersTest, PushFillsAtCapacityAndRunKeepsOrder) {
  ScatterBuffers sb;
  sb.Init(/*fanout=*/4, /*capacity=*/3);
  EXPECT_EQ(sb.fanout(), 4u);
  EXPECT_EQ(sb.capacity(), 3u);
  EXPECT_FALSE(sb.Push(1, 10, 100));
  EXPECT_FALSE(sb.Push(1, 11, 101));
  EXPECT_FALSE(sb.Push(2, 20, 200));
  EXPECT_TRUE(sb.Push(1, 12, 102));

  const ScatterBuffers::RunView run = sb.Run(1);
  ASSERT_EQ(run.count, 3u);
  EXPECT_EQ(std::vector<uint32_t>(run.keys, run.keys + 3),
            (std::vector<uint32_t>{10, 11, 12}));
  EXPECT_EQ(std::vector<uint32_t>(run.pays, run.pays + 3),
            (std::vector<uint32_t>{100, 101, 102}));
  EXPECT_EQ(sb.Run(2).count, 1u);
  EXPECT_EQ(sb.Run(0).count, 0u);

  sb.Clear(1);
  EXPECT_EQ(sb.Run(1).count, 0u);
  EXPECT_EQ(sb.Run(2).count, 1u);  // other destinations untouched
  EXPECT_FALSE(sb.Push(1, 13, 103));
  EXPECT_EQ(sb.Run(1).keys[0], 13u);
}

TEST(ScatterBuffersTest, CapacityOneFlushesEveryTupleAndSizesClamp) {
  ScatterBuffers sb;
  sb.Init(2, 1);
  EXPECT_TRUE(sb.Push(0, 1, 1));
  sb.Clear(0);
  EXPECT_TRUE(sb.Push(0, 2, 2));

  sb.Init(2, 0);
  EXPECT_EQ(sb.capacity(), 1u);
  sb.Init(2, kScatterBufferTuples + 1000);
  EXPECT_EQ(sb.capacity(), static_cast<uint32_t>(kScatterBufferTuples));
}

TEST(ScatterBuffersTest, DrainAllVisitsDirtyBuffersInAscendingOrder) {
  ScatterBuffers sb;
  sb.Init(8, 4);
  sb.Push(5, 50, 500);
  sb.Push(0, 1, 10);
  sb.Push(5, 51, 501);
  sb.Push(3, 30, 300);

  std::vector<uint32_t> order;
  std::vector<uint32_t> counts;
  sb.DrainAll([&](uint32_t d, ScatterBuffers::RunView run) {
    order.push_back(d);
    counts.push_back(run.count);
    if (d == 5) {
      EXPECT_EQ(run.keys[0], 50u);
      EXPECT_EQ(run.keys[1], 51u);
      EXPECT_EQ(run.pays[1], 501u);
    }
  });
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 3, 5}));
  EXPECT_EQ(counts, (std::vector<uint32_t>{1, 1, 2}));

  // Every buffer was cleared: a second drain visits nothing.
  int visits = 0;
  sb.DrainAll([&](uint32_t, ScatterBuffers::RunView) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(ScatterBuffersTest, CountersSurviveInitAndResetOnTake) {
  ScatterBuffers sb;
  sb.Init(4, 2);
  sb.Push(0, 1, 1);
  sb.Push(0, 2, 2);
  sb.Clear(0);                                 // 2 tuples, 1 flush
  sb.Push(3, 3, 3);
  sb.DrainAll([](uint32_t, ScatterBuffers::RunView) {});  // 1 tuple, 1 flush

  // Re-shaping (as each new block does) keeps the counters and empties
  // the buffers.
  sb.Init(16, 8);
  EXPECT_EQ(sb.Run(3).count, 0u);
  sb.Push(9, 4, 4);
  sb.Clear(9);  // 1 tuple, 1 flush

  const ScatterBuffers::Counters c = sb.TakeCounters();
  EXPECT_EQ(c.flushed_tuples, 4u);
  EXPECT_EQ(c.flushes, 3u);
  const ScatterBuffers::Counters again = sb.TakeCounters();
  EXPECT_EQ(again.flushed_tuples, 0u);
  EXPECT_EQ(again.flushes, 0u);
}

}  // namespace
}  // namespace gjoin::util
