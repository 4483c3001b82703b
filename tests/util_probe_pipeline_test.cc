// Tests for the probe-pipeline engines (src/util/probe_pipeline.h).
//
// Each engine runs at input sizes around its ring (empty, one probe,
// just short of two rings, exactly two rings, one past, and a long
// input) against the plain loop it replaces: the ordered engines must
// visit probes in exactly the plain loop's order with each probe's own
// state, and the out-of-order engine must complete every probe exactly
// once after as many steps as the plain loop takes.

#include "src/util/probe_pipeline.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace gjoin::util {
namespace {

constexpr size_t kD = kProbePipelineDepth;

std::vector<size_t> Sizes() {
  return {0, 1, 2 * kD - 1, 2 * kD, 2 * kD + 1, 10007};
}

/// Chain length of probe i: 0 to 8 steps, varying so that probes finish
/// out of start order in the ring.
uint32_t ChainLength(size_t i) {
  return static_cast<uint32_t>((i * 2654435761u) >> 7) % 9;
}

/// A probe's state, stamped with its index so a visit can check that it
/// sees its own state, not a ring neighbour's.
struct Probe {
  size_t i = SIZE_MAX;
  uint32_t left = 0;
  int stage = 0;
};

TEST(ProbePipelineTest, CompletesEveryProbeOnceWithPlainLoopStepCounts) {
  for (const size_t n : Sizes()) {
    SCOPED_TRACE("n " + std::to_string(n));
    std::vector<uint32_t> begins(n, 0), steps(n, 0), done(n, 0);
    bool own_state = true;
    ProbePipeline<Probe>(
        n,
        [&](size_t i, Probe& p) {
          ++begins[i];
          p = {i, ChainLength(i), 0};
        },
        [&](size_t i, Probe& p) {
          own_state &= p.i == i;
          ++steps[i];
          if (p.left == 0) {
            ++done[i];
            return false;
          }
          --p.left;
          return true;
        });
    EXPECT_TRUE(own_state);

    // The plain loop's per-index step counts.
    std::vector<uint32_t> plain_steps(n, 0);
    for (size_t i = 0; i < n; ++i) {
      Probe p{i, ChainLength(i), 0};
      ++plain_steps[i];
      while (p.left != 0) {
        --p.left;
        ++plain_steps[i];
      }
    }
    EXPECT_EQ(steps, plain_steps);
    EXPECT_EQ(begins, std::vector<uint32_t>(n, 1));
    EXPECT_EQ(done, std::vector<uint32_t>(n, 1));
  }
}

TEST(ProbePipelineTest, OrderedPipelineVisitsInPlainLoopOrder) {
  for (const size_t n : Sizes()) {
    SCOPED_TRACE("n " + std::to_string(n));
    std::vector<size_t> stage0_order, stage1_order, finish_order;
    bool own_state = true;
    OrderedProbePipeline<Probe>(
        n,
        [&](size_t i, Probe& p) {
          stage0_order.push_back(i);
          p = {i, ChainLength(i), 0};
        },
        [&](size_t i, Probe& p) {
          stage1_order.push_back(i);
          own_state &= p.i == i && p.stage == 0;
          p.stage = 1;
        },
        [&](size_t i, Probe& p) {
          finish_order.push_back(i);
          own_state &= p.i == i && p.stage == 1 && p.left == ChainLength(i);
        });
    std::vector<size_t> plain(n);
    std::iota(plain.begin(), plain.end(), size_t{0});
    EXPECT_EQ(finish_order, plain);
    EXPECT_EQ(stage0_order, plain);
    EXPECT_EQ(stage1_order, plain);
    EXPECT_TRUE(own_state);
  }
}

TEST(ProbePipelineTest, GroupProbeVisitsInPlainLoopOrder) {
  for (const size_t n : Sizes()) {
    SCOPED_TRACE("n " + std::to_string(n));
    std::vector<size_t> prepare_order, consume_order;
    bool own_state = true;
    GroupProbe<size_t>(
        n,
        [&](size_t i, size_t& st) {
          prepare_order.push_back(i);
          st = i;
        },
        [&](size_t i, size_t& st) {
          consume_order.push_back(i);
          own_state &= st == i;
        });
    std::vector<size_t> plain(n);
    std::iota(plain.begin(), plain.end(), size_t{0});
    EXPECT_EQ(consume_order, plain);
    EXPECT_EQ(prepare_order, plain);
    EXPECT_TRUE(own_state);
  }
}

}  // namespace
}  // namespace gjoin::util
