// Memory-latency-tolerant probe pipelines.
//
// Every functional hash-probe hot loop in the simulator chases one
// dependent cache miss per tuple (hash slot -> chain head -> chain
// node); on tables far larger than the LLC the loop runs at memory
// latency while the out-of-order window, sized for a handful of
// iterations, cannot overlap enough independent probes. The primitives
// here restructure those loops the way state-of-the-art CPU joins do
// (AMAC / group prefetching): keep a fixed-depth ring of in-flight
// probes and issue a software prefetch for probe i+D's next dependent
// access while finishing probe i.
//
// Three engines cover the shapes in this repo:
//
//   ProbePipeline          AMAC-style state machine. Probes *complete
//                          out of order*, so it is only for
//                          order-independent accumulation (aggregate
//                          matches / checksums / step counts — sums are
//                          associative and commutative, so results are
//                          bit-identical to the plain loop's). Fastest on
//                          chained tables: long-latency probes no
//                          longer stall their neighbors.
//   OrderedProbePipeline   Two-stage in-order ring (group prefetch):
//                          slot prefetch at i+2D-1, head resolution at
//                          i+D, chain walk at i. Visit order is exactly
//                          the plain loop's — required where emission
//                          order is observable (output-ring writes).
//   GroupProbe             One-stage in-order batches for single-access
//                          tables (dense arrays, linear probing).
//
// Charged KernelStats never depend on the pipelining: the engines only
// reorder (or merely prefetch) host work, and every charge a caller
// derives from them (steps, matches) is an order-independent sum.
//
// The depth is fixed at kProbePipelineDepth in-flight probes (inputs
// shorter than two rings run the plain loop instead). Measured on
// 16M-row chained probes over tables far larger than the LLC: packed
// nodes at depth 32 run ~2.3x the split-array scalar loop, and deeper
// rings stop helping because the in-flight lines exceed the L1
// miss-handling capacity.

#ifndef GJOIN_UTIL_PROBE_PIPELINE_H_
#define GJOIN_UTIL_PROBE_PIPELINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace gjoin::util {

/// Probes each engine keeps in flight (the measured knee; ring buffers
/// live on the stack).
inline constexpr int kProbePipelineDepth = 32;

/// Read-intent prefetch with no temporal-locality hint (probe data is
/// touched once; keep it out of the way of the table's hot set).
inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0, 0); }

/// Write-intent prefetch (table builds).
inline void PrefetchWrite(const void* p) { __builtin_prefetch(p, 1, 0); }

/// \brief One 16-byte chained-hash node: key, payload and chain link in
/// a single cache-line-friendly record, so a chain step costs one miss
/// instead of three (split keys/payloads/next arrays). Mirrors the
/// paper's device layout ("key, next pointer and payload are stored
/// interleaved, so one transaction covers a node").
struct PackedHashNode {
  uint32_t key = 0;
  uint32_t pay = 0;
  int32_t next = -1;
  uint32_t pad = 0;
};
static_assert(sizeof(PackedHashNode) == 16);

/// \brief Hash-slot header packing the chunk epoch next to the chain
/// head, so an epoch-gated head read is one access, not two parallel
/// array lookups (join_copartitions resets its per-chunk tables in O(1)
/// by bumping the epoch).
struct EpochHead {
  uint32_t epoch = 0;
  int32_t head = -1;
};
static_assert(sizeof(EpochHead) == 8);

/// AMAC-style out-of-order probe pipeline.
///
/// begin(i, st) initializes probe i's state and prefetches its first
/// dependent access; step(i, st) performs one dependent access and
/// either returns true (chain continues; the next access has been
/// prefetched) or false (probe i is done). The engine keeps
/// kProbePipelineDepth probes in flight and refills a finished slot
/// immediately, so a probe stalled on a miss never blocks the others.
///
/// ORDER: probes finish out of order (finished slots are back-swapped).
/// Callers must only accumulate order-independent values. Inputs
/// shorter than two rings, where pipelining cannot pay for its ring,
/// run the plain loop.
template <typename State, typename BeginFn, typename StepFn>
void ProbePipeline(size_t n, BeginFn&& begin, StepFn&& step) {
  constexpr int kDepth = kProbePipelineDepth;
  if (n < 2 * static_cast<size_t>(kDepth)) {
    State st{};
    for (size_t i = 0; i < n; ++i) {
      begin(i, st);
      while (step(i, st)) {
      }
    }
    return;
  }
  struct Slot {
    size_t i;
    State st;
  };
  Slot ring[kDepth];
  size_t next = 0;
  int live = 0;
  for (; live < kDepth; ++live, ++next) {
    ring[live].i = next;
    begin(next, ring[live].st);
  }
  while (live > 0) {
    for (int j = 0; j < live;) {
      Slot& slot = ring[j];
      if (step(slot.i, slot.st)) {
        ++j;
      } else if (next < n) {
        slot.i = next;
        begin(next, slot.st);
        ++next;
        ++j;
      } else {
        ring[j] = ring[--live];
      }
    }
  }
}

/// Two-stage in-order probe pipeline (group prefetch).
///
/// stage0(i, st) computes probe i's slot and prefetches the head cell;
/// stage1(i, st) resolves the head (now cached) and prefetches the
/// first chain node; finish(i, st) walks the chain serially. With D =
/// kProbePipelineDepth, stage0 runs 2D-1 probes ahead of finish, stage1
/// D ahead, and finish(i) runs strictly in i order — byte-identical
/// emission order to the plain loop. Inputs shorter than 2D run the
/// plain loop.
template <typename State, typename Stage0Fn, typename Stage1Fn,
          typename FinishFn>
void OrderedProbePipeline(size_t n, Stage0Fn&& stage0, Stage1Fn&& stage1,
                          FinishFn&& finish) {
  constexpr size_t kDepth = kProbePipelineDepth;
  constexpr size_t kRing = 2 * kDepth;
  if (n < kRing) {
    State st{};
    for (size_t i = 0; i < n; ++i) {
      stage0(i, st);
      stage1(i, st);
      finish(i, st);
    }
    return;
  }
  State ring[kRing];
  // Probe i's state lives in ring[i % kRing]; the stage0 lead of
  // kRing - 1 keeps it from being overwritten before finish(i).
  size_t i0 = 0, i1 = 0;
  for (; i0 < kRing - 1; ++i0) stage0(i0, ring[i0 % kRing]);
  for (; i1 < kDepth; ++i1) stage1(i1, ring[i1 % kRing]);
  for (size_t i = 0; i < n; ++i) {
    if (i0 < n) {
      stage0(i0, ring[i0 % kRing]);
      ++i0;
    }
    if (i1 < n) {
      stage1(i1, ring[i1 % kRing]);
      ++i1;
    }
    finish(i, ring[i % kRing]);
  }
}

/// One-stage in-order batches for tables probed with a single
/// (non-chained) dependent access: prepare(i, st) computes the slot and
/// prefetches it for a whole batch of kProbePipelineDepth probes, then
/// consume(i, st) visits them in order.
template <typename State, typename PrepareFn, typename ConsumeFn>
void GroupProbe(size_t n, PrepareFn&& prepare, ConsumeFn&& consume) {
  constexpr size_t kDepth = kProbePipelineDepth;
  State batch[kDepth];
  for (size_t base = 0; base < n; base += kDepth) {
    const size_t end = std::min(n, base + kDepth);
    for (size_t i = base; i < end; ++i) prepare(i, batch[i - base]);
    for (size_t i = base; i < end; ++i) consume(i, batch[i - base]);
  }
}

}  // namespace gjoin::util

#endif  // GJOIN_UTIL_PROBE_PIPELINE_H_
