// State-of-the-art CPU join baselines, re-implemented from Balkesen et
// al. [3] (the paper compares against their NPO and PRO directly,
// Section V: "We directly use the source code provided by these studies
// for the CPU algorithms" — here re-implemented from scratch).
//
//   NPO — non-partitioned hash join: one shared chained hash table,
//         hardware-oblivious, random-access bound.
//   PRO — parallel radix join: two partitioning passes to cache-sized
//         partitions, then per-partition build+probe.
//
// Both execute functionally (multi-threaded, results verified against
// the oracle) and are *timed* by hw::CpuCostModel on the paper's
// dual-socket testbed, so their reported throughput is comparable with
// the simulated GPU joins regardless of the machine running the
// reproduction.

#ifndef GJOIN_CPU_CPU_JOINS_H_
#define GJOIN_CPU_CPU_JOINS_H_

#include <cstdint>

#include "src/data/relation.h"
#include "src/hw/cpu_cost.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace gjoin::cpu {

/// \brief Result of a CPU join: verified counts plus modeled timing.
struct CpuJoinResult {
  uint64_t matches = 0;
  uint64_t payload_sum = 0;
  double seconds = 0;          ///< Modeled total (== cost.total_s).
  hw::CpuJoinCost cost;        ///< Phase breakdown.

  double Throughput(uint64_t build_tuples, uint64_t probe_tuples) const {
    return seconds > 0 ? static_cast<double>(build_tuples + probe_tuples) /
                             seconds
                       : 0;
  }
};

/// \brief Configuration shared by the CPU joins.
struct CpuJoinConfig {
  int threads = 48;        ///< Paper: both NPO and PRO use all 48 threads.
  int radix_bits = 14;     ///< PRO fanout over two passes.
};

/// Non-partitioned hash join (NPO).
[[nodiscard]]
util::Result<CpuJoinResult> NpoJoin(const data::Relation& build,
                                    const data::Relation& probe,
                                    const CpuJoinConfig& config,
                                    const hw::CpuCostModel& model,
                                    util::ThreadPool* pool = nullptr);

/// Parallel radix join (PRO).
[[nodiscard]]
util::Result<CpuJoinResult> ProJoin(const data::Relation& build,
                                    const data::Relation& probe,
                                    const CpuJoinConfig& config,
                                    const hw::CpuCostModel& model,
                                    util::ThreadPool* pool = nullptr);

}  // namespace gjoin::cpu

#endif  // GJOIN_CPU_CPU_JOINS_H_
