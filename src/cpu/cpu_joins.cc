#include "src/cpu/cpu_joins.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "src/util/bits.h"
#include "src/util/flat_table.h"

namespace gjoin::cpu {

namespace {

/// Shared functional core of both CPU joins: neither charges
/// per-operation stats (the CPU cost models are analytic in the input
/// sizes), so the functional side only needs the join's
/// order-independent aggregate — fold the build side per key into a
/// flat table and probe it in parallel.
void FunctionalAggJoin(const data::Relation& build,
                       const data::Relation& probe, util::ThreadPool* pool,
                       CpuJoinResult* result) {
  util::FlatAggTable table(build.size());
  table.AddAll(build.keys.data(), build.payloads.data(), build.size());

  std::atomic<uint64_t> matches{0};
  std::atomic<uint64_t> checksum{0};
  pool->ParallelForRanges(probe.size(), [&](size_t /*worker*/, size_t lo,
                                            size_t hi) {
    uint64_t local_matches = 0, local_sum = 0;
    table.ProbeAll(probe.keys.data() + lo, probe.payloads.data() + lo,
                   hi - lo, &local_matches, &local_sum);
    matches.fetch_add(local_matches, std::memory_order_relaxed);
    checksum.fetch_add(local_sum, std::memory_order_relaxed);
  });
  result->matches = matches.load();
  result->payload_sum = checksum.load();
}

}  // namespace

util::Result<CpuJoinResult> NpoJoin(const data::Relation& build,
                                    const data::Relation& probe,
                                    const CpuJoinConfig& config,
                                    const hw::CpuCostModel& model,
                                    util::ThreadPool* pool) {
  if (config.threads < 1) {
    return util::Status::Invalid("NPO: threads must be >= 1");
  }
  if (pool == nullptr) pool = util::ThreadPool::Default();

  CpuJoinResult result;
  FunctionalAggJoin(build, probe, pool, &result);
  result.cost = model.Npo(build.size(), probe.size(), config.threads);
  result.seconds = result.cost.total_s;
  return result;
}

util::Result<CpuJoinResult> ProJoin(const data::Relation& build,
                                    const data::Relation& probe,
                                    const CpuJoinConfig& config,
                                    const hw::CpuCostModel& model,
                                    util::ThreadPool* pool) {
  if (config.threads < 1) {
    return util::Status::Invalid("PRO: threads must be >= 1");
  }
  if (config.radix_bits < 1 || config.radix_bits > 24) {
    return util::Status::Invalid("PRO: radix_bits out of range");
  }
  if (pool == nullptr) pool = util::ThreadPool::Default();

  // A radix join's result is the same order-independent aggregate as
  // any other join's, so PRO shares the flat-aggregate functional core.
  // The radix partitioning logic itself is exercised by the GPU
  // partitioner and cpu_partition, both of which keep full functional
  // fidelity.
  CpuJoinResult result;
  FunctionalAggJoin(build, probe, pool, &result);
  result.cost = model.Pro(build.size(), probe.size(), config.threads,
                          data::Relation::kTupleBytes, config.radix_bits);
  result.seconds = result.cost.total_s;
  return result;
}

}  // namespace gjoin::cpu
