#include "src/gpujoin/nonpartitioned.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "src/util/bits.h"
#include "src/util/probe_pipeline.h"

namespace gjoin::gpujoin {

namespace {

using util::CeilDiv;
using util::PackedHashNode;

/// Work split helper: [begin, end) range of block `b` out of `nb`.
std::pair<size_t, size_t> BlockRange(size_t n, int b, int nb) {
  const size_t chunk = CeilDiv(n, static_cast<size_t>(nb));
  const size_t begin = static_cast<size_t>(b) * chunk;
  return {std::min(begin, n), std::min(begin + chunk, n)};
}

int ResolveNumBlocks(const sim::Device& device,
                     const NonPartitionedJoinConfig& config) {
  return config.num_blocks != 0
             ? config.num_blocks
             : device.spec().gpu.num_sms * device.spec().gpu.blocks_per_sm;
}

}  // namespace

util::Result<PreparedNonPartitionedBuild> PrepareNonPartitionedBuild(
    sim::Device* device, const DeviceRelation& build,
    const NonPartitionedJoinConfig& config) {
  const size_t n = build.size;
  const int num_blocks = ResolveNumBlocks(*device, config);
  const int depth =
      util::ResolveProbePipelineDepth(config.probe_pipeline_depth);

  PreparedNonPartitionedBuild prepared;
  prepared.variant = config.variant;
  prepared.build_tuples = n;

  if (config.variant == NonPartitionedVariant::kPerfectHash) {
    // ---- Perfect hash: dense payload array indexed by key ----
    uint32_t max_key = 0;
    for (size_t i = 0; i < n; ++i) max_key = std::max(max_key, build.keys[i]);
    GJOIN_ASSIGN_OR_RETURN(
        prepared.dense,
        device->memory().Allocate<uint32_t>(static_cast<size_t>(max_key) + 1,
                                            "npj:perfect-table"));
    prepared.max_key = max_key;
    prepared.table_bytes = (static_cast<uint64_t>(max_key) + 1) * 4;
    sim::DeviceBuffer<uint32_t>& dense = prepared.dense;
    const uint64_t table_bytes = prepared.table_bytes;

    std::atomic<bool> duplicate{false};
    sim::LaunchConfig build_launch{"nonpartitioned_build_perfect", num_blocks,
                                   config.threads_per_block, 1024};
    GJOIN_ASSIGN_OR_RETURN(
        sim::LaunchResult build_result,
        device->Launch(build_launch, [&](sim::Block& block) {
          auto [begin, end] = BlockRange(n, block.block_id(), num_blocks);
          if (begin >= end) return;
          block.ChargeCoalescedRead(8ull * (end - begin));
          block.ChargeRandomAccess(end - begin, table_bytes);
          block.ChargeCycles((end - begin) * 3 / 32 + 1);
          // In-order batches; the scatter store is the dependent access.
          util::GroupProbe<uint32_t>(
              end - begin, depth,
              [&](size_t i, uint32_t& key) {
                key = build.keys[begin + i];
                util::PrefetchWrite(&dense[key]);
              },
              [&](size_t i, uint32_t& key) {
                // atomicExch, like the real kernel: blocks build
                // concurrently, and on the unique-key fast path every
                // slot is touched exactly once, so the table content is
                // deterministic; any duplicate aborts the join below.
                const uint32_t prev =
                    std::atomic_ref<uint32_t>(dense[key]).exchange(
                        build.payloads[begin + i] + 1,  // 0 marks empty
                        std::memory_order_relaxed);
                if (prev != 0) duplicate.store(true);
              });
        }));
    if (duplicate.load()) {
      return util::Status::ExecutionError(
          "perfect-hash join requires unique build keys");
    }
    prepared.build_s = build_result.seconds;
    return prepared;
  }

  // ---- Chaining: global table with offset-linked chains ----
  const size_t slots = util::NextPowerOfTwo(
      std::max<size_t>(n * config.slots_per_tuple, 64));
  GJOIN_ASSIGN_OR_RETURN(prepared.heads,
                         device->memory().Allocate<int32_t>(slots,
                                                            "npj:heads"));
  // Models the device-resident per-tuple next pointers (the real
  // kernel's only per-tuple table storage — keys stay in the resident
  // relation). The host-side walk goes through `nodes`, a packed
  // 16-byte-per-tuple functional mirror (key, payload, next in one
  // record) that costs one host cache miss per chain step instead of
  // three; like the co-partition kernels' functional scratch indices
  // it is not device-accounted.
  GJOIN_ASSIGN_OR_RETURN(prepared.next,
                         device->memory().Allocate<int32_t>(n, "npj:next"));
  prepared.nodes.resize(n);
  prepared.slots = slots;
  prepared.table_bytes = slots * 4 + n * 12;  // heads + next + keys
  sim::DeviceBuffer<int32_t>& heads = prepared.heads;
  std::vector<PackedHashNode>& nodes = prepared.nodes;
  const uint64_t table_bytes = prepared.table_bytes;
  for (size_t s = 0; s < slots; ++s) heads[s] = -1;

  sim::LaunchConfig build_launch{"nonpartitioned_build_chain", num_blocks,
                                 config.threads_per_block, 1024};
  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult build_result,
      device->Launch(
          build_launch,
          [&](sim::Block& block) {
            auto [begin, end] = BlockRange(n, block.block_id(), num_blocks);
            if (begin >= end) return;
            block.ChargeCoalescedRead(8ull * (end - begin));
            block.ChargeDeviceAtomic(end - begin);          // atomicExch
            block.ChargeRandomAccess(end - begin, table_bytes);  // node
            block.ChargeCycles((end - begin) * 4 / 32 + 1);
          },
          [&](sim::Block& block) {
            // The front-insertions themselves run in the epilogue:
            // concurrent inline inserts would order each slot's chain
            // by host-worker interleaving, while ascending-block-id
            // replay gives every chain the canonical (serialized
            // block-order) structure the probe goldens pin down. The
            // charges above are per-tuple counts and stay in the body.
            auto [begin, end] = BlockRange(n, block.block_id(), num_blocks);
            if (begin >= end) return;
            util::GroupProbe<uint32_t>(
                end - begin, depth,
                [&](size_t i, uint32_t& slot) {
                  slot = util::Mix32(build.keys[begin + i]) & (slots - 1);
                  util::PrefetchWrite(&heads[slot]);
                },
                [&](size_t i, uint32_t& slot) {
                  nodes[begin + i] = {build.keys[begin + i],
                                      build.payloads[begin + i],
                                      heads[slot], 0};
                  heads[slot] = static_cast<int32_t>(begin + i);
                });
          }));
  prepared.build_s = build_result.seconds;
  return prepared;
}

util::Result<JoinStats> NonPartitionedJoinWithBuild(
    sim::Device* device, const PreparedNonPartitionedBuild& build,
    const DeviceRelation& probe, const NonPartitionedJoinConfig& config,
    OutputRing* out) {
  if (config.variant != build.variant) {
    return util::Status::Invalid(
        "NonPartitionedJoinWithBuild: config.variant does not match the "
        "prepared build");
  }
  const size_t n = build.build_tuples;
  const int num_blocks = ResolveNumBlocks(*device, config);
  const int depth =
      util::ResolveProbePipelineDepth(config.probe_pipeline_depth);
  const uint64_t table_bytes = build.table_bytes;

  OutputRing ring;
  if (config.output != OutputMode::kMaterialize) {
    out = nullptr;
  } else if (out == nullptr) {
    GJOIN_ASSIGN_OR_RETURN(
        ring, OutputRing::Allocate(&device->memory(),
                                   std::max<size_t>(probe.size, 1)));
    out = &ring;
  }

  JoinStats stats;
  std::atomic<uint64_t> g_matches{0};
  std::atomic<uint64_t> g_checksum{0};

  // Each block records its result pairs in probe order; they are
  // published onto the ring after the probe launch, in ascending block id
  // (see EmitRecorder).
  EmitRecorder emits(out != nullptr ? static_cast<size_t>(num_blocks) : 0);

  if (config.variant == NonPartitionedVariant::kPerfectHash) {
    const sim::DeviceBuffer<uint32_t>& dense = build.dense;
    const uint32_t max_key = build.max_key;
    sim::LaunchConfig probe_launch{"nonpartitioned_probe_perfect", num_blocks,
                                   config.threads_per_block,
                                   out != nullptr ? size_t{8192} : size_t{1024}};
    GJOIN_ASSIGN_OR_RETURN(
        sim::LaunchResult probe_result,
        device->Launch(probe_launch, [&](sim::Block& block) {
          auto [begin, end] = BlockRange(probe.size, block.block_id(),
                                         num_blocks);
          if (begin >= end) return;
          uint64_t matches = 0, checksum = 0;
          EmitRecorder::Cursor* emit =
              out != nullptr ? &emits.cursor(block.block_id()) : nullptr;
          block.ChargeCoalescedRead(8ull * (end - begin));
          // One random access per probe: the best case.
          block.ChargeRandomAccess(end - begin, table_bytes);
          block.ChargeCycles((end - begin) * 3 / 32 + 1);
          // One dependent access per probe; in-order batches keep ring
          // emission identical to the scalar loop.
          util::GroupProbe<uint32_t>(
              end - begin, depth,
              [&](size_t i, uint32_t& key) {
                key = probe.keys[begin + i];
                if (key <= max_key) util::PrefetchRead(&dense[key]);
              },
              [&](size_t i, uint32_t& key) {
                if (key <= max_key && dense[key] != 0) {
                  const uint32_t rpay = dense[key] - 1;
                  ++matches;
                  checksum += static_cast<uint64_t>(rpay) +
                              probe.payloads[begin + i];
                  if (emit != nullptr) {
                    emit->Push(rpay, probe.payloads[begin + i]);
                  }
                }
              });
          if (out != nullptr && matches > 0) {
            // Warp-buffered writes: shared staging + flush traffic.
            block.ChargeShared(16ull * matches);
            block.ChargeSharedAtomic(matches);
            block.ChargeCoalescedWrite(8ull * matches);
            block.ChargeDeviceAtomic(matches / 256 + 1);
          }
          if (config.build_extra_payload_bytes > 0 && matches > 0) {
            // Build side is hash-reordered: column-chunk random gathers.
            block.ChargeRandomAccess(
                matches * 2 * CeilDiv(config.build_extra_payload_bytes, 32),
                n * static_cast<uint64_t>(config.build_extra_payload_bytes));
          }
          if (config.probe_extra_payload_bytes > 0 && matches > 0) {
            // Probe side stays in input order: sequential gather.
            block.ChargeCoalescedRead(
                matches *
                static_cast<uint64_t>(config.probe_extra_payload_bytes));
          }
          block.ChargeDeviceAtomic(
              static_cast<uint64_t>(block.num_threads() / 32));
          g_matches.fetch_add(matches, std::memory_order_relaxed);
          g_checksum.fetch_add(checksum, std::memory_order_relaxed);
        }));
    if (out != nullptr) emits.Publish(out);
    stats.join_s = build.build_s + probe_result.seconds;
  } else {
    const sim::DeviceBuffer<int32_t>& heads = build.heads;
    const std::vector<PackedHashNode>& nodes = build.nodes;
    const size_t slots = build.slots;
    sim::LaunchConfig probe_launch{"nonpartitioned_probe_chain", num_blocks,
                                   config.threads_per_block,
                                   out != nullptr ? size_t{8192} : size_t{1024}};
    GJOIN_ASSIGN_OR_RETURN(
        sim::LaunchResult probe_result,
        device->Launch(probe_launch, [&](sim::Block& block) {
          auto [begin, end] = BlockRange(probe.size, block.block_id(),
                                         num_blocks);
          if (begin >= end) return;
          uint64_t matches = 0, checksum = 0, steps = 0;
          block.ChargeCoalescedRead(8ull * (end - begin));
          if (out == nullptr) {
            // Aggregate mode: matches/checksum/steps are sums, so the
            // out-of-order AMAC engine is safe and fastest.
            struct Probe {
              uint32_t key;
              uint32_t pay;
              int32_t cur;   // slot (stage 0) or node index (stage 1)
              uint32_t stage;
            };
            util::ProbePipeline<Probe>(
                end - begin, depth,
                [&](size_t i, Probe& p) {
                  const uint32_t key = probe.keys[begin + i];
                  const uint32_t slot = util::Mix32(key) & (slots - 1);
                  p = {key, probe.payloads[begin + i],
                       static_cast<int32_t>(slot), 0};
                  util::PrefetchRead(&heads[slot]);
                },
                [&](size_t /*i*/, Probe& p) {
                  if (p.stage == 0) {
                    const int32_t e = heads[p.cur];
                    if (e < 0) return false;
                    p.cur = e;
                    p.stage = 1;
                    util::PrefetchRead(&nodes[e]);
                    return true;
                  }
                  const PackedHashNode& node = nodes[p.cur];
                  ++steps;
                  if (node.key == p.key) {
                    ++matches;
                    checksum += static_cast<uint64_t>(node.pay) + p.pay;
                  }
                  if (node.next < 0) return false;
                  p.cur = node.next;
                  util::PrefetchRead(&nodes[node.next]);
                  return true;
                });
          } else {
            // Materialization consumes matches in probe order (the ring
            // wrap behavior is observable): the two-stage in-order
            // pipeline prefetches ahead but finishes each probe in turn.
            EmitRecorder::Cursor& emit = emits.cursor(block.block_id());
            util::OrderedProbePipeline<int32_t>(
                end - begin, depth,
                [&](size_t i, int32_t& st) {
                  st = static_cast<int32_t>(
                      util::Mix32(probe.keys[begin + i]) & (slots - 1));
                  util::PrefetchRead(&heads[st]);
                },
                [&](size_t /*i*/, int32_t& st) {
                  st = heads[st];
                  if (st >= 0) util::PrefetchRead(&nodes[st]);
                },
                [&](size_t i, int32_t& st) {
                  const uint32_t skey = probe.keys[begin + i];
                  for (int32_t e = st; e >= 0;) {
                    const PackedHashNode& node = nodes[e];
                    if (node.next >= 0) util::PrefetchRead(&nodes[node.next]);
                    ++steps;
                    if (node.key == skey) {
                      ++matches;
                      checksum += static_cast<uint64_t>(node.pay) +
                                  probe.payloads[begin + i];
                      emit.Push(node.pay, probe.payloads[begin + i]);
                    }
                    e = node.next;
                  }
                });
          }
          // "Three to four random memory accesses" per probe: one for the
          // table head, one per chain node (key, next pointer and payload
          // are stored interleaved, so one transaction covers a node),
          // plus the payload access on a match.
          block.ChargeRandomAccess((end - begin) + steps + matches,
                                   table_bytes);
          block.ChargeCycles(((end - begin) * 2 + steps * 3) / 32 + 1);
          if (out != nullptr && matches > 0) {
            block.ChargeShared(16ull * matches);
            block.ChargeSharedAtomic(matches);
            block.ChargeCoalescedWrite(8ull * matches);
            block.ChargeDeviceAtomic(matches / 256 + 1);
          }
          if (config.build_extra_payload_bytes > 0 && matches > 0) {
            // Build side is hash-reordered: column-chunk random gathers.
            block.ChargeRandomAccess(
                matches * 2 * CeilDiv(config.build_extra_payload_bytes, 32),
                n * static_cast<uint64_t>(config.build_extra_payload_bytes));
          }
          if (config.probe_extra_payload_bytes > 0 && matches > 0) {
            block.ChargeCoalescedRead(
                matches *
                static_cast<uint64_t>(config.probe_extra_payload_bytes));
          }
          block.ChargeDeviceAtomic(
              static_cast<uint64_t>(block.num_threads() / 32));
          g_matches.fetch_add(matches, std::memory_order_relaxed);
          g_checksum.fetch_add(checksum, std::memory_order_relaxed);
        }));
    if (out != nullptr) emits.Publish(out);
    stats.join_s = build.build_s + probe_result.seconds;
  }

  stats.matches = g_matches.load();
  stats.payload_sum = g_checksum.load();
  stats.seconds = stats.join_s;
  return stats;
}

util::Result<JoinStats> NonPartitionedJoin(
    sim::Device* device, const DeviceRelation& build,
    const DeviceRelation& probe, const NonPartitionedJoinConfig& config,
    OutputRing* out) {
  GJOIN_ASSIGN_OR_RETURN(PreparedNonPartitionedBuild prepared,
                         PrepareNonPartitionedBuild(device, build, config));
  return NonPartitionedJoinWithBuild(device, prepared, probe, config, out);
}

}  // namespace gjoin::gpujoin
