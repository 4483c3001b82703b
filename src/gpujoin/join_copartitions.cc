#include "src/gpujoin/join_copartitions.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <vector>

#include "src/util/bits.h"
#include "src/util/probe_pipeline.h"
#include "src/util/thread_pool.h"

namespace gjoin::gpujoin {

namespace {

using util::CeilDiv;

/// Empty-slot sentinel of the 16-bit-offset hash table ("the limited size
/// of shared memory allows us to trim the offsets to 16 bits").
constexpr uint16_t kEmpty16 = 0xFFFF;

/// Slot-index probes of slots holding at least this many build tuples
/// tally per chunk group; shorter ones per tuple, where group exits
/// mispredict. Measured: grouping every slot costs uniform inputs about
/// a fifth of their speed, tallying every slot per tuple halves skewed
/// ones; 32 was the best of 4-64.
constexpr ptrdiff_t kGroupedRun = 32;

/// One unit of probe work: R partition `p` joined against S buckets
/// [s_from, s_from + s_count) of the flattened per-partition bucket list.
struct WorkItem {
  uint32_t p;
  uint32_t s_from;
  uint32_t s_count;
};

/// Per-block shared-memory layout for the join kernels.
struct JoinSharedArea {
  uint32_t* rkeys = nullptr;
  uint32_t* rpays = nullptr;
  uint16_t* heads = nullptr;     // hash variants only
  uint16_t* next = nullptr;      // hash variants only

  bool Alloc(sim::Block* block, const CoPartitionJoinConfig& cfg,
             bool need_table, bool need_out) {
    auto& shared = block->shared();
    rkeys = shared.Alloc<uint32_t>(cfg.shared_elems);
    rpays = shared.Alloc<uint32_t>(cfg.shared_elems);
    if (rkeys == nullptr || rpays == nullptr) return false;
    if (need_table) {
      heads = shared.Alloc<uint16_t>(cfg.hash_slots);
      next = shared.Alloc<uint16_t>(cfg.shared_elems);
      if (heads == nullptr || next == nullptr) return false;
    }
    // The warp output buffer holds no host data (pairs go straight to
    // the block's EmitRecorder cursor), but it occupies the kernel's
    // shared memory all the same.
    if (need_out && shared.Alloc<uint64_t>(cfg.out_stage_pairs) == nullptr) {
      return false;
    }
    return true;
  }
};

/// Accumulates a block's results; when materializing, records every
/// result pair, in emission order, on the block's EmitRecorder cursor.
/// The recorder publishes them onto the ring after the launch, in
/// ascending block id, so ring content and wrap behavior are
/// independent of host-worker interleaving.
struct BlockJoinState {
  uint64_t matches = 0;
  uint64_t checksum = 0;
  EmitRecorder::Cursor* emits = nullptr;

  void Match(uint32_t rpay, uint32_t spay) {
    ++matches;
    checksum += static_cast<uint64_t>(rpay) + spay;
    if (emits != nullptr) emits->Push(rpay, spay);
  }
};

/// Charges a block's materialization of `pairs` result pairs into a ring
/// of `ring_capacity` pairs. Every charge is a plain sum over the pairs,
/// so charging the block's total once equals charging each pair as it
/// is emitted.
void ChargeEmission(sim::Block* block, const CoPartitionJoinConfig& cfg,
                    uint64_t pairs, uint64_t ring_capacity) {
  // A block that emits nothing writes nothing: its random-access working
  // set must not grow to the ring's.
  if (pairs == 0) return;
  if (!cfg.buffered_output) {
    // Ablation: direct per-thread writes — one global-offset atomic and
    // one uncoalesced transaction per result pair.
    block->ChargeDeviceAtomic(pairs);
    block->ChargeRandomAccess(pairs, 8 * ring_capacity);
    return;
  }
  // Warp-buffered writes: each pair claims a slot in the shared buffer
  // (one shared atomic, an 8-byte store); every full buffer, and the
  // partial one left at the end, flushes with one global-offset atomic,
  // re-reading the pairs from shared memory and writing them coalesced.
  block->ChargeShared(16 * pairs);
  block->ChargeSharedAtomic(pairs);
  block->ChargeDeviceAtomic(CeilDiv(pairs, cfg.out_stage_pairs));
  block->ChargeCoalescedWrite(8 * pairs);
}

/// Charges the late-materialization attribute gathers for `matches`
/// matches (Figs. 9/10): inside the partitioned join both sides were
/// reordered, so wide-payload gathers are uncoalesced.
void ChargeGathers(sim::Block* block, const CoPartitionJoinConfig& cfg,
                   uint64_t matches, uint64_t build_tuples,
                   uint64_t probe_tuples) {
  if (matches == 0) return;
  // Late-materialized attributes live in separate columns; a gather from
  // partition-reordered tuples touches each 32B column chunk with its own
  // transaction and has no row-buffer locality (factor 2).
  if (cfg.build_extra_payload_bytes > 0) {
    const uint64_t tx = 2 * CeilDiv(cfg.build_extra_payload_bytes, 32);
    block->ChargeRandomAccess(
        matches * tx,
        build_tuples * static_cast<uint64_t>(cfg.build_extra_payload_bytes));
  }
  if (cfg.probe_extra_payload_bytes > 0) {
    const uint64_t tx = 2 * CeilDiv(cfg.probe_extra_payload_bytes, 32);
    block->ChargeRandomAccess(
        matches * tx,
        probe_tuples * static_cast<uint64_t>(cfg.probe_extra_payload_bytes));
  }
}

}  // namespace

util::Result<CoPartitionJoinResult> JoinCoPartitions(
    sim::Device* device, const PartitionedRelation& build,
    const PartitionedRelation& probe, const CoPartitionJoinConfig& config,
    OutputRing* out) {
  if (build.radix_bits != probe.radix_bits ||
      build.base_shift != probe.base_shift) {
    return util::Status::Invalid("co-partition join: radix layout mismatch");
  }
  if (!util::IsPowerOfTwo(config.hash_slots)) {
    return util::Status::Invalid("hash_slots must be a power of two");
  }
  if (config.shared_elems >= kEmpty16) {
    return util::Status::Invalid(
        "shared_elems must fit 16-bit offsets (< 65535)");
  }
  if (config.shared_elems == 0) {
    return util::Status::Invalid("shared_elems must be positive");
  }
  if (config.max_probe_buckets_per_item == 0) {
    return util::Status::Invalid("max_probe_buckets_per_item must be positive");
  }
  const bool need_table = config.algo != ProbeAlgorithm::kNestedLoop;
  const bool need_out = config.output == OutputMode::kMaterialize;
  if (need_out && out == nullptr) {
    return util::Status::Invalid("materialization requires an OutputRing");
  }
  if (need_out && config.out_stage_pairs == 0) {
    return util::Status::Invalid(
        "out_stage_pairs must be positive when materializing");
  }
  {
    // Validate the shared-memory budget up front (launch-time failure on
    // real hardware).
    size_t bytes = 8ull * config.shared_elems + 4 * 16;
    if (need_table && config.algo == ProbeAlgorithm::kSharedHash) {
      bytes += 2ull * config.hash_slots + 2ull * config.shared_elems;
    }
    if (need_out) bytes += 8ull * config.out_stage_pairs;
    if (bytes > device->spec().gpu.shared_mem_per_block) {
      return util::Status::Invalid(
          "join config needs " + std::to_string(bytes) +
          "B shared memory, exceeding the per-block limit");
    }
  }

  const uint32_t num_partitions = build.chains.num_partitions();
  const int pipeline_depth =
      util::ResolveProbePipelineDepth(config.probe_pipeline_depth);
  const int radix_bits = build.radix_bits;
  const int base_shift = build.base_shift;
  const int key_bits = config.key_bits > 0 ? config.key_bits : 32;
  // Key bits the nested-loop ballot actually votes on: all significant
  // bits except those fixed by the partitioning layout. Both sides of a
  // co-partition agree on the fixed bits, so a mask built from ballots
  // over the voted bits equals a full-key equality mask — which is what
  // the batched probe computes directly, charging per 32x32 tile.
  int nl_voted_bits = 0;
  for (int bit = 0; bit < key_bits; ++bit) {
    if (bit >= base_shift && bit < base_shift + radix_bits) continue;
    ++nl_voted_bits;
  }

  // Host-side work-list construction (mirrors the driver-side setup a
  // CUDA implementation performs between kernels): flatten each
  // partition's S chain and slice long chains for load balance.
  std::vector<int32_t> s_buckets_flat;
  std::vector<WorkItem> items;
  std::vector<uint64_t> r_sizes(num_partitions);
  std::vector<uint32_t> items_per_partition(num_partitions, 0);
  std::vector<uint32_t> first_item(num_partitions, 0);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    r_sizes[p] = build.chains.PartitionSize(p);
    const uint32_t begin = static_cast<uint32_t>(s_buckets_flat.size());
    for (int32_t b = probe.chains.heads()[p]; b != BucketChains::kNull;
         b = probe.chains.next()[b]) {
      s_buckets_flat.push_back(b);
    }
    const uint32_t count = static_cast<uint32_t>(s_buckets_flat.size()) - begin;
    if (count == 0 || r_sizes[p] == 0) continue;
    first_item[p] = static_cast<uint32_t>(items.size());
    for (uint32_t from = 0; from < count;
         from += config.max_probe_buckets_per_item) {
      items.push_back(
          {p, begin + from,
           std::min(config.max_probe_buckets_per_item, count - from)});
      ++items_per_partition[p];
    }
  }

  const int num_blocks =
      config.num_blocks != 0
          ? config.num_blocks
          : device->spec().gpu.num_sms * device->spec().gpu.blocks_per_sm;

  std::atomic<uint64_t> g_matches{0};
  std::atomic<uint64_t> g_checksum{0};

  const uint32_t r_cap = build.chains.bucket_capacity();
  const uint32_t s_cap = probe.chains.bucket_capacity();

  // ---- Host-side pre-work ----
  // Work items slice a partition's S chain, so a partition with k items
  // re-loads its R chunk and rebuilds the chunk's table k times. The
  // simulated kernel genuinely re-executes that work per item — its
  // charges below stay exactly where they were — but the functional
  // result is identical every time.
  //
  // kMemoChunk: for partitions probed by several items whose R side fits
  // a single chunk, gather the chunk and build its probe index once up
  // front; the per-item loops then only charge the re-load/rebuild.
  // Single-item partitions skip the memo — there is no duplicated work
  // to save, only allocation overhead to pay. Insertion order matches
  // the per-chunk builds bit for bit, so chain structure — and with it
  // step counts and match emission order — is unchanged.
  //
  // kSlotIndex: a shared-hash aggregate over an oversized partition
  // (block-NL fallback) rebuilds one table per chunk and rescans S per
  // chunk. Chunk c's chain for slot s holds exactly chunk c's R tuples
  // of slot s, so a probe's steps in chunk c are the slot's tuples
  // tagged c, and its matches those with an equal key. Counting-sorting
  // R by slot, tagged with chunk ids, lets each item walk its S buckets
  // once, against all chunks, before the launch; the chunk loop then
  // charges the tallied steps and matches. Aggregation is
  // order-independent, so results are unchanged; materialization keeps
  // the chunk-major path for its emission order.
  enum HostPlan : uint8_t { kPerItem, kMemoChunk, kSlotIndex };
  struct PrebuiltChunk {
    std::vector<uint32_t> keys, pays;
    std::vector<uint16_t> heads16, next16;        // kSharedHash
    std::vector<int32_t> dheads;                  // kDeviceHash
    std::vector<util::PackedHashNode> nodes;      // kDeviceHash
    std::vector<int32_t> nl_heads, nl_next;       // kNestedLoop aggregate
  };
  /// A kSlotIndex item's probe outcome. Its steps and matches per
  /// (chunk, S bucket) start at `cells` in cell_steps/cell_hits,
  /// row-major by chunk.
  struct ItemTally {
    size_t cells = 0;
    uint64_t matches = 0;
    uint64_t checksum = 0;
  };
  std::vector<PrebuiltChunk> prebuilt(num_partitions);
  std::vector<HostPlan> host_plan(num_partitions, kPerItem);
  std::vector<ItemTally> tallies;
  std::vector<uint64_t> cell_steps, cell_hits;
  {
    const uint64_t max_chunk = config.algo == ProbeAlgorithm::kDeviceHash
                                   ? UINT32_MAX
                                   : config.shared_elems;
    const bool slot_index = config.algo == ProbeAlgorithm::kSharedHash &&
                            config.output != OutputMode::kMaterialize;
    std::vector<uint32_t> memo, indexed;
    for (uint32_t p = 0; p < num_partitions; ++p) {
      if (items_per_partition[p] == 0) continue;
      if (r_sizes[p] > max_chunk) {
        if (slot_index) {
          host_plan[p] = kSlotIndex;
          indexed.push_back(p);
        }
      } else if (items_per_partition[p] >= 2) {
        host_plan[p] = kMemoChunk;
        memo.push_back(p);
      }
    }
    util::ThreadPool* pool = device->pool();
    pool->ParallelForRanges(
        memo.size(), [&](size_t /*worker*/, size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            const uint32_t p = memo[j];
            PrebuiltChunk& pre = prebuilt[p];
            const uint32_t r_count = static_cast<uint32_t>(r_sizes[p]);
            pre.keys.resize(r_count);
            pre.pays.resize(r_count);
            uint32_t filled = 0;
            for (int32_t b = build.chains.heads()[p];
                 b != BucketChains::kNull; b = build.chains.next()[b]) {
              const uint32_t fill = build.chains.fill()[b];
              const size_t base = static_cast<size_t>(b) * r_cap;
              std::copy_n(build.chains.keys() + base, fill,
                          pre.keys.data() + filled);
              std::copy_n(build.chains.payloads() + base, fill,
                          pre.pays.data() + filled);
              filled += fill;
            }
            if (config.algo == ProbeAlgorithm::kSharedHash) {
              pre.heads16.assign(config.hash_slots, kEmpty16);
              pre.next16.resize(r_count);
              for (uint32_t i = 0; i < r_count; ++i) {
                const uint32_t slot = util::HashTableSlot(
                    pre.keys[i], radix_bits, config.hash_slots);
                pre.next16[i] = pre.heads16[slot];
                pre.heads16[slot] = static_cast<uint16_t>(i);
              }
            } else if (config.algo == ProbeAlgorithm::kDeviceHash) {
              pre.dheads.assign(config.hash_slots, -1);
              pre.nodes.resize(r_count);
              for (uint32_t i = 0; i < r_count; ++i) {
                const uint32_t slot = util::HashTableSlot(
                    pre.keys[i], radix_bits, config.hash_slots);
                pre.nodes[i] = {pre.keys[i], pre.pays[i], pre.dheads[slot],
                                0};
                pre.dheads[slot] = static_cast<int32_t>(i);
              }
            } else if (config.output != OutputMode::kMaterialize) {
              const size_t slots = util::NextPowerOfTwo(
                  std::max<uint32_t>(2 * r_count, 8));
              pre.nl_heads.assign(slots, -1);
              pre.nl_next.assign(r_count, -1);
              for (uint32_t i = 0; i < r_count; ++i) {
                const uint32_t slot = util::Mix32(pre.keys[i]) & (slots - 1);
                pre.nl_next[i] = pre.nl_heads[slot];
                pre.nl_heads[slot] = static_cast<int32_t>(i);
              }
            }
          }
        });

    // kSlotIndex: one pool pass over the indexed partitions' items. A
    // worker builds a partition's index when its range reaches the
    // partition, then probes it for each of the partition's items while
    // it is cache-resident. A skewed partition's many items still split
    // over the workers, each building the index once.
    std::vector<uint32_t> indexed_items;
    size_t cells = 0;
    for (const uint32_t p : indexed) {
      if (tallies.empty()) tallies.resize(items.size());
      for (uint32_t w = first_item[p];
           w < first_item[p] + items_per_partition[p]; ++w) {
        tallies[w].cells = cells;
        cells += CeilDiv(r_sizes[p], config.shared_elems) * items[w].s_count;
        indexed_items.push_back(w);
      }
    }
    cell_steps.assign(cells, 0);
    cell_hits.assign(cells, 0);

    struct SlotTuple {
      uint32_t key, pay, chunk;
    };
    /// Slot s owns by_slot[slot_begin[s], slot_begin[s + 1]).
    struct SlotIndex {
      std::vector<SlotTuple> by_slot;
      std::vector<uint32_t> slot_begin;
    };
    const auto build_index = [&](uint32_t p, SlotIndex& index) {
      // Visits R_p in chain order as (slot, chunk, key, payload).
      const auto for_each_r = [&](auto&& fn) {
        uint32_t chunk = 0, room = config.shared_elems;
        for (int32_t b = build.chains.heads()[p]; b != BucketChains::kNull;
             b = build.chains.next()[b]) {
          const size_t base = static_cast<size_t>(b) * r_cap;
          const uint32_t* keys = build.chains.keys() + base;
          const uint32_t* pays = build.chains.payloads() + base;
          for (uint32_t i = 0; i < build.chains.fill()[b]; ++i) {
            fn(util::HashTableSlot(keys[i], radix_bits, config.hash_slots),
               chunk, keys[i], pays[i]);
            if (--room == 0) {
              ++chunk;
              room = config.shared_elems;
            }
          }
        }
      };
      index.slot_begin.assign(config.hash_slots + 1, 0);
      for_each_r([&](uint32_t slot, uint32_t, uint32_t, uint32_t) {
        ++index.slot_begin[slot + 1];
      });
      std::partial_sum(index.slot_begin.begin(), index.slot_begin.end(),
                       index.slot_begin.begin());
      index.by_slot.resize(r_sizes[p]);
      for_each_r([&](uint32_t slot, uint32_t chunk, uint32_t key,
                     uint32_t pay) {
        index.by_slot[index.slot_begin[slot]++] = {key, pay, chunk};
      });
      // The scatter advanced each start to the next slot's.
      std::copy_backward(index.slot_begin.begin(), index.slot_begin.end() - 1,
                         index.slot_begin.end());
      index.slot_begin[0] = 0;
    };
    const auto tally_item = [&](uint32_t w, const SlotIndex& index) {
      const WorkItem& item = items[w];
      uint64_t* steps = cell_steps.data() + tallies[w].cells;
      uint64_t* hits = cell_hits.data() + tallies[w].cells;
      uint64_t matches = 0, checksum = 0;
      for (uint32_t sb = 0; sb < item.s_count; ++sb) {
        const int32_t b = s_buckets_flat[item.s_from + sb];
        const size_t s_base = static_cast<size_t>(b) * s_cap;
        const uint32_t* skeys = probe.chains.keys() + s_base;
        const uint32_t* spays = probe.chains.payloads() + s_base;
        for (uint32_t i = 0; i < probe.chains.fill()[b]; ++i) {
          const uint32_t skey = skeys[i];
          const uint32_t slot =
              util::HashTableSlot(skey, radix_bits, config.hash_slots);
          const SlotTuple* t = index.by_slot.data() + index.slot_begin[slot];
          const SlotTuple* const end =
              index.by_slot.data() + index.slot_begin[slot + 1];
          if (end - t < kGroupedRun) {
            for (; t < end; ++t) {
              const size_t cell =
                  static_cast<size_t>(t->chunk) * item.s_count + sb;
              const bool hit = t->key == skey;
              ++steps[cell];
              hits[cell] += hit;
              matches += hit;
              checksum += hit ? static_cast<uint64_t>(t->pay) + spays[i] : 0;
            }
            continue;
          }
          // Long (skewed) slots: the tuples ascend by chunk, so tally each
          // chunk's group in registers instead of a memory add per tuple.
          while (t < end) {
            const uint32_t chunk = t->chunk;
            const SlotTuple* const group = t;
            uint64_t group_hits = 0, group_pays = 0;
            for (; t < end && t->chunk == chunk; ++t) {
              const bool hit = t->key == skey;
              group_hits += hit;
              group_pays += hit ? t->pay : 0;
            }
            const size_t cell = static_cast<size_t>(chunk) * item.s_count + sb;
            steps[cell] += static_cast<uint64_t>(t - group);
            hits[cell] += group_hits;
            matches += group_hits;
            checksum += group_pays + group_hits * spays[i];
          }
        }
      }
      tallies[w].matches = matches;
      tallies[w].checksum = checksum;
    };
    pool->ParallelForRanges(
        indexed_items.size(), [&](size_t /*worker*/, size_t lo, size_t hi) {
          SlotIndex index;
          uint32_t indexed_p = UINT32_MAX;
          for (size_t j = lo; j < hi; ++j) {
            const uint32_t w = indexed_items[j];
            if (items[w].p != indexed_p) {
              indexed_p = items[w].p;
              build_index(indexed_p, index);
            }
            tally_item(w, index);
          }
        });
  }

  sim::LaunchConfig launch;
  launch.name = need_table ? "join_copartitions_hash" : "join_copartitions_nl";
  launch.num_blocks = num_blocks;
  launch.threads_per_block = config.threads_per_block;
  launch.shared_mem_bytes = device->spec().gpu.shared_mem_per_block;

  EmitRecorder emits(need_out ? static_cast<size_t>(num_blocks) : 0);

  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      device->Launch(launch, [&](sim::Block& block) {
        JoinSharedArea area;
        const bool shared_table = config.algo == ProbeAlgorithm::kSharedHash;
        if (!area.Alloc(&block, config, shared_table, need_out)) return;
        BlockJoinState state;
        if (need_out) state.emits = &emits.cursor(block.block_id());

        // Device-memory table scratch (kDeviceHash); reused across
        // items. The functional table packs each slot's chunk epoch
        // next to its chain head (one access resolves both) and each
        // build tuple into a 16-byte node, so a probe's chain step
        // costs the host one cache miss — the modeled kernel's
        // interleaved-node layout, which its charges already assume.
        std::vector<util::EpochHead> dev_heads;
        std::vector<util::PackedHashNode> dev_nodes;
        // Epoch stamps: a slot's head is live only if its stamp matches
        // the current chunk's epoch, which resets the tables in O(1)
        // per chunk instead of a full head re-fill (the simulated kernel
        // still pays the re-fill — its charges are unchanged).
        std::vector<uint32_t> table_epoch;
        uint32_t cur_epoch = 0;
        if (need_table) {
          if (config.algo == ProbeAlgorithm::kDeviceHash) {
            dev_heads.resize(config.hash_slots);
          } else {
            table_epoch.assign(config.hash_slots, 0);
          }
        }
        // Per-item scratch, hoisted: the work list can hold tens of
        // thousands of small co-partitions.
        std::vector<int32_t> r_buckets;
        std::vector<uint32_t> dev_rkeys, dev_rpays;  // kDeviceHash only
        // Functional index over the R chunk for the batched nested-loop
        // probe (aggregate mode); reused across chunks. Not charged:
        // the simulated kernel compares tiles, the host merely needs the
        // same matches without executing O(|R| x |S|) scalar work.
        std::vector<int32_t> nl_heads;
        std::vector<int32_t> nl_next;

        for (size_t w = static_cast<size_t>(block.block_id());
             w < items.size(); w += static_cast<size_t>(num_blocks)) {
          const WorkItem& item = items[w];
          block.ChargeCoalescedRead(12);  // work-list entry
          // Dispatch/drain overhead per work item: partial warps at the
          // partition tail, metadata setup, probe-phase ramp-down. This
          // is why co-partition throughput *rises* with partition size
          // until the block's resources are saturated (Figs. 5/6:
          // "we utilize the streaming multiprocessor's resources ... to
          // a greater extent").
          block.ChargeCycles(512);
          const uint64_t r_total = r_sizes[item.p];
          const uint64_t probe_ws =
              8ull * (r_total + config.hash_slots) *
              static_cast<uint64_t>(num_blocks);

          // The R side is processed in shared-memory-sized chunks; one
          // chunk for partitions that fit (the normal case), several for
          // oversized (skewed) partitions -> hash-based block NL.
          const uint32_t chunk_elems =
              config.algo == ProbeAlgorithm::kDeviceHash
                  ? std::max<uint32_t>(static_cast<uint32_t>(std::min<uint64_t>(
                                           r_total, UINT32_MAX)),
                                       1)
                  : config.shared_elems;

          // Walk the R chain once per chunk pass.
          r_buckets.clear();
          for (int32_t b = build.chains.heads()[item.p];
               b != BucketChains::kNull; b = build.chains.next()[b]) {
            r_buckets.push_back(b);
          }

          // Memoized and slot-indexed partitions skip the host gather and
          // build below; every charge still runs per item and chunk.
          const PrebuiltChunk* pre =
              host_plan[item.p] != kPerItem ? &prebuilt[item.p] : nullptr;
          const ItemTally* tally =
              host_plan[item.p] == kSlotIndex ? &tallies[w] : nullptr;
          const bool indexed = tally != nullptr;
          if (indexed) {
            state.matches += tally->matches;
            state.checksum += tally->checksum;
          }

          uint64_t r_done = 0;
          while (r_done < r_total) {
            const uint32_t r_count = static_cast<uint32_t>(
                std::min<uint64_t>(chunk_elems, r_total - r_done));

            // ---- Load R chunk ----
            if (config.algo == ProbeAlgorithm::kDeviceHash) {
              // Copy to contiguous device scratch.
              block.ChargeCoalescedRead(8ull * r_count);
              block.ChargeCoalescedWrite(8ull * r_count);
            } else {
              // Load into shared memory.
              block.ChargeCoalescedRead(8ull * r_count);
              block.ChargeShared(8ull * r_count);
            }
            // Functional gather of the chunk [r_done, r_done + r_count).
            const uint32_t* rkeys;
            const uint32_t* rpays;
            uint32_t* gkeys = nullptr;
            uint32_t* gpays = nullptr;
            if (pre != nullptr) {
              rkeys = pre->keys.data();
              rpays = pre->pays.data();
            } else if (config.algo == ProbeAlgorithm::kDeviceHash) {
              dev_rkeys.resize(std::max<size_t>(dev_rkeys.size(), r_count));
              dev_rpays.resize(std::max<size_t>(dev_rpays.size(), r_count));
              rkeys = gkeys = dev_rkeys.data();
              rpays = gpays = dev_rpays.data();
            } else {
              rkeys = gkeys = area.rkeys;
              rpays = gpays = area.rpays;
            }
            {
              uint64_t skip = r_done;
              uint32_t filled = 0;
              for (size_t bi = 0; bi < r_buckets.size(); ++bi) {
                const int32_t b = r_buckets[bi];
                if (gkeys != nullptr && bi + 1 < r_buckets.size()) {
                  // Hide the next bucket's first-line miss behind this
                  // bucket's copy.
                  util::PrefetchRead(build.chains.keys() +
                                     static_cast<size_t>(r_buckets[bi + 1]) *
                                         r_cap);
                }
                const uint32_t fill = build.chains.fill()[b];
                block.ChargeRandomAccess(1, 8ull * r_total);  // chain hop
                if (skip >= fill) {
                  skip -= fill;
                  continue;
                }
                const size_t base = static_cast<size_t>(b) * r_cap;
                const uint32_t take = std::min<uint32_t>(
                    fill - static_cast<uint32_t>(skip), r_count - filled);
                if (gkeys != nullptr) {
                  std::copy_n(build.chains.keys() + base + skip, take,
                              gkeys + filled);
                  std::copy_n(build.chains.payloads() + base + skip, take,
                              gpays + filled);
                }
                filled += take;
                skip = 0;
                if (filled == r_count) break;
              }
            }
            if (pre == nullptr &&
                config.algo == ProbeAlgorithm::kNestedLoop &&
                config.output != OutputMode::kMaterialize) {
              // Functional R-chunk index for the batched NL probe.
              const size_t slots = util::NextPowerOfTwo(
                  std::max<uint32_t>(2 * r_count, 8));
              nl_heads.assign(slots, -1);
              nl_next.assign(r_count, -1);
              for (uint32_t i = 0; i < r_count; ++i) {
                const uint32_t slot = util::Mix32(rkeys[i]) & (slots - 1);
                nl_next[i] = nl_heads[slot];
                nl_heads[slot] = static_cast<int32_t>(i);
              }
            }

            // ---- Build ----
            if (config.algo == ProbeAlgorithm::kSharedHash) {
              // The kernel zeroes the head array each chunk; the
              // functional table resets via the epoch stamp instead.
              block.ChargeShared(2ull * config.hash_slots);
              block.ChargeCycles(config.hash_slots / 32 + 1);
              if (pre == nullptr) {
                ++cur_epoch;
                for (uint32_t i = 0; i < r_count; ++i) {
                  const uint32_t slot = util::HashTableSlot(
                      rkeys[i], radix_bits, config.hash_slots);
                  // Listing 2: wait-free front insertion via atomicExch.
                  area.next[i] = table_epoch[slot] == cur_epoch
                                     ? area.heads[slot]
                                     : kEmpty16;
                  area.heads[slot] = static_cast<uint16_t>(i);
                  table_epoch[slot] = cur_epoch;
                }
              }
              block.ChargeSharedAtomic(r_count);
              block.ChargeShared(6ull * r_count);
              block.ChargeCycles(r_count * 4 / 32 + 1);
            } else if (config.algo == ProbeAlgorithm::kDeviceHash) {
              block.ChargeCoalescedWrite(4ull * config.hash_slots);
              if (pre == nullptr) {
                ++cur_epoch;
                dev_nodes.resize(std::max<size_t>(dev_nodes.size(), r_count));
                util::GroupProbe<uint32_t>(
                    r_count, pipeline_depth,
                    [&](size_t i, uint32_t& slot) {
                      slot = util::HashTableSlot(rkeys[i], radix_bits,
                                                 config.hash_slots);
                      util::PrefetchWrite(&dev_heads[slot]);
                    },
                    [&](size_t i, uint32_t& slot) {
                      util::EpochHead& h = dev_heads[slot];
                      dev_nodes[i] = {rkeys[i], rpays[i],
                                      h.epoch == cur_epoch ? h.head : -1, 0};
                      h = {cur_epoch, static_cast<int32_t>(i)};
                    });
              }
              block.ChargeDeviceAtomic(r_count);            // atomicExch
              block.ChargeRandomAccess(r_count, probe_ws);  // next write
              block.ChargeCycles(r_count * 4 / 32 + 1);
            }

            // ---- Probe the item's S bucket slice ----
            const size_t chunk_row =
                indexed ? tally->cells + r_done / chunk_elems * item.s_count
                        : 0;
            for (uint32_t sb = 0; sb < item.s_count; ++sb) {
              const int32_t b = s_buckets_flat[item.s_from + sb];
              if (!indexed && sb + 1 < item.s_count) {
                util::PrefetchRead(
                    probe.chains.keys() +
                    static_cast<size_t>(s_buckets_flat[item.s_from + sb + 1]) *
                        s_cap);
              }
              const uint32_t s_fill = probe.chains.fill()[b];
              const size_t s_base = static_cast<size_t>(b) * s_cap;
              block.ChargeRandomAccess(1, 8ull * probe.tuples);  // chain hop
              block.ChargeCoalescedRead(8ull * s_fill);
              block.ChargeCycles(s_fill * 3 / 32 + 1);

              const uint64_t matches_before = state.matches;

              if (config.algo == ProbeAlgorithm::kNestedLoop) {
                // Listing 1, batched: a 32x32 tile's ballot loop over the
                // voted key bits computes exactly a full-key equality
                // mask (the skipped bits are fixed by partitioning), so
                // the kernel's traffic and cycles are charged per tile
                // analytically and the host computes the same matches
                // without per-bit lane loops.
                const uint64_t tiles = CeilDiv(s_fill, 32) *
                                       CeilDiv(r_count, 32);
                if (config.nl_use_ballot) {
                  // Per tile: one r value per lane from shared memory,
                  // then one ballot (1 cycle) + mask fold (2 cycles) per
                  // voted bit.
                  block.ChargeShared(4ull * 32 * tiles);
                  block.ChargeCycles(
                      3ull * static_cast<uint64_t>(nl_voted_bits) * tiles);
                } else {
                  // Conventional pairwise comparison: each lane reads
                  // all 32 r values from shared memory and compares
                  // them itself (32x the shared traffic, one compare
                  // instruction per pair).
                  block.ChargeShared(4ull * 32 * 32 * tiles);
                  block.ChargeCycles(32ull * tiles);
                }
                if (config.output == OutputMode::kMaterialize) {
                  // Materialization consumes matches in warp emission
                  // order (s lane within tile, then ascending r), which
                  // determines ring wrap behavior: reproduce the tile
                  // walk with direct equality.
                  for (uint32_t s0 = 0; s0 < s_fill; s0 += 32) {
                    const uint32_t s_lanes =
                        std::min<uint32_t>(32, s_fill - s0);
                    for (uint32_t r0 = 0; r0 < r_count; r0 += 32) {
                      const uint32_t r_lanes =
                          std::min<uint32_t>(32, r_count - r0);
                      for (uint32_t l = 0; l < s_lanes; ++l) {
                        const uint32_t skey =
                            probe.chains.keys()[s_base + s0 + l];
                        for (uint32_t j = 0; j < r_lanes; ++j) {
                          if (rkeys[r0 + j] == skey) {
                            state.Match(
                                rpays[r0 + j],
                                probe.chains.payloads()[s_base + s0 + l]);
                          }
                        }
                      }
                    }
                  }
                } else {
                  // Aggregate mode is order-independent: probe a
                  // functional hash index over the R chunk instead of
                  // scanning it per S tuple.
                  const std::vector<int32_t>& nh =
                      pre != nullptr ? pre->nl_heads : nl_heads;
                  const std::vector<int32_t>& nn =
                      pre != nullptr ? pre->nl_next : nl_next;
                  for (uint32_t i = 0; i < s_fill; ++i) {
                    const uint32_t skey = probe.chains.keys()[s_base + i];
                    const uint32_t slot =
                        util::Mix32(skey) & (nh.size() - 1);
                    for (int32_t e = nh[slot]; e >= 0; e = nn[e]) {
                      if (rkeys[e] == skey) {
                        state.Match(rpays[e],
                                    probe.chains.payloads()[s_base + i]);
                      }
                    }
                  }
                }
              } else if (config.algo == ProbeAlgorithm::kSharedHash) {
                // Shared-memory hash probe. The host copy of the chunk
                // table is cache-resident, but each probe is still a
                // serial dependence chain (hash -> head -> node ->
                // next); resolving a batch of heads before walking any
                // chain overlaps those chains' L2 latencies and branch
                // recovery (~1.25x measured even fully cached). Batches
                // visit probes in order, so match emission is identical
                // at every depth. Slot-indexed items tallied this probe
                // before the launch.
                uint64_t steps = 0;
                if (indexed) {
                  steps = cell_steps[chunk_row + sb];
                } else {
                  const uint16_t* h16 =
                      pre != nullptr ? pre->heads16.data() : area.heads;
                  const uint16_t* n16 =
                      pre != nullptr ? pre->next16.data() : area.next;
                  const bool epoch_gated = pre == nullptr;
                  const uint32_t* skeys = probe.chains.keys() + s_base;
                  const uint32_t* spays = probe.chains.payloads() + s_base;
                  util::GroupProbe<uint16_t>(
                      s_fill, pipeline_depth,
                      [&](size_t i, uint16_t& e) {
                        const uint32_t slot = util::HashTableSlot(
                            skeys[i], radix_bits, config.hash_slots);
                        e = !epoch_gated || table_epoch[slot] == cur_epoch
                                ? h16[slot]
                                : kEmpty16;
                      },
                      [&](size_t i, uint16_t& head) {
                        const uint32_t skey = skeys[i];
                        for (uint16_t e = head; e != kEmpty16; e = n16[e]) {
                          ++steps;
                          if (rkeys[e] == skey) {
                            state.Match(rpays[e], spays[i]);
                          }
                        }
                      });
                }
                // Slot read (2B) per probe + (key, next) per chain step.
                block.ChargeShared(2ull * s_fill + 6ull * steps);
                block.ChargeCycles((s_fill * 2 + steps * 3) / 32 + 1);
              } else {
                // Device-memory hash probe: every chain step is a
                // dependent device-memory (host cache) miss — the
                // pipeline's home turf.
                const uint32_t* skeys = probe.chains.keys() + s_base;
                const uint32_t* spays = probe.chains.payloads() + s_base;
                const util::PackedHashNode* dnodes =
                    pre != nullptr ? pre->nodes.data() : dev_nodes.data();
                const int32_t* pre_heads =
                    pre != nullptr ? pre->dheads.data() : nullptr;
                uint64_t steps = 0;
                if (config.output != OutputMode::kMaterialize) {
                  // Aggregate accumulation is order-independent: AMAC.
                  struct Probe {
                    uint32_t key;
                    uint32_t pay;
                    int32_t cur;
                    uint32_t stage;
                  };
                  util::ProbePipeline<Probe>(
                      s_fill, pipeline_depth,
                      [&](size_t i, Probe& p) {
                        const uint32_t slot = util::HashTableSlot(
                            skeys[i], radix_bits, config.hash_slots);
                        p = {skeys[i], spays[i], static_cast<int32_t>(slot),
                             0};
                        util::PrefetchRead(pre_heads != nullptr
                                               ? static_cast<const void*>(
                                                     &pre_heads[slot])
                                               : &dev_heads[slot]);
                      },
                      [&](size_t /*i*/, Probe& p) {
                        if (p.stage == 0) {
                          int32_t e;
                          if (pre_heads != nullptr) {
                            e = pre_heads[p.cur];
                          } else {
                            const util::EpochHead& h = dev_heads[p.cur];
                            e = h.epoch == cur_epoch ? h.head : -1;
                          }
                          if (e < 0) return false;
                          p.cur = e;
                          p.stage = 1;
                          util::PrefetchRead(&dnodes[e]);
                          return true;
                        }
                        const util::PackedHashNode& node = dnodes[p.cur];
                        ++steps;
                        if (node.key == p.key) {
                          ++state.matches;
                          state.checksum +=
                              static_cast<uint64_t>(node.pay) + p.pay;
                        }
                        if (node.next < 0) return false;
                        p.cur = node.next;
                        util::PrefetchRead(&dnodes[node.next]);
                        return true;
                      });
                } else {
                  // Materialization emits in probe order: the in-order
                  // two-stage pipeline preserves it at every depth.
                  util::OrderedProbePipeline<int32_t>(
                      s_fill, pipeline_depth,
                      [&](size_t i, int32_t& st) {
                        st = static_cast<int32_t>(util::HashTableSlot(
                            skeys[i], radix_bits, config.hash_slots));
                        util::PrefetchRead(pre_heads != nullptr
                                               ? static_cast<const void*>(
                                                     &pre_heads[st])
                                               : &dev_heads[st]);
                      },
                      [&](size_t /*i*/, int32_t& st) {
                        if (pre_heads != nullptr) {
                          st = pre_heads[st];
                        } else {
                          const util::EpochHead& h = dev_heads[st];
                          st = h.epoch == cur_epoch ? h.head : -1;
                        }
                        if (st >= 0) util::PrefetchRead(&dnodes[st]);
                      },
                      [&](size_t i, int32_t& st) {
                        for (int32_t e = st; e >= 0;) {
                          const util::PackedHashNode& node = dnodes[e];
                          if (node.next >= 0) {
                            util::PrefetchRead(&dnodes[node.next]);
                          }
                          ++steps;
                          if (node.key == skeys[i]) {
                            state.Match(node.pay, spays[i]);
                          }
                          e = node.next;
                        }
                      });
                }
                // Head + per-step key + next transactions, plus a
                // payload access per match (the paper's "three to four
                // random memory accesses").
                block.ChargeRandomAccess(s_fill + 2 * steps, probe_ws);
                block.ChargeCycles((s_fill * 2 + steps * 3) / 32 + 1);
              }

              ChargeGathers(&block, config,
                            indexed ? cell_hits[chunk_row + sb]
                                    : state.matches - matches_before,
                            build.tuples, probe.tuples);
            }
            r_done += r_count;
          }
        }

        if (need_out) {
          ChargeEmission(&block, config, state.emits->count(),
                         out->capacity());
        }
        // Aggregation epilogue: threads pre-reduce within their warp
        // (shuffle tree), then one device atomic per warp folds into the
        // global aggregate.
        block.ChargeCycles(5);  // log2(32) shuffle-reduce steps
        block.ChargeDeviceAtomic(static_cast<uint64_t>(block.num_warps()));
        g_matches.fetch_add(state.matches, std::memory_order_relaxed);
        g_checksum.fetch_add(state.checksum, std::memory_order_relaxed);
      }));
  if (need_out) emits.Publish(out);

  CoPartitionJoinResult join_result;
  join_result.matches = g_matches.load();
  join_result.payload_sum = g_checksum.load();
  join_result.seconds = result.seconds;
  return join_result;
}

}  // namespace gjoin::gpujoin
