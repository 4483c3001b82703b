#include "src/gpujoin/join_copartitions.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "src/gpujoin/agg_table.h"
#include "src/util/bits.h"
#include "src/util/probe_pipeline.h"
#include "src/util/thread_pool.h"

namespace gjoin::gpujoin {

namespace {

using util::CeilDiv;

/// Empty-slot sentinel of the 16-bit-offset hash table ("the limited size
/// of shared memory allows us to trim the offsets to 16 bits").
constexpr uint16_t kEmpty16 = 0xFFFF;

/// One unit of probe work: R partition `p` joined against S buckets
/// [s_from, s_from + s_count) of the flattened per-partition bucket list.
/// `aggregated` items probe a key-aggregated table on the host.
struct WorkItem {
  uint32_t p;
  uint32_t s_from;
  uint32_t s_count;
  bool aggregated;
};

/// Group prefetching across work items (Chen et al., ICDE'04). A real
/// block's first global access per co-partition is hidden by its other
/// resident warps, but the host runs a block's items one after another,
/// so each small item would start on cold misses. Before an item runs,
/// its block's next item has its first S bucket and its R chain head's
/// links fetched, and the head's tuples if `r_tuples` (the item gathers
/// or aggregates them). Always inlined: GCC finds a function whose only
/// effects are prefetches pure and drops the calls to it.
[[gnu::always_inline]] inline void PrefetchWorkItem(
    const BucketChains& build, const BucketChains& probe,
    const std::vector<int32_t>& s_buckets_flat, const WorkItem& item,
    bool r_tuples) {
  const size_t sb = static_cast<size_t>(s_buckets_flat[item.s_from]);
  util::PrefetchRead(probe.keys() + sb * probe.bucket_capacity());
  util::PrefetchRead(probe.payloads() + sb * probe.bucket_capacity());
  util::PrefetchRead(probe.fill() + sb);
  const int32_t rb = build.heads()[item.p];
  if (rb == BucketChains::kNull) return;
  if (r_tuples) {
    const size_t r_base = static_cast<size_t>(rb) * build.bucket_capacity();
    util::PrefetchRead(build.keys() + r_base);
    util::PrefetchRead(build.payloads() + r_base);
  }
  util::PrefetchRead(build.fill() + rb);
  util::PrefetchRead(build.next() + rb);
}

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
    // The warp output buffer holds no host data (the surviving pairs are
    // enumerated onto the ring after the launch), but it occupies the
    // kernel's shared memory all the same.
    if (need_out && shared.Alloc<uint64_t>(cfg.out_stage_pairs) == nullptr) {
      return false;
    }
    return true;
  }
};

/// Accumulates a block's results. A materializing block's pairs are its
/// matches: PublishSurvivors claims them on the ring after the launch.
struct BlockJoinState {
  uint64_t matches = 0;
  uint64_t checksum = 0;

  void Match(uint32_t rpay, uint32_t spay) {
    ++matches;
    checksum += static_cast<uint64_t>(rpay) + spay;
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

/// One R chunk's host copy and functional tables, each in the kernel's
/// insertion order (tuple i front-inserted after tuples 0..i-1), so
/// chains and match order equal the simulated build's.
struct ChunkTables {
  std::vector<uint32_t> keys, pays;
  std::vector<uint16_t> heads16, next16;    // kSharedHash
  std::vector<int32_t> dheads;              // kDeviceHash
  std::vector<util::PackedHashNode> nodes;  // kDeviceHash
  std::vector<int32_t> nl_heads, nl_next;   // kNestedLoop counting index

  /// Copies R partition `p` (`n` tuples) of `chains` in chain order.
  void Gather(const BucketChains& chains, uint32_t p, uint32_t n) {
    keys.resize(n);
    pays.resize(n);
    uint32_t filled = 0;
    for (int32_t b = chains.heads()[p]; b != BucketChains::kNull;
         b = chains.next()[b]) {
      const size_t base = static_cast<size_t>(b) * chains.bucket_capacity();
      std::copy_n(chains.keys() + base, chains.fill()[b],
                  keys.data() + filled);
      std::copy_n(chains.payloads() + base, chains.fill()[b],
                  pays.data() + filled);
      filled += chains.fill()[b];
    }
  }

  /// Builds `cfg.algo`'s table over the `n` tuples at rk/rp. The nested
  /// loop's is a hash index that only counting uses: it finds each probe
  /// tuple's matches without a tile scan.
  void Build(const CoPartitionJoinConfig& cfg, int radix_bits,
             const uint32_t* rk, const uint32_t* rp, uint32_t n) {
    if (cfg.algo == ProbeAlgorithm::kSharedHash) {
      heads16.assign(cfg.hash_slots, kEmpty16);
      next16.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t slot =
            util::HashTableSlot(rk[i], radix_bits, cfg.hash_slots);
        next16[i] = heads16[slot];
        heads16[slot] = static_cast<uint16_t>(i);
      }
    } else if (cfg.algo == ProbeAlgorithm::kDeviceHash) {
      dheads.assign(cfg.hash_slots, -1);
      nodes.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t slot =
            util::HashTableSlot(rk[i], radix_bits, cfg.hash_slots);
        nodes[i] = {rk[i], rp[i], dheads[slot], 0};
        dheads[slot] = static_cast<int32_t>(i);
      }
    } else {
      const size_t slots =
          util::NextPowerOfTwo(std::max<uint32_t>(2 * n, 8));
      nl_heads.assign(slots, -1);
      nl_next.assign(n, -1);
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t slot = util::Mix32(rk[i]) & (slots - 1);
        nl_next[i] = nl_heads[slot];
        nl_heads[slot] = static_cast<int32_t>(i);
      }
    }
  }
};

/// The calling thread's key-aggregated table, reused across work items
/// and launches.
AggTable& ThreadAggTable() {
  thread_local AggTable table;
  return table;
}

}  // namespace

/// What a cache was created for, and its tables: co-partition p gathered
/// and linked as one chunk in tables[index[p]].
struct BuildTableCache::Tables {
  Tables(const PartitionedRelation& build, const CoPartitionJoinConfig& config)
      : chains(&build.chains),
        heads(build.chains.heads()),
        tuples(build.tuples),
        radix_bits(build.radix_bits),
        base_shift(build.base_shift),
        algo(config.algo),
        hash_slots(config.hash_slots),
        shared_elems(config.shared_elems) {}

  util::Status CheckBuiltFor(const PartitionedRelation& build,
                             const CoPartitionJoinConfig& config) const {
    if (&build.chains != chains || build.chains.heads() != heads ||
        build.tuples != tuples || build.radix_bits != radix_bits ||
        build.base_shift != base_shift) {
      return util::Status::Invalid(
          "BuildTableCache was created for another build side");
    }
    if (config.algo != algo || config.hash_slots != hash_slots ||
        config.shared_elems != shared_elems) {
      return util::Status::Invalid(
          "BuildTableCache was created for another algo, hash_slots or "
          "shared_elems");
    }
    return util::Status::OK();
  }

  const ChunkTables* Find(uint32_t p) const {
    return index.empty() || index[p] < 0 ? nullptr : &tables[index[p]];
  }

  /// Gathers and links each of `partitions` (r_sizes[p] tuples) on `pool`.
  void Add(util::ThreadPool* pool, const BucketChains& build_chains,
           const std::vector<uint32_t>& partitions,
           const std::vector<uint64_t>& r_sizes,
           const CoPartitionJoinConfig& config) {
    if (partitions.empty()) return;
    if (index.empty()) index.assign(build_chains.num_partitions(), -1);
    const size_t first = tables.size();
    tables.resize(first + partitions.size());
    for (size_t j = 0; j < partitions.size(); ++j) {
      index[partitions[j]] = static_cast<int32_t>(first + j);
    }
    pool->ParallelForRanges(
        partitions.size(), [&](size_t /*worker*/, size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            const uint32_t p = partitions[j];
            const uint32_t n = static_cast<uint32_t>(r_sizes[p]);
            ChunkTables& t = tables[first + j];
            t.Gather(build_chains, p, n);
            t.Build(config, radix_bits, t.keys.data(), t.pays.data(), n);
          }
        });
  }

  // The build side and config the tables belong to.
  const BucketChains* chains;
  const int32_t* heads;
  uint64_t tuples;
  int radix_bits;
  int base_shift;
  ProbeAlgorithm algo;
  uint32_t hash_slots;
  uint32_t shared_elems;

  std::vector<int32_t> index;  ///< Per partition, -1 = none; empty = none.
  std::vector<ChunkTables> tables;
};

BuildTableCache::BuildTableCache(const PartitionedRelation& build,
                                 const CoPartitionJoinConfig& config)
    : tables_(std::make_unique<Tables>(build, config)) {}
BuildTableCache::~BuildTableCache() = default;
BuildTableCache::BuildTableCache(BuildTableCache&&) noexcept = default;
BuildTableCache& BuildTableCache::operator=(BuildTableCache&&) noexcept =
    default;

size_t BuildTableCache::cached_partitions() const {
  return tables_->tables.size();
}

util::Result<CoPartitionJoinResult> JoinCoPartitions(
    sim::Device* device, const PartitionedRelation& build,
    const PartitionedRelation& probe, const CoPartitionJoinConfig& config,
    OutputRing* out, BuildTableCache* tables) {
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
  if (tables != nullptr) {
    if (tables->tables_ == nullptr) {
      return util::Status::Invalid("BuildTableCache was moved from");
    }
    GJOIN_RETURN_NOT_OK(tables->tables_->CheckBuiltFor(build, config));
  }

  const uint32_t num_partitions = build.chains.num_partitions();
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
  //
  // Shared-hash items whose R side fits may be
  // `aggregated`: instead of building and walking the Listing 2 chains,
  // the host builds a key-aggregated table (agg_table.h) in the worker
  // thread's scratch and probes that. Building the table costs more
  // than gathering R_p and linking its chains, and probing it costs
  // less than walking them only when the chains are long, so an item is
  // aggregated only when it probes at least as many S tuples as R_p
  // holds and R_p fills at least half the hash slots (which also makes
  // the table's per-slot lengths one per kernel slot); the rest walk
  // chains. Measured on uniform co-partitions of 2048 slots, four
  // probes per build tuple: with R_p of 1024 or 2048 tuples tables cut
  // the join's host time 1.65-1.9x, at 512 they were about even, at
  // 256 and below up to 2x slower; half a probe per build tuple (the
  // streaming probe's default chunks) ran about 15% slower with tables,
  // and there no item is aggregated: streamed chunks walk chains their
  // build's BuildTableCache linked once (see kMemoChunk below).
  // Both give the same results, and the charges do not depend on the
  // choice. A materializing join counts the same way: its pairs are
  // enumerated after the launch, and only those that survive the wrap.
  const bool agg_probe = config.algo == ProbeAlgorithm::kSharedHash;
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
      const uint32_t n =
          std::min(config.max_probe_buckets_per_item, count - from);
      bool aggregated = false;
      if (agg_probe && r_sizes[p] <= config.shared_elems) {
        uint64_t s_tuples = 0;
        for (uint32_t i = 0; i < n; ++i) {
          s_tuples += probe.chains.fill()[s_buckets_flat[begin + from + i]];
        }
        aggregated = s_tuples >= r_sizes[p] &&
                     2 * r_sizes[p] >= config.hash_slots;
      }
      items.push_back({p, begin + from, n, aggregated});
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
  // kMemoChunk: a partition whose R side fits a single chunk is gathered
  // and its probe index built once, into a BuildTableCache (see the
  // header); the per-item loops then only charge the re-load/rebuild,
  // and the survivors' enumeration walks the same tables. Insertion
  // order matches the per-chunk builds bit for bit, so chain structure —
  // and with it step counts and match emission order — is unchanged.
  // Partitions probed by several walking items are memoized, in the
  // caller's cache if there is one, else in the join's own. A caller's
  // cache outlives the join, so it also takes every other partition
  // this join walks, or enumerates when materializing, and every later
  // join against the build (the streamed chunks) probes it from there —
  // unless the partition holds fewer than hash_slots / 8 tuples. Such a
  // partition is cheaper to gather and link per item in hot scratch
  // than to probe cold from a cache, where its slot heads would
  // outweigh its tuples: at 2 tuples per partition and 2048 slots, a
  // 256K-tuple probe streamed in 1024-tuple chunks ran about 1.6x slower
  // with every partition cached, holding 128 MB of slot heads.
  // Without a cache, a single-item partition is gathered once either
  // way, so a memo would only add allocation.
  //
  // Aggregated items probe a key-aggregated table rebuilt per item in
  // hot scratch instead: memoizing those tables up front, in fresh
  // memory probed cold, measured slower (2^23 x 2^25 uniform, half the
  // partitions probed by two items: 0.57-0.62 s per join rebuilding vs
  // 0.72-0.85 s memoized).
  //
  // kTallied: a shared-hash aggregate over an oversized partition
  // (block-NL fallback) rebuilds one table per chunk and rescans S per
  // chunk. Chunk c's chain for slot s holds exactly chunk c's R tuples
  // of slot s, so a probe's steps in chunk c are the slot's tuples in
  // chunk c, and its matches those of them with an equal key. Before the
  // launch, each item probes its S buckets once, against every chunk,
  // through a chunk-resolved key-aggregated table of R_p (agg_table.h):
  // a probe tuple adds its slot's dense row of per-chunk chain lengths
  // to its S bucket's per-chunk steps and makes one key lookup, whose
  // per-chunk runs give its matches. The chunk loop then charges the
  // tallied steps and matches. A chunk's row entries number hash_slots,
  // the size of the chunk's own shared-memory slot table. Counting is
  // order-independent, so results are unchanged; a materializing join's
  // survivors are enumerated chunk-major after the launch, skipping
  // whole (chunk, S bucket) cells by their tallied matches.
  enum HostPlan : uint8_t { kPerItem, kMemoChunk, kTallied };
  /// A kTallied item's probe outcome. Its steps and matches per
  /// (chunk, S bucket) start at `cells` in cell_steps/cell_hits,
  /// row-major by chunk.
  struct ItemTally {
    size_t cells = 0;
    uint64_t matches = 0;
    uint64_t checksum = 0;
  };
  BuildTableCache::Tables own_memo(build, config);
  BuildTableCache::Tables& memo =
      tables != nullptr ? *tables->tables_ : own_memo;
  std::vector<HostPlan> host_plan(num_partitions, kPerItem);
  std::vector<ItemTally> tallies;
  std::vector<uint64_t> cell_steps, cell_hits;
  util::ThreadPool* pool = device->pool();
  {
    const uint64_t max_chunk = config.algo == ProbeAlgorithm::kDeviceHash
                                   ? UINT32_MAX
                                   : config.shared_elems;
    const bool tally_oversized = config.algo == ProbeAlgorithm::kSharedHash;
    std::vector<uint32_t> to_memo, tallied;
    for (uint32_t p = 0; p < num_partitions; ++p) {
      if (items_per_partition[p] == 0) continue;
      if (r_sizes[p] > max_chunk) {
        if (tally_oversized) {
          host_plan[p] = kTallied;
          tallied.push_back(p);
        }
      } else if (memo.Find(p) != nullptr) {
        host_plan[p] = kMemoChunk;
      } else {
        uint32_t walking = 0;
        for (uint32_t w = first_item[p];
             w < first_item[p] + items_per_partition[p]; ++w) {
          walking += !items[w].aggregated;
        }
        const bool reused = tables != nullptr && (walking >= 1 || need_out) &&
                            8 * r_sizes[p] >= config.hash_slots;
        if (walking >= 2 || reused) {
          host_plan[p] = kMemoChunk;
          to_memo.push_back(p);
        }
      }
    }
    memo.Add(pool, build.chains, to_memo, r_sizes, config);

    // kTallied: one pool pass over the tallied partitions' items. A
    // worker builds a partition's table when its range reaches the
    // partition, then probes it for each of the partition's items while
    // it is cache-resident. A skewed partition's many items still split
    // over the workers, each building the table once.
    std::vector<uint32_t> tallied_items;
    size_t cells = 0;
    for (const uint32_t p : tallied) {
      if (tallies.empty()) tallies.resize(items.size());
      for (uint32_t w = first_item[p];
           w < first_item[p] + items_per_partition[p]; ++w) {
        tallies[w].cells = cells;
        cells += CeilDiv(r_sizes[p], config.shared_elems) * items[w].s_count;
        tallied_items.push_back(w);
      }
    }
    cell_steps.assign(cells, 0);
    cell_hits.assign(cells, 0);

    const auto probe_table = [&](uint32_t w, ChunkAggTable& table) {
      const WorkItem& item = items[w];
      uint64_t matches = 0, checksum = 0;
      for (uint32_t sb = 0; sb < item.s_count; ++sb) {
        const int32_t b = s_buckets_flat[item.s_from + sb];
        const size_t s_base = static_cast<size_t>(b) * s_cap;
        table.Probe(probe.chains.keys() + s_base,
                    probe.chains.payloads() + s_base, probe.chains.fill()[b],
                    cell_steps.data() + tallies[w].cells + sb,
                    cell_hits.data() + tallies[w].cells + sb, item.s_count,
                    &matches, &checksum);
      }
      tallies[w].matches = matches;
      tallies[w].checksum = checksum;
    };
    pool->ParallelForRanges(
        tallied_items.size(), [&](size_t /*worker*/, size_t lo, size_t hi) {
          ChunkAggTable table;
          uint32_t built_p = UINT32_MAX;
          for (size_t j = lo; j < hi; ++j) {
            const uint32_t w = tallied_items[j];
            if (items[w].p != built_p) {
              built_p = items[w].p;
              table.Build(build.chains, built_p,
                          static_cast<uint32_t>(r_sizes[built_p]),
                          config.shared_elems, radix_bits, config.hash_slots);
            }
            probe_table(w, table);
          }
        });
  }

  sim::LaunchConfig launch;
  launch.name = need_table ? "join_copartitions_hash" : "join_copartitions_nl";
  launch.num_blocks = num_blocks;
  launch.threads_per_block = config.threads_per_block;
  launch.shared_mem_bytes = device->spec().gpu.shared_mem_per_block;

  // Only chain-walking kPerItem items link a table in the launch, so
  // only they need the blocks' table scratch.
  const bool any_gathered =
      std::any_of(items.begin(), items.end(), [&](const WorkItem& item) {
        return !item.aggregated && host_plan[item.p] == kPerItem;
      });

  // Materialization: every block's pair count, and every item's, for
  // publishing the survivors after the launch.
  std::vector<uint64_t> block_pairs(need_out ? num_blocks : 0);
  std::vector<uint64_t> item_pairs(need_out ? items.size() : 0);

  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      device->Launch(launch, [&](sim::Block& block) {
        JoinSharedArea area;
        const bool shared_table = config.algo == ProbeAlgorithm::kSharedHash;
        if (!area.Alloc(&block, config, shared_table, need_out)) return;
        BlockJoinState state;

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
        if (need_table && any_gathered) {
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
        // probe; reused across chunks. Not charged: the simulated kernel
        // compares tiles, the host merely needs the same matches without
        // executing O(|R| x |S|) scalar work.
        ChunkTables nl;

        for (size_t w = static_cast<size_t>(block.block_id());
             w < items.size(); w += static_cast<size_t>(num_blocks)) {
          const size_t next = w + static_cast<size_t>(num_blocks);
          if (next < items.size()) {
            const WorkItem& ahead = items[next];
            PrefetchWorkItem(
                build.chains, probe.chains, s_buckets_flat, ahead,
                ahead.aggregated || host_plan[ahead.p] == kPerItem);
          }
          const WorkItem& item = items[w];
          const uint64_t matches_before_item = state.matches;
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

          // Only chain-walking kPerItem items gather and build their
          // chunk on the host below; the others probe a memo, take the
          // tally made before the launch, or probe the key-aggregated
          // table built here. Every charge still runs per item and
          // chunk.
          const bool aggregated = item.aggregated;
          const HostPlan plan = host_plan[item.p];
          const bool gathered = !aggregated && plan == kPerItem;
          const ChunkTables* pre =
              !aggregated && plan == kMemoChunk ? memo.Find(item.p) : nullptr;
          const ItemTally* tally = plan == kTallied ? &tallies[w] : nullptr;
          const bool tallied = tally != nullptr;
          AggTable* agg = nullptr;
          if (aggregated) {
            agg = &ThreadAggTable();
            agg->Build(build.chains, item.p, static_cast<uint32_t>(r_total),
                       radix_bits, config.hash_slots);
          }
          if (tallied) {
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
            const uint32_t* rkeys = nullptr;
            const uint32_t* rpays = nullptr;
            uint32_t* gkeys = nullptr;
            uint32_t* gpays = nullptr;
            if (pre != nullptr) {
              rkeys = pre->keys.data();
              rpays = pre->pays.data();
            } else if (!gathered) {
              // Tallied before the launch, or probed through an
              // aggregated table.
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
            if (gathered && config.algo == ProbeAlgorithm::kNestedLoop) {
              nl.Build(config, radix_bits, rkeys, rpays, r_count);
            }

            // ---- Build ----
            if (config.algo == ProbeAlgorithm::kSharedHash) {
              // The kernel zeroes the head array each chunk; the
              // functional table resets via the epoch stamp instead.
              block.ChargeShared(2ull * config.hash_slots);
              block.ChargeCycles(config.hash_slots / 32 + 1);
              if (gathered) {
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
              if (gathered) {
                ++cur_epoch;
                dev_nodes.resize(std::max<size_t>(dev_nodes.size(), r_count));
                util::GroupProbe<uint32_t>(
                    r_count,
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
                tallied ? tally->cells + r_done / chunk_elems * item.s_count
                        : 0;
            for (uint32_t sb = 0; sb < item.s_count; ++sb) {
              const int32_t b = s_buckets_flat[item.s_from + sb];
              if (!tallied && sb + 1 < item.s_count) {
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
                // Counting is order-independent: probe a functional hash
                // index over the R chunk instead of scanning it per S
                // tuple.
                const ChunkTables& index = pre != nullptr ? *pre : nl;
                const std::vector<int32_t>& nh = index.nl_heads;
                const std::vector<int32_t>& nn = index.nl_next;
                for (uint32_t i = 0; i < s_fill; ++i) {
                  const uint32_t skey = probe.chains.keys()[s_base + i];
                  const uint32_t slot = util::Mix32(skey) & (nh.size() - 1);
                  for (int32_t e = nh[slot]; e >= 0; e = nn[e]) {
                    if (rkeys[e] == skey) {
                      state.Match(rpays[e],
                                  probe.chains.payloads()[s_base + i]);
                    }
                  }
                }
              } else if (config.algo == ProbeAlgorithm::kSharedHash) {
                // Shared-memory hash probe. The host copy of the chunk
                // table is cache-resident, but each probe is still a
                // serial dependence chain (hash -> head -> node ->
                // next); resolving a batch of heads before walking any
                // chain overlaps those chains' L2 latencies and branch
                // recovery (~1.25x measured even fully cached). Tallied
                // items counted this probe before the launch; aggregated
                // items take their steps and matches from the aggregated
                // table.
                uint64_t steps = 0;
                const uint32_t* skeys = probe.chains.keys() + s_base;
                const uint32_t* spays = probe.chains.payloads() + s_base;
                if (tallied) {
                  steps = cell_steps[chunk_row + sb];
                } else if (aggregated) {
                  agg->Probe(skeys, spays, s_fill, &steps, &state.matches,
                             &state.checksum);
                } else {
                  const uint16_t* h16 =
                      pre != nullptr ? pre->heads16.data() : area.heads;
                  const uint16_t* n16 =
                      pre != nullptr ? pre->next16.data() : area.next;
                  const bool epoch_gated = pre == nullptr;
                  util::GroupProbe<uint16_t>(
                      s_fill,
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
                // Counting is order-independent: AMAC.
                struct Probe {
                  uint32_t key;
                  uint32_t pay;
                  int32_t cur;
                  uint32_t stage;
                };
                util::ProbePipeline<Probe>(
                    s_fill,
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
                // Head + per-step key + next transactions, plus a
                // payload access per match (the paper's "three to four
                // random memory accesses").
                block.ChargeRandomAccess(s_fill + 2 * steps, probe_ws);
                block.ChargeCycles((s_fill * 2 + steps * 3) / 32 + 1);
              }

              ChargeGathers(&block, config,
                            tallied ? cell_hits[chunk_row + sb]
                                    : state.matches - matches_before,
                            build.tuples, probe.tuples);
            }
            r_done += r_count;
          }
          if (need_out) item_pairs[w] = state.matches - matches_before_item;
        }

        if (need_out) {
          block_pairs[static_cast<size_t>(block.block_id())] = state.matches;
          ChargeEmission(&block, config, state.matches, out->capacity());
        }
        // Aggregation epilogue: threads pre-reduce within their warp
        // (shuffle tree), then one device atomic per warp folds into the
        // global aggregate.
        block.ChargeCycles(5);  // log2(32) shuffle-reduce steps
        block.ChargeDeviceAtomic(static_cast<uint64_t>(block.num_warps()));
        g_matches.fetch_add(state.matches, std::memory_order_relaxed);
        g_checksum.fetch_add(state.checksum, std::memory_order_relaxed);
      }));

  // ---- Survivors, in the kernel's emission order ----
  // A block emits its items in turn; an item its R chunks in chain
  // order, and per chunk its S buckets in order. The hash probes emit
  // each probe tuple's chain walk in turn: its slot's tuples from the
  // head, i.e. in reverse insertion order, filtered by key. The nested
  // loop emits per 32x32 tile: s lane, then ascending r. Items, and a
  // tallied item's (chunk, S bucket) cells, wholly before the cut are
  // skipped by their counts. A kMemoChunk partition's tables are walked
  // where the launch probed them; the others are gathered and linked
  // again, chunk by chunk.
  if (need_out) {
    PublishSurvivors(
        out, block_pairs, pool, [&](size_t b, SurvivorSink& sink) {
          ChunkTables scratch;
          for (size_t w = b; w < items.size();
               w += static_cast<size_t>(num_blocks)) {
            if (sink.Skips(item_pairs[w])) continue;
            // Once the block's pairs survive, so do its later items'.
            const size_t next = w + static_cast<size_t>(num_blocks);
            if (next < items.size()) {
              const WorkItem& ahead = items[next];
              PrefetchWorkItem(build.chains, probe.chains, s_buckets_flat,
                               ahead, host_plan[ahead.p] != kMemoChunk);
            }
            const WorkItem& item = items[w];
            const uint32_t r_total = static_cast<uint32_t>(r_sizes[item.p]);
            const ChunkTables* memoized = memo.Find(item.p);
            if (memoized == nullptr) {
              scratch.Gather(build.chains, item.p, r_total);
            }
            const ChunkTables& t = memoized != nullptr ? *memoized : scratch;
            const uint32_t chunk_elems =
                config.algo == ProbeAlgorithm::kDeviceHash
                    ? r_total
                    : config.shared_elems;
            const bool tallied = host_plan[item.p] == kTallied;
            for (uint32_t r_done = 0, chunk = 0; r_done < r_total;
                 r_done += chunk_elems, ++chunk) {
              const uint32_t r_count = std::min(chunk_elems, r_total - r_done);
              const uint32_t* rk = t.keys.data() + r_done;
              const uint32_t* rp = t.pays.data() + r_done;
              bool built = false;
              for (uint32_t sb = 0; sb < item.s_count; ++sb) {
                if (tallied &&
                    sink.Skips(cell_hits[tallies[w].cells +
                                         size_t{chunk} * item.s_count + sb])) {
                  continue;
                }
                if (!built && memoized == nullptr) {
                  scratch.Build(config, radix_bits, rk, rp, r_count);
                }
                built = true;
                const int32_t sbucket = s_buckets_flat[item.s_from + sb];
                const size_t s_base = static_cast<size_t>(sbucket) * s_cap;
                const uint32_t s_fill = probe.chains.fill()[sbucket];
                const uint32_t* skeys = probe.chains.keys() + s_base;
                const uint32_t* spays = probe.chains.payloads() + s_base;
                if (config.algo == ProbeAlgorithm::kSharedHash) {
                  util::GroupProbe<uint16_t>(
                      s_fill,
                      [&](size_t i, uint16_t& e) {
                        e = t.heads16[util::HashTableSlot(
                            skeys[i], radix_bits, config.hash_slots)];
                      },
                      [&](size_t i, uint16_t& head) {
                        for (uint16_t e = head; e != kEmpty16;
                             e = t.next16[e]) {
                          if (rk[e] == skeys[i]) sink.Push(rp[e], spays[i]);
                        }
                      });
                } else if (config.algo == ProbeAlgorithm::kDeviceHash) {
                  // The in-order two-stage pipeline keeps probe order.
                  util::OrderedProbePipeline<int32_t>(
                      s_fill,
                      [&](size_t i, int32_t& st) {
                        st = static_cast<int32_t>(util::HashTableSlot(
                            skeys[i], radix_bits, config.hash_slots));
                        util::PrefetchRead(&t.dheads[st]);
                      },
                      [&](size_t /*i*/, int32_t& st) {
                        st = t.dheads[st];
                        if (st >= 0) util::PrefetchRead(&t.nodes[st]);
                      },
                      [&](size_t i, int32_t& st) {
                        for (int32_t e = st; e >= 0;) {
                          const util::PackedHashNode& node = t.nodes[e];
                          if (node.next >= 0) {
                            util::PrefetchRead(&t.nodes[node.next]);
                          }
                          if (node.key == skeys[i]) {
                            sink.Push(node.pay, spays[i]);
                          }
                          e = node.next;
                        }
                      });
                } else {
                  for (uint32_t s0 = 0; s0 < s_fill; s0 += 32) {
                    const uint32_t s_lanes =
                        std::min<uint32_t>(32, s_fill - s0);
                    for (uint32_t r0 = 0; r0 < r_count; r0 += 32) {
                      const uint32_t r_lanes =
                          std::min<uint32_t>(32, r_count - r0);
                      for (uint32_t l = 0; l < s_lanes; ++l) {
                        for (uint32_t j = 0; j < r_lanes; ++j) {
                          if (rk[r0 + j] == skeys[s0 + l]) {
                            sink.Push(rp[r0 + j], spays[s0 + l]);
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        });
  }

  CoPartitionJoinResult join_result;
  join_result.matches = g_matches.load();
  join_result.payload_sum = g_checksum.load();
  join_result.seconds = result.seconds;
  return join_result;
}

}  // namespace gjoin::gpujoin
