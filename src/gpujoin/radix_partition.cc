#include "src/gpujoin/radix_partition.h"

#include <algorithm>
#include <numeric>

#include "src/obs/metrics.h"
#include "src/util/bits.h"
#include "src/util/scatter_buffer.h"

namespace gjoin::gpujoin {

namespace {

using util::CeilDiv;

/// Cycle cost charged per partitioned element: ~12 warp-instructions per
/// 32 elements of bookkeeping plus the element's share of the block's
/// memory pipeline (a block sustains roughly 5 bytes/cycle of the
/// device bandwidth, so 8 bytes cost ~1.6 cycles). Charging the memory
/// share per block is what lets a single overloaded block bound the
/// kernel — "the longest running CUDA block defines the total execution
/// time" (Section III-A).
constexpr double kCyclesPerElement = 12.0 / 32.0 + 1.6;

/// Host-side scatter staging, one instance per worker thread. The
/// simulated traffic is unchanged (ChargeStagePush/ChargeStageFlush per
/// tuple, exactly what tuple-at-a-time staging charged); what changes is
/// how the *host* moves the bytes: tuples accumulate in per-destination
/// buffers and flush to bucket storage in line-granularity non-temporal
/// bursts instead of one random 8-byte write each. Thread-local because
/// block bodies cannot carry worker-private scratch through
/// Device::Launch; flush counters are harvested per block via
/// TakeCounters at body end.
util::ScatterBuffers& ScatterScratch() {
  thread_local util::ScatterBuffers buffers;
  return buffers;
}

/// Sums per-block scatter counters into the config's registry (if any),
/// following the PR-8 naming contract. Observes only: no charges.
void PublishScatterCounters(
    const RadixPartitionConfig& config,
    const std::vector<util::ScatterBuffers::Counters>& per_block) {
  if (config.metrics == nullptr) return;
  uint64_t tuples = 0;
  uint64_t flushes = 0;
  for (const util::ScatterBuffers::Counters& c : per_block) {
    tuples += c.flushed_tuples;
    flushes += c.flushes;
  }
  config.metrics
      ->GetCounter("gjoin_partition_scatter_bytes_total",
                   "Bytes moved through the software-managed scatter "
                   "buffers by host partitioning (8 per tuple).")
      ->Increment(tuples * 8);
  config.metrics
      ->GetCounter("gjoin_partition_scatter_flushes_total",
                   "Scatter-buffer flushes (full-buffer bursts plus "
                   "end-of-scope drains) by host partitioning.")
      ->Increment(flushes);
}

/// A chain segment recorded during a block's body and spliced onto the
/// global partition lists after the launch, in ascending block id.
/// Deferring the splice makes the published chain order a function of
/// block id, not of how host workers interleave — the head-exchange
/// charge is still paid at record time, where the kernel performs it.
struct PendingSegment {
  uint32_t partition;
  int32_t first;
  int32_t last;
};

/// Publishes every block's recorded segments in ascending block id: the
/// order serialized block execution would splice them in. Charge-free.
void SpliceSegments(BucketChains* chains,
                    const std::vector<std::vector<PendingSegment>>& pending) {
  for (const std::vector<PendingSegment>& segments : pending) {
    for (const PendingSegment& seg : segments) {
      chains->PublishSegment(seg.partition, seg.first, seg.last);
    }
  }
}

/// Checks one pass's radix field [shift, shift + bits) and the config
/// fields every pass divides or indexes by, naming the offending
/// RadixPartitionConfig field.
util::Status ValidatePass(const RadixPartitionConfig& config, int shift,
                          int bits) {
  if (bits <= 0 || bits > 12) {
    return util::Status::Invalid(
        "RadixPartitionConfig.pass_bits: pass bits out of range [1, 12]: " +
        std::to_string(bits));
  }
  if (shift < 0) {
    return util::Status::Invalid(
        "RadixPartitionConfig.base_shift: negative shift " +
        std::to_string(shift));
  }
  if (shift + bits > 32) {
    return util::Status::Invalid(
        "RadixPartitionConfig.base_shift + pass_bits: radix bits [" +
        std::to_string(shift) + ", " + std::to_string(shift + bits) +
        ") exceed the 32-bit key");
  }
  if (config.stage_elems == 0) {
    return util::Status::Invalid(
        "RadixPartitionConfig.stage_elems must be positive");
  }
  if (config.num_blocks < 0) {
    return util::Status::Invalid(
        "RadixPartitionConfig.num_blocks must not be negative: " +
        std::to_string(config.num_blocks));
  }
  return util::Status::OK();
}

/// Per-block partitioning state for block-private chains (pass 1 and
/// partition-at-a-time later passes): current bucket, fill, staging, and
/// the segment endpoints published at the end. All of it lives in the
/// block's shared memory.
struct BlockLocalChains {
  uint32_t fanout = 0;
  uint32_t stage_elems = 0;
  // Shared-memory arrays (allocated from the block's scratchpad). The
  // staging arrays model the shuffle space: the host stages tuples in
  // ScatterBuffers instead, but the simulated footprint and traffic are
  // unchanged.
  int32_t* cur_bucket = nullptr;
  uint32_t* cur_fill = nullptr;
  uint32_t* stage_fill = nullptr;
  uint32_t* stage_keys = nullptr;
  uint32_t* stage_pays = nullptr;
  int32_t* seg_first = nullptr;
  int32_t* seg_last = nullptr;

  /// Reserves shared memory once per block; false when the fanout does
  /// not fit (the paper's "fanout of at most a few thousand partitions"
  /// limit). Call ResetMeta() before first use.
  bool Alloc(sim::Block* block, uint32_t fanout_in, uint32_t stage_in) {
    fanout = fanout_in;
    stage_elems = stage_in;
    auto& shared = block->shared();
    cur_bucket = shared.Alloc<int32_t>(fanout);
    cur_fill = shared.Alloc<uint32_t>(fanout);
    stage_fill = shared.Alloc<uint32_t>(fanout);
    seg_first = shared.Alloc<int32_t>(fanout);
    seg_last = shared.Alloc<int32_t>(fanout);
    stage_keys = shared.Alloc<uint32_t>(fanout * stage_elems);
    stage_pays = shared.Alloc<uint32_t>(fanout * stage_elems);
    return cur_bucket != nullptr && cur_fill != nullptr &&
           stage_fill != nullptr && seg_first != nullptr &&
           seg_last != nullptr && stage_keys != nullptr &&
           stage_pays != nullptr;
  }

  /// (Re-)initializes the metadata for a fresh producer scope. Charged as
  /// the penalty the paper attributes to switching partitions ("spends
  /// more time initializing internal data structures").
  void ResetMeta(sim::Block* block) {
    for (uint32_t p = 0; p < fanout; ++p) {
      cur_bucket[p] = BucketChains::kNull;
      seg_first[p] = BucketChains::kNull;
      seg_last[p] = BucketChains::kNull;
      stage_fill[p] = 0;
      cur_fill[p] = 0;
    }
    block->ChargeCycles(static_cast<uint64_t>(fanout) * 2 / 32 + 1);
    block->ChargeShared(static_cast<uint64_t>(fanout) * 20);
  }

  /// Appends a staged run of `count` tuples of local partition `lp`
  /// to the block's current bucket chain, charging exactly what `count`
  /// per-tuple stage pushes plus their flushes charged: 8B staged + one
  /// stage-slot atomic per tuple, then 8B shared re-read + 8B scatter
  /// write per tuple, and one device atomic per bucket drawn from the
  /// pool. Bucket boundaries are identical to the tuple-at-a-time path
  /// because chains fill each bucket to capacity before allocating. The
  /// host copy is non-temporal (the caller's block body ends with
  /// StreamFence before other threads may read the pool).
  void AppendRun(sim::Block* block, BucketChains* out, uint32_t lp,
                 const uint32_t* keys, const uint32_t* pays, uint32_t count) {
    block->ChargeStagePush(count);
    block->ChargeStageFlush(count);
    const uint32_t cap = out->bucket_capacity();
    uint32_t done = 0;
    while (done < count) {
      if (cur_bucket[lp] == BucketChains::kNull || cur_fill[lp] == cap) {
        const int32_t nb = out->AllocateBucket();
        block->ChargeDeviceAtomic(1);  // pool cursor
        if (nb == BucketChains::kNull) {
          // Pool exhausted: an internal sizing bug; make it loud.
          std::fprintf(stderr, "gjoin: bucket pool exhausted\n");
          std::abort();
        }
        if (cur_bucket[lp] == BucketChains::kNull) {
          seg_first[lp] = nb;
        } else {
          // Record the old bucket's final fill and link the new one after
          // it ("linked after the previous bucket").
          out->fill()[cur_bucket[lp]] = cur_fill[lp];
          out->next()[cur_bucket[lp]] = nb;
        }
        cur_bucket[lp] = nb;
        seg_last[lp] = nb;
        cur_fill[lp] = 0;
      }
      const uint32_t room = cap - cur_fill[lp];
      const uint32_t batch = std::min(room, count - done);
      const size_t dst =
          static_cast<size_t>(cur_bucket[lp]) * cap + cur_fill[lp];
      util::StreamCopyU32(keys + done, out->keys() + dst, batch);
      util::StreamCopyU32(pays + done, out->payloads() + dst, batch);
      cur_fill[lp] += batch;
      done += batch;
    }
  }

  /// Closes every non-empty segment and records it for the ordered
  /// splice after the launch. Local partition lp publishes as global
  /// partition gp_base + lp.
  void Finish(sim::Block* block, BucketChains* out, uint32_t gp_base,
              std::vector<PendingSegment>* pending) {
    for (uint32_t lp = 0; lp < fanout; ++lp) {
      if (cur_bucket[lp] != BucketChains::kNull) {
        out->fill()[cur_bucket[lp]] = cur_fill[lp];
        pending->push_back({gp_base + lp, seg_first[lp], seg_last[lp]});
        block->ChargeDeviceAtomic(1);  // head exchange
      }
    }
  }
};

/// Shared-memory bytes needed by BlockLocalChains for a given fanout.
size_t BlockLocalSharedBytes(uint32_t fanout, uint32_t stage_elems) {
  // 5 metadata arrays of 4 bytes + two staging arrays, plus alignment
  // slack for the 7 allocations.
  return static_cast<size_t>(fanout) * (5 * 4 + stage_elems * 8) + 7 * 16;
}

/// Reserves a bucket-at-a-time block's shared-memory staging (stage
/// fill counters plus the staged keys and payloads per child). The host
/// stages in ScatterBuffers instead; the allocation keeps the block's
/// simulated footprint, and its limit, those of the kernel.
bool AllocStageOnly(sim::Block* block, uint32_t fanout, uint32_t stage_elems) {
  auto& shared = block->shared();
  return shared.Alloc<uint32_t>(fanout) != nullptr &&
         shared.Alloc<uint32_t>(fanout * stage_elems) != nullptr &&
         shared.Alloc<uint32_t>(fanout * stage_elems) != nullptr;
}

/// One block's share of a bucket-at-a-time pass, tallied by the sweep
/// and charged by the launch. Each field is a plain sum over the
/// block's items, so the order workers add them in does not matter.
struct BlockTally {
  uint64_t tuples = 0;        ///< Scanned, staged and flushed tuples.
  uint64_t buckets = 0;       ///< Input buckets scanned and recycled.
  uint64_t flush_events = 0;  ///< Simulated stage flushes.
  uint64_t draws = 0;         ///< Output buckets drawn from the pool.
  uint64_t cycles = 0;        ///< Scan cycles plus parent-visit resets.

  void Add(const BlockTally& o) {
    tuples += o.tuples;
    buckets += o.buckets;
    flush_events += o.flush_events;
    draws += o.draws;
    cycles += o.cycles;
  }
};

/// One pool worker's sweep over whole parents of a bucket-at-a-time
/// pass (later passes, paper's default assignment).
///
/// The kernel deals parent p's i-th chain bucket to block
/// (r0_p + i) mod B, and blocks publish onto the shared child chains in
/// ascending block id, so a child's chain is its parent's tuples in
/// "ascending block id, then chain order", packed to capacity with each
/// new bucket prepended. A child depends on its parent alone: one worker
/// per parent moves every tuple once — scatter buffer, then straight
/// into the child's current bucket — and recycles each input bucket as
/// soon as it has read it. It reuses the buckets it freed before drawing
/// from the shared free list, so the pool lock is taken only for a
/// parent's extra partial buckets (at most one per child, which
/// RadixPartitionImpl reserves).
///
/// While sweeping it tallies what each block's visit of the parent
/// charges inline, from per-child counts n (with g tuples of the child
/// already routed by lower blocks):
///  - stage push and flush: n tuples;
///  - stage flush events: ceil(n / stage_elems) (every stage_elems-th
///    tuple plus the drain at the parent switch);
///  - output bucket draws: ceil((g + n) / cap) - ceil(g / cap);
///  - per input bucket: its scan (cycles truncated per bucket) and the
///    recycle atomic;
///  - per parent visit: the stage-metadata reset, fanout / 32 + 1
///    cycles.
class ParentSweeper {
 public:
  ParentSweeper(BucketChains* in, BucketChains* out, int shift, int bits,
                uint32_t num_blocks, uint32_t stage_elems, int scatter_tuples)
      : in_(in),
        out_(out),
        shift_(shift),
        bits_(bits),
        fanout_(1u << bits),
        num_blocks_(num_blocks),
        stage_elems_(stage_elems),
        scatter_tuples_(scatter_tuples),
        routed_(fanout_),
        group_(fanout_),
        tallies_(num_blocks) {}

  /// Sweeps `parent`, whose chain buckets are `buckets[0, count)` and
  /// whose first bucket the deal gives to block `r0`.
  void Sweep(uint32_t parent, const int32_t* buckets, uint32_t count,
             uint32_t r0) {
    if (count == 0) return;
    std::fill(routed_.begin(), routed_.end(), 0);
    child_base_ = parent << bits_;
    sb_ = &ScatterScratch();
    sb_->Init(fanout_, scatter_tuples_);
    // Bucket i belongs to block (r0 + i) mod B: visit the owners in
    // ascending id, each starting at its first bucket.
    for (uint32_t b = 0; b < num_blocks_; ++b) {
      const uint32_t i0 = (b + num_blocks_ - r0) % num_blocks_;
      if (i0 < count) Visit(b, buckets, count, i0);
    }
    sb_->DrainAll(
        [&](uint32_t c, util::ScatterBuffers::RunView run) { Pack(c, run); });
  }

  /// Returns the unused recycled buckets to the shared pool and fences
  /// the non-temporal copies. Call once after the worker's last parent.
  void Finish() {
    out_->pool()->FreeBuckets(free_);
    free_.clear();
    util::StreamFence();
    counters_ = ScatterScratch().TakeCounters();
  }

  const BlockTally& tally(size_t block) const { return tallies_[block]; }
  const util::ScatterBuffers::Counters& counters() const { return counters_; }

 private:
  /// Block b's visit: scans its buckets of the parent (i0, i0 + B, ...
  /// in chain order), routes every tuple, then tallies the visit.
  void Visit(uint32_t b, const int32_t* buckets, uint32_t count, uint32_t i0) {
    BlockTally& t = tallies_[b];
    const uint32_t cap = in_->bucket_capacity();
    for (uint32_t i = i0; i < count; i += num_blocks_) {
      const int32_t bucket = buckets[i];
      const uint32_t n = in_->fill()[bucket];
      t.tuples += n;
      ++t.buckets;
      t.cycles += static_cast<uint64_t>(static_cast<double>(n) *
                                        kCyclesPerElement);
      const uint32_t* keys = in_->keys() + static_cast<size_t>(bucket) * cap;
      const uint32_t* pays =
          in_->payloads() + static_cast<size_t>(bucket) * cap;
      for (uint32_t j = 0; j < n; ++j) {
        const uint32_t c = util::RadixOf(keys[j], shift_, bits_);
        if (group_[c]++ == 0) dirty_.push_back(c);
        if (sb_->Push(c, keys[j], pays[j])) {
          Pack(c, sb_->Run(c));
          sb_->Clear(c);
        }
      }
      free_.push_back(bucket);  // read in full; its tuples are staged
    }
    t.cycles += fanout_ / 32 + 1;
    for (const uint32_t c : dirty_) {
      const uint64_t n = group_[c];
      const uint64_t g = routed_[c];
      t.flush_events += CeilDiv(n, stage_elems_);
      t.draws += CeilDiv(g + n, cap) - CeilDiv(g, cap);
      routed_[c] = g + n;
      group_[c] = 0;
    }
    dirty_.clear();
  }

  /// Appends a flushed run to child c's chain: fills the head bucket to
  /// capacity, then prepends a fresh one (this worker owns the child).
  void Pack(uint32_t c, util::ScatterBuffers::RunView run) {
    const uint32_t cap = out_->bucket_capacity();
    int32_t& head = out_->heads()[child_base_ + c];
    uint32_t done = 0;
    while (done < run.count) {
      if (head == BucketChains::kNull || out_->fill()[head] == cap) {
        const int32_t b = Draw();
        out_->next()[b] = head;
        head = b;
      }
      const int32_t b = head;
      const uint32_t fill = out_->fill()[b];
      const uint32_t batch = std::min(cap - fill, run.count - done);
      const size_t dst = static_cast<size_t>(b) * cap + fill;
      util::StreamCopyU32(run.keys + done, out_->keys() + dst, batch);
      util::StreamCopyU32(run.pays + done, out_->payloads() + dst, batch);
      out_->fill()[b] = fill + batch;
      done += batch;
    }
  }

  /// An empty bucket: one this worker recycled, else one from the pool.
  int32_t Draw() {
    if (free_.empty()) {
      const int32_t b = out_->AllocateBucket();
      if (b == BucketChains::kNull) {
        // Pool exhausted: an internal sizing bug; make it loud.
        std::fprintf(stderr, "gjoin: bucket pool exhausted\n");
        std::abort();
      }
      return b;
    }
    const int32_t b = free_.back();
    free_.pop_back();
    out_->fill()[b] = 0;
    return b;
  }

  BucketChains* in_;
  BucketChains* out_;
  int shift_;
  int bits_;
  uint32_t fanout_;
  uint32_t num_blocks_;
  uint32_t stage_elems_;
  int scatter_tuples_;
  uint32_t child_base_ = 0;
  util::ScatterBuffers* sb_ = nullptr;
  std::vector<uint64_t> routed_;  ///< Child's tuples from lower blocks.
  std::vector<uint32_t> group_;   ///< Child's tuples in this visit.
  std::vector<uint32_t> dirty_;   ///< Children with group_ > 0.
  std::vector<int32_t> free_;     ///< Recycled buckets, reused first.
  std::vector<BlockTally> tallies_;
  util::ScatterBuffers::Counters counters_;
};

}  // namespace

uint32_t AutoBucketCapacity(uint64_t tuples, uint32_t partitions) {
  if (partitions == 0) return 1024;
  const uint64_t per_partition = CeilDiv(2 * std::max<uint64_t>(tuples, 1),
                                         partitions);
  const uint64_t clamped = std::clamp<uint64_t>(per_partition, 128, 1024);
  return static_cast<uint32_t>(util::NextPowerOfTwo(clamped));
}

void ChunkedDeviceInput::Add(std::vector<uint32_t> keys,
                             std::vector<uint32_t> payloads) {
  if (keys.empty()) return;
  Chunk chunk;
  chunk.begin = total_;
  total_ += keys.size();
  chunk.keys = std::move(keys);
  chunk.payloads = std::move(payloads);
  chunks_.push_back(std::move(chunk));
}

uint32_t ChunkedDeviceInput::MaxKey() const {
  uint32_t max_key = 0;
  for (const Chunk& chunk : chunks_) {
    for (uint32_t k : chunk.keys) max_key = std::max(max_key, k);
  }
  return max_key;
}

void ChunkedDeviceInput::Cursor::Advance() {
  // Only reached when the owning block has more tuples, so the next
  // chunk exists and is still alive (it intersects the block's range).
  ++chunk_;
  const Chunk& chunk = in_->chunks_[chunk_];
  k_ = chunk.keys.data();
  p_ = chunk.payloads.data();
  k_end_ = k_ + chunk.keys.size();
}

ChunkedDeviceInput::Cursor ChunkedDeviceInput::At(size_t i) const {
  Cursor cur;
  cur.in_ = this;
  // Last chunk whose begin is <= i.
  size_t lo = 0, hi = chunks_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    (chunks_[mid].begin <= i ? lo : hi) = mid;
  }
  cur.chunk_ = lo;
  const Chunk& chunk = chunks_[lo];
  cur.k_ = chunk.keys.data() + (i - chunk.begin);
  cur.p_ = chunk.payloads.data() + (i - chunk.begin);
  cur.k_end_ = chunk.keys.data() + chunk.keys.size();
  return cur;
}

void ChunkedDeviceInput::BeginConsume(size_t block_tuples) {
  block_tuples_ = block_tuples;
  readers_ = std::make_unique<std::atomic<int>[]>(chunks_.size());
  if (block_tuples == 0) return;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const size_t lo = chunks_[c].begin;
    const size_t hi = ChunkEnd(c);
    // The blocks reading [lo, hi) are a contiguous, nonempty id range.
    const size_t b0 = lo / block_tuples;
    const size_t b1 = (hi - 1) / block_tuples;
    readers_[c].store(static_cast<int>(b1 - b0 + 1),
                      std::memory_order_relaxed);
  }
}

void ChunkedDeviceInput::BlockDone(size_t begin, size_t end) {
  if (end <= begin || readers_ == nullptr) return;
  // First chunk containing `begin` (coverage is gap-free), then every
  // chunk starting before `end`.
  size_t lo = 0, hi = chunks_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    (chunks_[mid].begin <= begin ? lo : hi) = mid;
  }
  for (size_t c = lo; c < chunks_.size() && chunks_[c].begin < end; ++c) {
    if (readers_[c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last reader: release the chunk's columns.
      std::vector<uint32_t>().swap(chunks_[c].keys);
      std::vector<uint32_t>().swap(chunks_[c].payloads);
    }
  }
}

namespace {

/// Pass-1 input adapters: the launch body walks its tuple range through
/// a source-provided cursor, so the contiguous DeviceRelation path and
/// the chunk-consuming path share one kernel. Every charge is driven by
/// tuple values and counts alone, never by input layout, which is what
/// keeps the two paths' stats bit-identical.
struct FlatPassSource {
  const uint32_t* keys;
  const uint32_t* pays;
  struct Cursor {
    const uint32_t* k;
    const uint32_t* p;
    uint32_t key() const { return *k; }
    uint32_t pay() const { return *p; }
    void Next() {
      ++k;
      ++p;
    }
  };
  Cursor At(size_t i) const { return {keys + i, pays + i}; }
  void BeginConsume(size_t /*block_tuples*/) {}
  void BlockDone(size_t /*begin*/, size_t /*end*/) {}
};

struct ChunkedPassSource {
  ChunkedDeviceInput* input;
  using Cursor = ChunkedDeviceInput::Cursor;
  Cursor At(size_t i) const { return input->At(i); }
  void BeginConsume(size_t block_tuples) { input->BeginConsume(block_tuples); }
  void BlockDone(size_t begin, size_t end) { input->BlockDone(begin, end); }
};

template <typename Source>
util::Result<PartitionedRelation> FirstPassOverSource(
    sim::Device* device, Source src, size_t input_size, int shift, int bits,
    const RadixPartitionConfig& config, PartitionedRelation* append_to) {
  GJOIN_RETURN_NOT_OK(ValidatePass(config, shift, bits));
  const uint32_t fanout = 1u << bits;
  const size_t smem_needed =
      BlockLocalSharedBytes(fanout, config.stage_elems);
  if (smem_needed > device->spec().gpu.shared_mem_per_block) {
    return util::Status::Invalid(
        "partitioning fanout 2^" + std::to_string(bits) +
        " needs " + std::to_string(smem_needed) +
        "B shared memory, exceeding the per-block limit");
  }

  const uint32_t capacity =
      config.bucket_capacity != 0
          ? config.bucket_capacity
          : AutoBucketCapacity(input_size, config.num_partitions());
  const int num_blocks =
      config.num_blocks != 0
          ? config.num_blocks
          : device->spec().gpu.num_sms * device->spec().gpu.blocks_per_sm;
  const int scatter_tuples =
      util::ResolveScatterBufferTuples(config.scatter_buffer_tuples);

  PartitionedRelation out;
  if (append_to != nullptr) {
    // Segmented partitioning: publish into the caller's existing chains
    // (their pool must have headroom for this segment).
    if (append_to->radix_bits != bits || append_to->base_shift != shift) {
      return util::Status::Invalid("append: radix layout mismatch");
    }
    out = std::move(*append_to);
  } else {
    const uint32_t pool_buckets =
        static_cast<uint32_t>(CeilDiv(input_size, capacity)) +
        static_cast<uint32_t>(num_blocks) * fanout + fanout;
    GJOIN_ASSIGN_OR_RETURN(
        BucketChains chains,
        BucketChains::Allocate(&device->memory(), fanout, pool_buckets,
                               capacity));
    out.chains = std::move(chains);
    out.radix_bits = bits;
    out.base_shift = shift;
  }
  BucketChains& chains = out.chains;

  const size_t n = input_size;
  const size_t chunk = num_blocks > 0 ? CeilDiv(n, num_blocks) : n;
  src.BeginConsume(chunk);

  sim::LaunchConfig launch;
  launch.name = "radix_partition_pass1";
  launch.num_blocks = num_blocks;
  launch.threads_per_block = config.threads_per_block;
  launch.shared_mem_bytes = device->spec().gpu.shared_mem_per_block;

  std::vector<std::vector<PendingSegment>> pending(
      static_cast<size_t>(num_blocks));
  std::vector<util::ScatterBuffers::Counters> scatter_counters(
      static_cast<size_t>(num_blocks));
  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      device->Launch(
          launch,
          [&](sim::Block& block) {
            const size_t begin = static_cast<size_t>(block.block_id()) * chunk;
            const size_t end = std::min(n, begin + chunk);
            if (begin >= end) return;
            BlockLocalChains local;
            if (!local.Alloc(&block, fanout, config.stage_elems)) return;
            local.ResetMeta(&block);
            block.ChargeCoalescedRead(8ull * (end - begin));
            block.ChargeCycles(static_cast<uint64_t>(
                static_cast<double>(end - begin) * kCyclesPerElement));
            // Single pass: radix-decode each tuple into its destination's
            // scatter buffer; a full buffer flushes to the bucket chain
            // as one non-temporal burst.
            util::ScatterBuffers& sb = ScatterScratch();
            sb.Init(fanout, scatter_tuples);
            auto cur = src.At(begin);
            // The cursor never steps past the block's last tuple (a
            // chunked source may have freed whatever follows).
            for (size_t i = begin;;) {
              const uint32_t key = cur.key();
              const uint32_t p = util::RadixOf(key, shift, bits);
              if (sb.Push(p, key, cur.pay())) {
                const util::ScatterBuffers::RunView run = sb.Run(p);
                local.AppendRun(&block, &chains, p, run.keys, run.pays,
                                run.count);
                sb.Clear(p);
              }
              if (++i == end) break;
              cur.Next();
            }
            sb.DrainAll([&](uint32_t p, util::ScatterBuffers::RunView run) {
              local.AppendRun(&block, &chains, p, run.keys, run.pays,
                              run.count);
            });
            local.Finish(&block, &chains, /*gp_base=*/0,
                         &pending[static_cast<size_t>(block.block_id())]);
            scatter_counters[static_cast<size_t>(block.block_id())] =
                sb.TakeCounters();
            util::StreamFence();
            src.BlockDone(begin, end);
          }));
  SpliceSegments(&chains, pending);
  PublishScatterCounters(config, scatter_counters);

  out.tuples += n;
  out.seconds += result.seconds;
  if (out.pass_seconds.empty()) {
    out.pass_seconds = {result.seconds};
  } else {
    out.pass_seconds[0] += result.seconds;
  }
  return out;
}

}  // namespace

util::Result<PartitionedRelation> RadixPartitionFirstPass(
    sim::Device* device, const DeviceRelation& input, int shift, int bits,
    const RadixPartitionConfig& config, PartitionedRelation* append_to) {
  return FirstPassOverSource(
      device, FlatPassSource{input.keys.data(), input.payloads.data()},
      input.size, shift, bits, config, append_to);
}

namespace {

/// Bucket-at-a-time: one ParentSweeper per pool worker moves the tuples
/// parent by parent (largest parents claimed first, so a hot parent
/// starts at once and the other workers share the rest), then a
/// single-phase launch charges every block its tallied share.
util::Result<sim::LaunchResult> BucketAtATimePass(
    sim::Device* device, BucketChains* in, BucketChains* out,
    uint64_t in_tuples, int shift, int bits,
    const RadixPartitionConfig& config, const sim::LaunchConfig& launch) {
  const uint32_t parents = in->num_partitions();
  const uint32_t num_blocks = static_cast<uint32_t>(launch.num_blocks);
  // Each parent's buckets in chain order, parents in ascending order:
  // the kernel's deal order, so parent p's first bucket goes to block
  // first[p] mod B.
  std::vector<size_t> first(parents + 1);
  std::vector<int32_t> buckets;
  for (uint32_t p = 0; p < parents; ++p) {
    first[p] = buckets.size();
    for (int32_t b = in->heads()[p]; b != BucketChains::kNull;
         b = in->next()[b]) {
      buckets.push_back(b);
    }
  }
  first[parents] = buckets.size();
  std::vector<uint32_t> order(parents);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return first[x + 1] - first[x] > first[y + 1] - first[y];
  });

  util::ThreadPool* pool = device->pool();
  const size_t workers = std::min<size_t>(pool->num_threads(), parents);
  const int scatter_tuples =
      util::ResolveScatterBufferTuples(config.scatter_buffer_tuples);
  std::vector<ParentSweeper> sweepers;
  sweepers.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    sweepers.emplace_back(in, out, shift, bits, num_blocks, config.stage_elems,
                          scatter_tuples);
  }
  std::atomic<uint32_t> next_parent{0};
  pool->ParallelForRanges(
      workers, [&](size_t worker, size_t /*begin*/, size_t /*end*/) {
        ParentSweeper& sweeper = sweepers[worker];
        for (uint32_t k = next_parent.fetch_add(1, std::memory_order_relaxed);
             k < parents;
             k = next_parent.fetch_add(1, std::memory_order_relaxed)) {
          const uint32_t p = order[k];
          sweeper.Sweep(p, buckets.data() + first[p],
                        static_cast<uint32_t>(first[p + 1] - first[p]),
                        static_cast<uint32_t>(first[p] % num_blocks));
        }
        sweeper.Finish();
      });
  std::vector<util::ScatterBuffers::Counters> scatter_counters;
  for (const ParentSweeper& sweeper : sweepers) {
    scatter_counters.push_back(sweeper.counters());
  }
  PublishScatterCounters(config, scatter_counters);

  const uint32_t subfanout = 1u << bits;
  const uint64_t children = out->num_partitions();
  return device->Launch(launch, [&](sim::Block& block) {
    BlockTally t;
    for (const ParentSweeper& sweeper : sweepers) {
      t.Add(sweeper.tally(static_cast<size_t>(block.block_id())));
    }
    if (t.buckets == 0) return;
    if (!AllocStageOnly(&block, subfanout, config.stage_elems)) return;
    // Chain hop + coalesced scan per input bucket, then its recycle.
    block.ChargeRandomAccess(t.buckets, 8ull * in_tuples);
    block.ChargeCoalescedRead(8ull * t.tuples);
    block.ChargeStagePush(t.tuples);
    block.ChargeStageFlush(t.tuples);
    // Each stage flush pays a device atomic and an uncoalesced access to
    // the shared chain metadata; each drawn bucket the pool atomic.
    if (t.tuples > 0) {
      block.ChargeRandomAccess(t.flush_events, 16 * children);
    }
    block.ChargeDeviceAtomic(t.buckets + t.flush_events + t.draws);
    block.ChargeCycles(t.cycles);
  });
}

/// Partition-at-a-time: whole parent chains are dealt round-robin, so a
/// block is the sole producer of its parents' children and keeps their
/// metadata in fast shared memory; the price is load imbalance under
/// skew (max_block_cycles). Segments are spliced after the launch.
util::Result<sim::LaunchResult> PartitionAtATimePass(
    sim::Device* device, BucketChains* in_chains, BucketChains* out,
    uint64_t in_tuples, int shift, int bits,
    const RadixPartitionConfig& config, const sim::LaunchConfig& launch) {
  BucketChains& in = *in_chains;
  const uint32_t parents = in.num_partitions();
  const uint32_t subfanout = 1u << bits;
  const uint32_t capacity = in.bucket_capacity();
  const size_t num_blocks = static_cast<size_t>(launch.num_blocks);
  const int scatter_tuples =
      util::ResolveScatterBufferTuples(config.scatter_buffer_tuples);
  std::vector<std::vector<uint32_t>> block_parents(num_blocks);
  for (uint32_t p = 0; p < parents; ++p) {
    if (in.heads()[p] != BucketChains::kNull) {
      block_parents[p % num_blocks].push_back(p);
    }
  }
  std::vector<std::vector<PendingSegment>> pending(num_blocks);
  std::vector<util::ScatterBuffers::Counters> scatter_counters(num_blocks);

  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      device->Launch(launch, [&](sim::Block& block) {
        const size_t id = static_cast<size_t>(block.block_id());
        if (block_parents[id].empty()) return;
        util::ScatterBuffers& sb = ScatterScratch();
        sb.Init(subfanout, scatter_tuples);
        BlockLocalChains local;
        if (!local.Alloc(&block, subfanout, config.stage_elems)) return;
        for (const uint32_t parent : block_parents[id]) {
          local.ResetMeta(&block);
          int32_t b = in.heads()[parent];
          while (b != BucketChains::kNull) {
            const int32_t next_b = in.next()[b];  // before recycling b
            const size_t base = static_cast<size_t>(b) * capacity;
            const uint32_t count = in.fill()[b];
            // Chain hop + coalesced scan of the bucket's tuples.
            block.ChargeRandomAccess(1, 8ull * in_tuples);
            block.ChargeCoalescedRead(8ull * count);
            block.ChargeCycles(static_cast<uint64_t>(
                static_cast<double>(count) * kCyclesPerElement));
            const uint32_t* bkeys = in.keys() + base;
            const uint32_t* bpays = in.payloads() + base;
            for (uint32_t t = 0; t < count; ++t) {
              const uint32_t sub = util::RadixOf(bkeys[t], shift, bits);
              if (sb.Push(sub, bkeys[t], bpays[t])) {
                const util::ScatterBuffers::RunView run = sb.Run(sub);
                local.AppendRun(&block, out, sub, run.keys, run.pays,
                                run.count);
                sb.Clear(sub);
              }
            }
            // Staged copies make later pool reuse safe; free only after
            // the bucket's tuples are read.
            in.FreeBucket(b);
            block.ChargeDeviceAtomic(1);
            b = next_b;
          }
          sb.DrainAll([&](uint32_t sub, util::ScatterBuffers::RunView run) {
            local.AppendRun(&block, out, sub, run.keys, run.pays,
                            run.count);
          });
          local.Finish(&block, out, parent << bits, &pending[id]);
        }
        scatter_counters[id] = sb.TakeCounters();
        util::StreamFence();
      }));
  SpliceSegments(out, pending);
  PublishScatterCounters(config, scatter_counters);
  return result;
}

}  // namespace

util::Result<PartitionedRelation> RadixPartitionNextPass(
    sim::Device* device, PartitionedRelation prev, int shift, int bits,
    const RadixPartitionConfig& config) {
  GJOIN_RETURN_NOT_OK(ValidatePass(config, shift, bits));
  const uint32_t subfanout = 1u << bits;
  const size_t smem_needed =
      BlockLocalSharedBytes(subfanout, config.stage_elems);
  if (smem_needed > device->spec().gpu.shared_mem_per_block) {
    return util::Status::Invalid("sub-partitioning fanout too large");
  }

  // The pass owns `prev`, so recycling consumed input buckets back into
  // the shared pool is a sanctioned mutation (no caller can observe the
  // drained input chains afterwards). Output chains share the input's
  // pool: consumed input buckets are recycled into output buckets,
  // keeping the footprint near the data size. The pool must still have
  // headroom for one partial bucket per child plus in-flight buckets;
  // RadixPartition sizes it accordingly.
  BucketChains& in = prev.chains;
  GJOIN_ASSIGN_OR_RETURN(
      BucketChains chains,
      BucketChains::Allocate(&device->memory(), in.num_partitions() << bits,
                             in.pool()));

  sim::LaunchConfig launch;
  launch.name = "radix_partition_pass2";
  launch.num_blocks =
      config.num_blocks != 0
          ? config.num_blocks
          : device->spec().gpu.num_sms * device->spec().gpu.blocks_per_sm;
  launch.threads_per_block = config.threads_per_block;
  launch.shared_mem_bytes = device->spec().gpu.shared_mem_per_block;
  GJOIN_ASSIGN_OR_RETURN(
      sim::LaunchResult result,
      config.assignment == WorkAssignment::kBucketAtATime
          ? BucketAtATimePass(device, &in, &chains, prev.tuples, shift, bits,
                              config, launch)
          : PartitionAtATimePass(device, &in, &chains, prev.tuples, shift,
                                 bits, config, launch));

  PartitionedRelation out;
  out.chains = std::move(chains);
  out.radix_bits = prev.radix_bits + bits;
  out.base_shift = prev.base_shift;
  out.tuples = prev.tuples;
  out.seconds = prev.seconds + result.seconds;
  out.pass_seconds = std::move(prev.pass_seconds);
  out.pass_seconds.push_back(result.seconds);
  return out;
}

namespace {

/// Shared driver: `host_input` + `segments` selects the segmented path,
/// `chunked` the chunk-consuming path; otherwise `device_input` is used
/// (freed after pass 1 when `consume`).
util::Result<PartitionedRelation> RadixPartitionImpl(
    sim::Device* device, const DeviceRelation* device_input,
    DeviceRelation* consume, const data::Relation* host_input, int segments,
    ChunkedDeviceInput* chunked, const RadixPartitionConfig& config) {
  if (config.pass_bits.empty()) {
    return util::Status::Invalid("RadixPartition: no passes configured");
  }
  int pass_shift = config.base_shift;
  for (const int bits : config.pass_bits) {
    GJOIN_RETURN_NOT_OK(ValidatePass(config, pass_shift, bits));
    pass_shift += bits;
  }
  if (config.total_bits() > 31) {
    return util::Status::Invalid(
        "RadixPartitionConfig.pass_bits: " +
        std::to_string(config.total_bits()) +
        " total bits exceed the 31 a partition count holds");
  }
  const uint64_t n = host_input != nullptr ? host_input->size()
                     : chunked != nullptr ? chunked->size()
                                          : device_input->size;
  RadixPartitionConfig cfg = config;
  const int num_blocks =
      cfg.num_blocks != 0
          ? cfg.num_blocks
          : device->spec().gpu.num_sms * device->spec().gpu.blocks_per_sm;
  const uint32_t fanout1 = 1u << cfg.pass_bits[0];
  if (cfg.bucket_capacity == 0) {
    cfg.bucket_capacity = AutoBucketCapacity(n, config.num_partitions());
    // Cap by expected per-producer output: pass 1 creates at least one
    // bucket per (block, partition) pair, and the final pass at least one
    // per partition, so over-large buckets on small inputs waste pool
    // storage without improving coalescing.
    const uint64_t per_producer = std::max<uint64_t>(
        32, util::NextPowerOfTwo(
                std::max<uint64_t>(1, n / (static_cast<uint64_t>(num_blocks) *
                                           fanout1))));
    const uint64_t per_final = std::max<uint64_t>(
        32, util::NextPowerOfTwo(std::max<uint64_t>(
                1, 2 * n / config.num_partitions())));
    cfg.bucket_capacity = static_cast<uint32_t>(std::min<uint64_t>(
        cfg.bucket_capacity, std::min(per_producer, per_final)));
  }

  // One pool for all passes: data buckets + block-private partials of
  // pass 1 (each segment's producers publish their own partials, bounded
  // by blocks x fanout per segment) + one partial per final child +
  // slack for in-flight recycling.
  const uint64_t seg_count =
      host_input != nullptr ? std::max<uint64_t>(1, segments) : 1;
  const uint64_t per_seg = CeilDiv(n, seg_count);
  const uint64_t producer_slack =
      std::min<uint64_t>(static_cast<uint64_t>(num_blocks) * fanout1,
                         per_seg) *
      seg_count;
  const uint32_t pool_buckets = static_cast<uint32_t>(
      CeilDiv(n, cfg.bucket_capacity) + producer_slack +
      cfg.num_partitions() + 128);
  GJOIN_ASSIGN_OR_RETURN(
      std::shared_ptr<BucketPool> pool,
      BucketPool::Allocate(&device->memory(), pool_buckets,
                           cfg.bucket_capacity));
  GJOIN_ASSIGN_OR_RETURN(
      BucketChains chains,
      BucketChains::Allocate(&device->memory(), fanout1, std::move(pool)));

  PartitionedRelation rel;
  rel.chains = std::move(chains);
  rel.radix_bits = cfg.pass_bits[0];
  rel.base_shift = cfg.base_shift;

  if (host_input != nullptr) {
    const size_t seg_tuples = CeilDiv(n, std::max(segments, 1));
    for (size_t begin = 0; begin < n; begin += seg_tuples) {
      const size_t end = std::min<size_t>(n, begin + seg_tuples);
      // Upload the segment straight from the host columns — no
      // intermediate host copy.
      GJOIN_ASSIGN_OR_RETURN(
          DeviceRelation seg_dev,
          DeviceRelation::Upload(
              device, data::RelationView::Slice(*host_input, begin, end)));
      GJOIN_ASSIGN_OR_RETURN(
          rel, RadixPartitionFirstPass(device, seg_dev, cfg.base_shift,
                                       cfg.pass_bits[0], cfg, &rel));
      // seg_dev freed at scope exit: only one segment is ever resident.
    }
  } else if (chunked != nullptr) {
    // Same single launch as the contiguous path, walking the chunks in
    // place; each chunk is freed once its last reader block finishes.
    GJOIN_ASSIGN_OR_RETURN(
        rel, FirstPassOverSource(device, ChunkedPassSource{chunked},
                                 static_cast<size_t>(n), cfg.base_shift,
                                 cfg.pass_bits[0], cfg, &rel));
  } else {
    GJOIN_ASSIGN_OR_RETURN(
        rel, RadixPartitionFirstPass(device, *device_input, cfg.base_shift,
                                     cfg.pass_bits[0], cfg, &rel));
    if (consume != nullptr) {
      consume->keys.Reset();
      consume->payloads.Reset();
    }
  }

  int shift = cfg.base_shift + cfg.pass_bits[0];
  for (size_t pass = 1; pass < cfg.pass_bits.size(); ++pass) {
    GJOIN_ASSIGN_OR_RETURN(
        rel, RadixPartitionNextPass(device, std::move(rel), shift,
                                    cfg.pass_bits[pass], cfg));
    shift += cfg.pass_bits[pass];
  }
  return rel;
}

}  // namespace

util::Result<PartitionedRelation> RadixPartition(
    sim::Device* device, const DeviceRelation& input,
    const RadixPartitionConfig& config) {
  return RadixPartitionImpl(device, &input, nullptr, nullptr, 0, nullptr,
                            config);
}

util::Result<PartitionedRelation> RadixPartitionConsuming(
    sim::Device* device, DeviceRelation input,
    const RadixPartitionConfig& config) {
  return RadixPartitionImpl(device, &input, &input, nullptr, 0, nullptr,
                            config);
}

util::Result<PartitionedRelation> RadixPartitionChunkedConsuming(
    sim::Device* device, ChunkedDeviceInput input,
    const RadixPartitionConfig& config) {
  return RadixPartitionImpl(device, nullptr, nullptr, nullptr, 0, &input,
                            config);
}

util::Result<PartitionedRelation> RadixPartitionSegmented(
    sim::Device* device, const data::Relation& input,
    const RadixPartitionConfig& config, int segments) {
  return RadixPartitionImpl(device, nullptr, nullptr, &input, segments,
                            nullptr, config);
}

}  // namespace gjoin::gpujoin
