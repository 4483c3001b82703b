// Out-of-GPU execution strategy 1: streaming the probe side
// (Section IV-A, Figure 11).
//
// The build relation fits in GPU memory: it is transferred once and
// partitioned in place. The probe relation is split into chunks ("half
// the size of the build table" by default, as in the paper's
// experiments); each chunk is DMA-transferred into one of two device
// buffers while the previous chunk is partitioned and joined against the
// resident build partitions — the double-buffered pipeline of Figure 2.
// With materialization, results flow back on the second DMA engine
// (Figure 4). Total time is the Timeline makespan: when transfers are
// the bottleneck, it approaches transfer-time + last-chunk-join, giving
// near-PCIe-bandwidth join throughput.
//
// On the host, the resident build's per-partition tables stay resident
// too: one gpujoin::BuildTableCache per call gathers each build
// co-partition (of at least hash_slots / 8 tuples) out of its bucket
// chains and links its probe table the first time a chunk walks it, and
// every later chunk probes it from there (the survivors of a
// materializing chunk are enumerated from it too). The cache lives for the call and is freed when it returns, so
// its memory follows the one build being streamed against: about one
// more host copy of the build (8 bytes per tuple) plus the tables,
// 2 bytes per tuple and 2 * hash_slots bytes per cached co-partition
// for the shared-memory hash. Charges do not move: every chunk's kernel
// still reloads each R_p into shared memory and rebuilds its table.

#ifndef GJOIN_OUTOFGPU_STREAMING_PROBE_H_
#define GJOIN_OUTOFGPU_STREAMING_PROBE_H_

#include "src/data/relation.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/sim/device.h"
#include "src/sim/timeline.h"
#include "src/util/status.h"

namespace gjoin::outofgpu {

/// \brief Configuration of the streaming-probe strategy.
struct StreamingProbeConfig {
  /// GPU-side partitioning/join parameters.
  gpujoin::PartitionedJoinConfig join;

  /// Probe chunk size in tuples; 0 = half the build cardinality (the
  /// paper's setting).
  size_t chunk_tuples = 0;

  /// Materialize results and transfer them to the host (the
  /// "Materialization" series of Fig. 11); false aggregates on-GPU.
  bool materialize_to_host = false;
};

/// \brief One functionally-executed streaming-probe run: finalized stats
/// plus the op DAG they were timed on.
///
/// A single query only needs `stats`; the multi-query session scheduler
/// re-emits `timeline`'s ops into a shared device timeline, substituting
/// `build_h2d`/`build_part` with the ops of whichever query materialized
/// the shared prepared build first.
struct StreamingProbeRun {
  gpujoin::JoinStats stats;
  sim::Timeline timeline;       ///< Solo op DAG (stats.seconds = makespan).
  sim::OpId build_h2d = -1;     ///< Build-side upload op.
  sim::OpId build_part = -1;    ///< Build-side partitioning op.
};

/// Runs the streaming-probe join: `build` must fit in device memory,
/// `probe` streams from the host. Returns verified counts and modeled
/// pipeline timing (stats.seconds = makespan; transfer_s / join_s =
/// engine busy times) plus the solo op DAG. When `prepared` is non-null
/// it must be PreparePartitionedBuild(device, build, config.join): the
/// resident partitioned build is reused instead of re-uploading and
/// re-partitioning, while the returned stats and DAG remain identical to
/// a standalone run (partitioning is deterministic).
[[nodiscard]]
util::Result<StreamingProbeRun> StreamingProbeExecute(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const StreamingProbeConfig& config,
    const gpujoin::PreparedBuild* prepared = nullptr);

}  // namespace gjoin::outofgpu

#endif  // GJOIN_OUTOFGPU_STREAMING_PROBE_H_
