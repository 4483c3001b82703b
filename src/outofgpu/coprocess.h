// Out-of-GPU execution strategy 2: CPU-GPU co-processing
// (Sections IV-B/C/D, Figures 3, 12, 13, 16, 18, 20).
//
// Neither relation fits in GPU memory. The host radix-partitions both
// relations (16-way by default) into co-partitions small enough that a
// working set of them fits the GPU; working sets are chosen by the
// knapsack/greedy packer of Section IV-D. Execution pipelines three
// engines (Figure 3):
//   CPU   — chunk partitioning (first working set) and, afterwards,
//           NUMA staging copies from the far socket into near-socket
//           pinned buffers (Section IV-B);
//   H2D   — DMA transfers of the working set's partitions, derated by
//           the NUMA arbitration when CPU traffic saturates the near
//           socket's memory bandwidth;
//   GPU   — the in-GPU partitioned join over each working set (with
//           base_shift so GPU passes consume bits above the CPU's);
//   D2H   — result materialization on the second DMA engine (IV-C).
//
// Functional note: working sets are *planned* against the real simulated
// device capacity, but each working set's join executes batched on a
// scratch device with relaxed capacity — in the real system the S side
// streams through a fixed buffer, which changes nothing about the join
// results or per-tuple kernel work, only peak residency.

#ifndef GJOIN_OUTOFGPU_COPROCESS_H_
#define GJOIN_OUTOFGPU_COPROCESS_H_

#include "src/cpu/cpu_partition.h"
#include "src/data/relation.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/outofgpu/working_set.h"
#include "src/sim/device.h"
#include "src/sim/timeline.h"
#include "src/util/status.h"

namespace gjoin::outofgpu {

/// \brief Configuration of the co-processing strategy.
struct CoProcessConfig {
  /// Host partitioning (paper: 16-way with 16 threads).
  cpu::CpuPartitionConfig cpu;

  /// GPU-side join; base_shift is set internally to cpu.radix_bits.
  gjoin::gpujoin::PartitionedJoinConfig join;

  /// Working-set packing; budget_bytes 0 = 45% of device memory (the
  /// rest holds stream buffers, chains and output).
  WorkingSetConfig packing;

  /// Pipeline chunk granularity in tuples (timing only).
  size_t chunk_tuples = 4 << 20;

  /// Materialize results to the host (vs aggregate on GPU).
  bool materialize_to_host = false;

  /// Stage far-socket data into near-socket pinned memory with CPU
  /// threads before DMA (Section IV-B); false = direct far-socket DMA
  /// over the congested QPI (the Fig. 16 baseline).
  bool staging = true;

  /// Fraction of the input resident on the far socket.
  double far_socket_fraction = 0.5;

  /// Input bytes whose CPU pre-partitioning an earlier query of the same
  /// session already performed on a shared relation (subtracted from the
  /// first working set's CPU phase when timing the pipeline). Timing
  /// only: functional sharing is the caller passing precomputed
  /// HostPartitions to PlanCoProcessJoinShared.
  uint64_t prepartitioned_bytes = 0;
};

/// Runs the co-processing join over two host relations.
[[nodiscard]]
util::Result<gjoin::gpujoin::JoinStats> CoProcessJoin(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const CoProcessConfig& config);

/// \brief The functional half of a co-processing run: host partitioning,
/// working-set packing and every per-set GPU join, none of which depend
/// on the pipeline's resource parameters (CPU thread count, staging
/// policy, NUMA layout). Thread-scaling sweeps plan once and re-time the
/// pipeline per configuration.
struct CoProcessPlan {
  struct WorkingSetRun {
    uint64_t matches = 0;
    uint64_t payload_sum = 0;
    double gpu_seconds = 0;       ///< Modeled in-GPU time of this set.
    double join_s = 0;            ///< ... its co-partition join share.
    double partition_s = 0;       ///< ... its GPU partitioning share.
    uint64_t transfer_bytes = 0;  ///< H2D bytes including S re-streams.
    size_t set_index = 0;         ///< Position in the packed set list
                                  ///< (empty sets are skipped, so this
                                  ///< can have gaps; the whole-input CPU
                                  ///< partitioning phase belongs to set
                                  ///< 0 specifically).
  };
  std::vector<WorkingSetRun> runs;
  uint64_t total_input_bytes = 0;
};

/// Executes the functional phase once (config's pipeline parameters are
/// ignored except cpu partitioning geometry, packing and the GPU join
/// config). Host partitions can be shared across queries: when
/// `build_parts`/`probe_parts` is non-null it must be
/// CpuRadixPartition(build/probe, config.cpu) and is reused instead of
/// re-partitioning (CPU pre-partitioning is deterministic, so one
/// partitioned form serves every query over the relation); it is
/// rejected with kInvalid unless it holds 2^config.cpu.radix_bits
/// partitions whose key and payload columns agree in length. When an
/// input *was* partitioned here and the matching `out_*` pointer is
/// non-null, the fresh partitions are moved out for the caller to cache.
/// The returned plan does not depend on which inputs were shared.
[[nodiscard]]
util::Result<CoProcessPlan> PlanCoProcessJoinShared(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const CoProcessConfig& config,
    const cpu::HostPartitions* build_parts = nullptr,
    const cpu::HostPartitions* probe_parts = nullptr,
    cpu::HostPartitions* out_build_parts = nullptr,
    cpu::HostPartitions* out_probe_parts = nullptr);

/// Plans from already host-partitioned inputs, consuming them: each
/// working set's partition columns are staged chunk-wise into the GPU
/// join (gpujoin::ChunkedDeviceInput) and released as the join's first
/// pass reads them, so peak residency is the partitioned input — never
/// input plus a concatenated working-set copy. `build_parts` /
/// `probe_parts` must be what CpuRadixPartition(build/probe, config.cpu)
/// returns (StreamingCpuPartitioner produces exactly that without ever
/// materializing the relations), and are checked as in
/// PlanCoProcessJoinShared. The returned plan is bit-identical to
/// PlanCoProcessJoinShared over the original relations.
[[nodiscard]]
util::Result<CoProcessPlan> PlanCoProcessJoinConsuming(
    sim::Device* device, cpu::HostPartitions build_parts,
    cpu::HostPartitions probe_parts, const CoProcessConfig& config);

/// \brief A timed co-processing pipeline: finalized stats plus the op
/// DAG they were timed on (consumed by the multi-query session
/// scheduler, which re-emits the ops into a shared device timeline).
struct CoProcessRun {
  gjoin::gpujoin::JoinStats stats;
  sim::Timeline timeline;  ///< Solo op DAG (stats.seconds = makespan).
};

/// Times the pipeline of a prepared plan under `config` and returns the
/// stats together with the op DAG. The stats equal CoProcessJoin(device,
/// build, probe, config)'s when the plan was built with the same
/// partitioning, packing and join configuration.
[[nodiscard]]
util::Result<CoProcessRun> CoProcessExecutePlanned(
    sim::Device* device, const CoProcessPlan& plan,
    const CoProcessConfig& config);

}  // namespace gjoin::outofgpu

#endif  // GJOIN_OUTOFGPU_COPROCESS_H_
