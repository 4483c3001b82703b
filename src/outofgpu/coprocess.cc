#include "src/outofgpu/coprocess.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/hw/numa.h"
#include "src/hw/pcie.h"
#include "src/sim/timeline.h"
#include "src/util/bits.h"
#include "src/util/thread_pool.h"

namespace gjoin::outofgpu {

using gjoin::gpujoin::JoinStats;
using gjoin::gpujoin::OutputMode;

namespace {

/// Rejects pipeline parameters the timing model cannot use: a zero chunk
/// size divides by zero, and a far-socket fraction outside [0, 1] makes
/// a socket's share of the bytes negative.
util::Status ValidatePipelineConfig(const CoProcessConfig& config) {
  if (config.chunk_tuples == 0) {
    return util::Status::Invalid("chunk_tuples must be positive");
  }
  if (!(config.far_socket_fraction >= 0.0 &&
        config.far_socket_fraction <= 1.0)) {
    return util::Status::Invalid(
        "far_socket_fraction must lie in [0, 1], got " +
        std::to_string(config.far_socket_fraction));
  }
  return util::Status::OK();
}

/// Rejects host partitions the working-set planner cannot read: StageSet
/// takes partition p of both sides for every build partition p, so each
/// side needs 2^config.cpu.radix_bits of them, and a join uploads
/// size() = keys.size() payloads of each.
util::Status ValidateHostPartitions(const cpu::HostPartitions& parts,
                                    const CoProcessConfig& config,
                                    const std::string& side) {
  const int bits = config.cpu.radix_bits;
  if (parts.radix_bits != bits || bits < 0 || bits >= 32 ||
      parts.parts.size() != size_t{1} << bits) {
    return util::Status::Invalid(
        side + " partitions: " + std::to_string(parts.parts.size()) +
        " partitions of radix_bits " + std::to_string(parts.radix_bits) +
        " do not match config.cpu.radix_bits " + std::to_string(bits));
  }
  for (size_t p = 0; p < parts.parts.size(); ++p) {
    const data::Relation& part = parts.parts[p];
    if (!part.ColumnsMatch()) {
      return util::Status::Invalid(
          side + " partition " + std::to_string(p) + " has " +
          std::to_string(part.keys.size()) + " keys but " +
          std::to_string(part.payloads.size()) + " payloads");
    }
  }
  return util::Status::OK();
}

/// Stages partitions `which` of `parts` as the chunks of one working
/// set's GPU input, in that order. With `owned` (aliasing `parts`) the
/// columns are moved out, leaving empty shells; otherwise they are
/// copied, one partition per pool task. The copies are allocated on the
/// calling thread: allocated on the workers, they land in per-thread
/// malloc arenas, which hold on to freed memory and raise peak RSS.
gjoin::gpujoin::ChunkedDeviceInput StageSet(const cpu::HostPartitions& parts,
                                            cpu::HostPartitions* owned,
                                            const std::vector<uint32_t>& which,
                                            util::ThreadPool* pool) {
  std::vector<data::Relation> copies;
  if (owned == nullptr) {
    copies.resize(which.size());
    for (size_t j = 0; j < which.size(); ++j) {
      copies[j].keys.reserve(parts.parts[which[j]].size());
      copies[j].payloads.reserve(parts.parts[which[j]].size());
    }
    pool->ParallelForRanges(
        which.size(), [&](size_t /*worker*/, size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            const data::Relation& part = parts.parts[which[j]];
            copies[j].keys.assign(part.keys.begin(), part.keys.end());
            copies[j].payloads.assign(part.payloads.begin(),
                                      part.payloads.end());
          }
        });
  }
  gjoin::gpujoin::ChunkedDeviceInput in;
  for (size_t j = 0; j < which.size(); ++j) {
    data::Relation& part =
        owned != nullptr ? owned->parts[which[j]] : copies[j];
    in.Add(std::move(part.keys), std::move(part.payloads));
  }
  return in;
}

/// Phases 2 and 3 of planning, shared by both entry points: packs the
/// build side's partitions into working sets and joins each set on a
/// scratch device. `owned_build`/`owned_probe` are null (copy each set's
/// partitions) or alias `r_parts`/`s_parts` (consume them).
util::Result<CoProcessPlan> PlanWorkingSets(
    sim::Device* device, const cpu::HostPartitions& r_parts,
    const cpu::HostPartitions& s_parts, cpu::HostPartitions* owned_build,
    cpu::HostPartitions* owned_probe, const CoProcessConfig& config) {
  const hw::HardwareSpec& spec = device->spec();

  // ---- 2. Working sets from the build side's partition sizes ----
  WorkingSetConfig packing = config.packing;
  if (packing.budget_bytes == 0) {
    packing.budget_bytes = static_cast<uint64_t>(
        static_cast<double>(spec.gpu.device_memory_bytes) * 0.45);
  }
  std::vector<uint64_t> part_bytes(r_parts.parts.size());
  for (size_t p = 0; p < r_parts.parts.size(); ++p) {
    part_bytes[p] = r_parts.parts[p].bytes();
  }
  GJOIN_ASSIGN_OR_RETURN(std::vector<WorkingSet> sets,
                         PackWorkingSets(part_bytes, packing));

  // ---- 3. Per-working-set functional join ----
  // Functional execution batches each working set on a scratch device
  // with relaxed capacity (see header); planning used the real budget.
  sim::Device scratch = sim::RelaxedCapacityDevice(*device);

  gjoin::gpujoin::PartitionedJoinConfig join_cfg = config.join;
  join_cfg.partition.base_shift = config.cpu.radix_bits;
  join_cfg.join.output = config.materialize_to_host
                             ? OutputMode::kMaterialize
                             : OutputMode::kAggregate;
  if (join_cfg.join.key_bits == 0) {
    // Partitioning permutes the keys, so the max over the partitions is
    // the max over the original relation.
    uint32_t max_key = 0;
    for (const data::Relation& part : r_parts.parts) {
      for (uint32_t k : part.keys) max_key = std::max(max_key, k);
    }
    join_cfg.join.key_bits = gjoin::gpujoin::KeyBitsFor(max_key);
  }

  CoProcessPlan plan;
  plan.total_input_bytes =
      (r_parts.tuples + s_parts.tuples) * data::Relation::kTupleBytes;
  for (size_t set_index = 0; set_index < sets.size(); ++set_index) {
    const WorkingSet& ws = sets[set_index];
    // Each side's first partitioning pass walks and frees its staged
    // chunks; consumed partitions are released even when the set is
    // skipped as empty.
    gjoin::gpujoin::ChunkedDeviceInput r_in =
        StageSet(r_parts, owned_build, ws.partitions, device->pool());
    gjoin::gpujoin::ChunkedDeviceInput s_in =
        StageSet(s_parts, owned_probe, ws.partitions, device->pool());
    const size_t s_tuples = s_in.size();
    const uint64_t r_bytes = r_in.size() * data::Relation::kTupleBytes;
    const uint64_t s_bytes = s_tuples * data::Relation::kTupleBytes;
    if (r_bytes == 0 || s_bytes == 0) continue;

    GJOIN_ASSIGN_OR_RETURN(
        gjoin::gpujoin::PartitionedRelation r_parted,
        gjoin::gpujoin::RadixPartitionChunkedConsuming(
            &scratch, std::move(r_in), join_cfg.partition));
    GJOIN_ASSIGN_OR_RETURN(
        gjoin::gpujoin::PartitionedRelation s_parted,
        gjoin::gpujoin::RadixPartitionChunkedConsuming(
            &scratch, std::move(s_in), join_cfg.partition));
    GJOIN_ASSIGN_OR_RETURN(
        JoinStats ws_join,
        gjoin::gpujoin::JoinPartitioned(&scratch, r_parted, s_parted,
                                        join_cfg, s_tuples));

    // Oversized singleton sets: the R side exceeds the budget, so S is
    // re-streamed once per budget-sized R slice (GPU sub-partitioning,
    // Section IV-B) — the skew penalty of Fig. 18.
    const uint64_t restreams =
        std::max<uint64_t>(1, util::CeilDiv(ws.bytes, packing.budget_bytes));

    CoProcessPlan::WorkingSetRun run;
    run.matches = ws_join.matches;
    run.payload_sum = ws_join.payload_sum;
    run.gpu_seconds = ws_join.seconds;
    run.join_s = ws_join.join_s;
    run.partition_s = ws_join.partition_s;
    run.transfer_bytes = r_bytes + s_bytes * restreams;
    run.set_index = set_index;
    plan.runs.push_back(run);
  }
  return plan;
}

}  // namespace

util::Result<CoProcessPlan> PlanCoProcessJoinShared(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const CoProcessConfig& config,
    const cpu::HostPartitions* build_parts,
    const cpu::HostPartitions* probe_parts,
    cpu::HostPartitions* out_build_parts,
    cpu::HostPartitions* out_probe_parts) {
  const hw::CpuCostModel cpu_model(device->spec().cpu);

  // ---- 1. Host partitioning (functional), shared when precomputed ----
  cpu::HostPartitions r_local, s_local;
  if (build_parts != nullptr) {
    GJOIN_RETURN_NOT_OK(ValidateHostPartitions(*build_parts, config, "build"));
  } else {
    GJOIN_ASSIGN_OR_RETURN(
        r_local, cpu::CpuRadixPartition(build, config.cpu, cpu_model));
    build_parts = &r_local;
  }
  if (probe_parts != nullptr) {
    GJOIN_RETURN_NOT_OK(ValidateHostPartitions(*probe_parts, config, "probe"));
  } else {
    GJOIN_ASSIGN_OR_RETURN(
        s_local, cpu::CpuRadixPartition(probe, config.cpu, cpu_model));
    probe_parts = &s_local;
  }
  GJOIN_ASSIGN_OR_RETURN(CoProcessPlan plan,
                         PlanWorkingSets(device, *build_parts, *probe_parts,
                                         nullptr, nullptr, config));

  // Hand freshly-computed partitions to the caller's cache.
  if (out_build_parts != nullptr && build_parts == &r_local) {
    *out_build_parts = std::move(r_local);
  }
  if (out_probe_parts != nullptr && probe_parts == &s_local) {
    *out_probe_parts = std::move(s_local);
  }
  return plan;
}

util::Result<CoProcessPlan> PlanCoProcessJoinConsuming(
    sim::Device* device, cpu::HostPartitions build_parts,
    cpu::HostPartitions probe_parts, const CoProcessConfig& config) {
  GJOIN_RETURN_NOT_OK(ValidateHostPartitions(build_parts, config, "build"));
  GJOIN_RETURN_NOT_OK(ValidateHostPartitions(probe_parts, config, "probe"));
  // Phase 1, host partitioning, happened at the caller — typically fed
  // chunk-at-a-time by a streaming generator.
  return PlanWorkingSets(device, build_parts, probe_parts, &build_parts,
                         &probe_parts, config);
}

util::Result<CoProcessRun> CoProcessExecutePlanned(
    sim::Device* device, const CoProcessPlan& plan,
    const CoProcessConfig& config) {
  GJOIN_RETURN_NOT_OK(ValidatePipelineConfig(config));
  const hw::HardwareSpec& spec = device->spec();
  const hw::CpuCostModel cpu_model(spec.cpu);
  const hw::NumaModel numa(spec.cpu);
  const hw::PcieModel pcie(spec.pcie);

  // ---- NUMA arbitration for the two pipeline phases ----
  const double nominal_dma = spec.pcie.bw_gbps;
  const double part_output = cpu_model.PartitionOutputGbps(config.cpu.threads);
  // Partitioning traffic landing on the near socket (roughly half the
  // threads are near-socket-local).
  hw::NumaLoad phase_a_load;
  phase_a_load.dma_gbps = nominal_dma;
  // ~80% of a near-socket thread's partitioning traffic lands on its own
  // socket (local reads + pinned-buffer writes for the working set).
  phase_a_load.partition_gbps =
      cpu_model.PartitionTrafficDemandGbps(config.cpu.threads) *
      (1.0 - config.far_socket_fraction) * 0.8;
  const hw::NumaGrant grant_a = numa.Arbitrate(phase_a_load);

  hw::NumaLoad phase_b_load;
  phase_b_load.dma_gbps = nominal_dma;
  phase_b_load.staging_gbps =
      config.staging ? nominal_dma * config.far_socket_fraction : 0.0;
  const hw::NumaGrant grant_b = numa.Arbitrate(phase_b_load);

  // Effective transfer-rate scales. Without staging, the far-socket
  // share of the data crosses the congested QPI directly.
  const double far_scale_direct = numa.FarSocketDmaScale(
      nominal_dma, /*cpu_active=*/true);
  auto h2d_seconds = [&](uint64_t bytes, bool first_set) {
    const double near_scale = first_set ? grant_a.dma_scale
                                        : grant_b.dma_scale;
    if (config.staging) {
      // All DMA reads hit near-socket pinned buffers.
      return pcie.DmaSeconds(bytes, near_scale);
    }
    const double far_bytes =
        static_cast<double>(bytes) * config.far_socket_fraction;
    const double near_bytes = static_cast<double>(bytes) - far_bytes;
    return pcie.DmaSeconds(static_cast<uint64_t>(near_bytes), near_scale) +
           pcie.DmaSeconds(static_cast<uint64_t>(far_bytes),
                           far_scale_direct);
  };

  // CPU-side rates.
  const double cpu_part_gbps = part_output * grant_a.cpu_scale;
  const double staging_gbps = numa.StagingCopyGbps(config.cpu.threads);

  CoProcessRun run;
  JoinStats& stats = run.stats;
  sim::Timeline& timeline = run.timeline;
  std::vector<sim::OpId> gpu_ops;
  sim::OpId last_cpu_op = -1;

  const uint64_t chunk_bytes =
      static_cast<uint64_t>(config.chunk_tuples) * data::Relation::kTupleBytes;

  for (const CoProcessPlan::WorkingSetRun& run : plan.runs) {
    // The whole-input CPU-partitioning phase belongs to packed set 0; if
    // that set was empty (skipped during planning), it is dropped —
    // exactly as the un-split implementation behaved.
    const bool first_set = run.set_index == 0;
    stats.matches += run.matches;
    stats.payload_sum += run.payload_sum;

    const uint64_t ws_out_bytes =
        config.materialize_to_host ? run.matches * 8 : 0;

    // Chunked pipeline ops. During the first working set the CPU stage
    // is the chunk partitioning of the *entire* input; afterwards it is
    // the staging copy of this set's transfer bytes.
    const uint64_t cpu_phase_bytes =
        first_set ? plan.total_input_bytes -
                        std::min(config.prepartitioned_bytes,
                                 plan.total_input_bytes)
                  : (config.staging
                         ? static_cast<uint64_t>(
                               static_cast<double>(run.transfer_bytes) *
                               config.far_socket_fraction)
                         : 0);
    const double cpu_rate = first_set ? cpu_part_gbps : staging_gbps;

    const uint64_t num_chunks = std::max<uint64_t>(
        1, util::CeilDiv(run.transfer_bytes, chunk_bytes));
    const double gpu_chunk_s =
        run.gpu_seconds / static_cast<double>(num_chunks);
    const double h2d_chunk_s =
        h2d_seconds(run.transfer_bytes, first_set) /
        static_cast<double>(num_chunks);
    const double cpu_chunk_s =
        cpu_phase_bytes == 0
            ? 0.0
            : static_cast<double>(cpu_phase_bytes) /
                  (cpu_rate * 1e9) / static_cast<double>(num_chunks);
    const double d2h_chunk_s =
        ws_out_bytes == 0 ? 0.0
                          : pcie.DmaSeconds(ws_out_bytes) /
                                static_cast<double>(num_chunks);

    for (uint64_t c = 0; c < num_chunks; ++c) {
      std::vector<sim::OpId> h2d_deps;
      if (cpu_chunk_s > 0) {
        std::vector<sim::OpId> cpu_deps;
        if (last_cpu_op >= 0) cpu_deps.push_back(last_cpu_op);
        last_cpu_op = timeline.Add(sim::Engine::kCpu, cpu_chunk_s, cpu_deps,
                                   first_set ? "cpu:partition" : "cpu:stage");
        h2d_deps.push_back(last_cpu_op);
      }
      if (gpu_ops.size() >= 2) {
        h2d_deps.push_back(gpu_ops[gpu_ops.size() - 2]);  // buffer free
      }
      const sim::OpId h2d = timeline.Add(sim::Engine::kCopyH2D, h2d_chunk_s,
                                         h2d_deps, "h2d:ws");
      const sim::OpId gpu = timeline.Add(sim::Engine::kComputeGpu,
                                         gpu_chunk_s, {h2d}, "gpu:join");
      gpu_ops.push_back(gpu);
      if (d2h_chunk_s > 0) {
        timeline.Add(sim::Engine::kCopyD2H, d2h_chunk_s, {gpu},
                     "d2h:results");
      }
    }
    stats.join_s += run.join_s;
    stats.partition_s += run.partition_s;
  }

  GJOIN_ASSIGN_OR_RETURN(sim::Schedule schedule, timeline.Run());
  stats.seconds = schedule.makespan_s;
  stats.transfer_s = schedule.busy_s[static_cast<int>(sim::Engine::kCopyH2D)] +
                     schedule.busy_s[static_cast<int>(sim::Engine::kCopyD2H)];
  stats.cpu_s = schedule.busy_s[static_cast<int>(sim::Engine::kCpu)];
  return run;
}

util::Result<JoinStats> CoProcessJoin(sim::Device* device,
                                      const data::Relation& build,
                                      const data::Relation& probe,
                                      const CoProcessConfig& config) {
  // Fail before planning, which partitions and joins both inputs.
  GJOIN_RETURN_NOT_OK(ValidatePipelineConfig(config));
  GJOIN_ASSIGN_OR_RETURN(CoProcessPlan plan,
                         PlanCoProcessJoinShared(device, build, probe, config));
  GJOIN_ASSIGN_OR_RETURN(CoProcessRun run,
                         CoProcessExecutePlanned(device, plan, config));
  return run.stats;
}

}  // namespace gjoin::outofgpu
