#include "src/outofgpu/streaming_probe.h"

#include <algorithm>

#include "src/hw/pcie.h"
#include "src/sim/timeline.h"
#include "src/util/bits.h"

namespace gjoin::outofgpu {

using gpujoin::JoinStats;
using gpujoin::OutputMode;
using gpujoin::PartitionedRelation;

util::Result<StreamingProbeRun> StreamingProbeExecute(
    sim::Device* device, const data::Relation& build,
    const data::Relation& probe, const StreamingProbeConfig& config,
    const gpujoin::PreparedBuild* prepared) {
  // The probe streams through views; the build is checked by its upload.
  GJOIN_RETURN_NOT_OK(data::CheckColumns(probe, "StreamingProbeExecute"));
  StreamingProbeRun run;
  if (build.empty()) {
    return run;
  }
  const hw::PcieModel pcie(device->spec().pcie);

  // ---- Build side: one transfer + resident partitioning ----
  // With a shared prepared build the upload and partitioning are not
  // re-executed, but their ops still enter the solo DAG (and their
  // modeled seconds this query's stats) so the run is indistinguishable
  // from a standalone one; the session scheduler substitutes these ops
  // with the producing query's when merging timelines.
  gpujoin::PreparedBuild local_build;
  if (prepared == nullptr) {
    GJOIN_ASSIGN_OR_RETURN(
        local_build,
        gpujoin::PreparePartitionedBuild(device, build, config.join));
    prepared = &local_build;
  }
  const PartitionedRelation& r_parted = prepared->parted;

  gpujoin::PartitionedJoinConfig cfg = config.join;
  if (cfg.join.key_bits == 0) cfg.join.key_bits = prepared->key_bits;
  cfg.join.output = config.materialize_to_host ? OutputMode::kMaterialize
                                               : OutputMode::kAggregate;
  const double r_h2d_s = pcie.DmaSeconds(build.bytes());

  const size_t chunk_tuples = config.chunk_tuples != 0
                                  ? config.chunk_tuples
                                  : std::max<size_t>(build.size() / 2, 1);
  const size_t num_chunks =
      probe.empty() ? 0 : util::CeilDiv(probe.size(), chunk_tuples);

  JoinStats& stats = run.stats;
  sim::Timeline& timeline = run.timeline;
  run.build_h2d = timeline.Add(sim::Engine::kCopyH2D, r_h2d_s, {}, "h2d:R");
  run.build_part = timeline.Add(sim::Engine::kComputeGpu, r_parted.seconds,
                                {run.build_h2d}, "part:R");

  // The resident build's host tables: each co-partition is gathered and
  // linked by the first chunk that probes it and reused by the rest.
  gpujoin::BuildTableCache tables(r_parted, cfg.join);

  // Double-buffered chunk pipeline: transfer i waits for the join that
  // last used buffer (i % 2); joins serialize on the compute engine.
  std::vector<sim::OpId> joins;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk_tuples;
    const size_t end = std::min(probe.size(), begin + chunk_tuples);
    const data::RelationView chunk =
        data::RelationView::Slice(probe, begin, end);

    // Functional execution of the chunk: upload (straight from the host
    // columns — no intermediate copy), partition, join into a ring of
    // one pair more than the chunk.
    GJOIN_ASSIGN_OR_RETURN(gpujoin::DeviceRelation s_dev,
                           gpujoin::DeviceRelation::Upload(device, chunk));
    GJOIN_ASSIGN_OR_RETURN(
        PartitionedRelation s_parted,
        gpujoin::RadixPartition(device, s_dev, cfg.partition));
    cfg.out_capacity = chunk.size + 1;
    GJOIN_ASSIGN_OR_RETURN(
        JoinStats chunk_join,
        gpujoin::JoinPartitioned(device, r_parted, s_parted, cfg,
                                 chunk.size, &tables));
    stats.matches += chunk_join.matches;
    stats.payload_sum += chunk_join.payload_sum;

    // Pipeline ops for this chunk.
    std::vector<sim::OpId> copy_deps;
    if (joins.size() >= 2) copy_deps.push_back(joins[joins.size() - 2]);
    const sim::OpId h2d = timeline.Add(
        sim::Engine::kCopyH2D, pcie.DmaSeconds(chunk.bytes()), copy_deps,
        "h2d:chunk");
    const double gpu_s = s_parted.seconds + chunk_join.join_s;
    std::vector<sim::OpId> join_deps = {h2d, run.build_part};
    const sim::OpId join_op =
        timeline.Add(sim::Engine::kComputeGpu, gpu_s, join_deps, "join:chunk");
    joins.push_back(join_op);
    if (config.materialize_to_host) {
      timeline.Add(sim::Engine::kCopyD2H,
                   pcie.DmaSeconds(chunk_join.matches * 8), {join_op},
                   "d2h:results");
    }
    stats.partition_s += s_parted.seconds;
    stats.join_s += chunk_join.join_s;
  }

  GJOIN_ASSIGN_OR_RETURN(sim::Schedule schedule, timeline.Run());
  stats.seconds = schedule.makespan_s;
  stats.transfer_s = schedule.busy_s[static_cast<int>(sim::Engine::kCopyH2D)] +
                     schedule.busy_s[static_cast<int>(sim::Engine::kCopyD2H)];
  stats.partition_s += r_parted.seconds;
  return run;
}

}  // namespace gjoin::outofgpu
