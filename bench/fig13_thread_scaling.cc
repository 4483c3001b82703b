// Figure 13: throughput vs number of CPU threads (2-46): the CPU
// partitioned join scales roughly linearly with threads, while the
// co-processing strategy saturates the PCIe by ~6 threads, plateaus, and
// dips slightly past ~26 threads when partitioning traffic saturates the
// near socket's memory bandwidth and interferes with DMA transfers.
// Workload: 512M x 512M unique uniform tuples.
//
// The inputs are never materialized: streaming generators feed each
// relation chunk-at-a-time into the host partitioner, the co-processing
// plan consumes the partitions working set by working set, and both the
// oracle and the CPU PRO verification run per co-partition. Peak
// residency is the partitioned inputs (the working state every strategy
// needs anyway), not relations + partitions + working-set copies — which
// is what makes --divisor=1 feasible on a lab machine.

#include <map>
#include <vector>

#include "bench/common.h"
#include "bench/runner.h"
#include "src/cpu/cpu_joins.h"
#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/outofgpu/coprocess.h"

namespace gjoin {
namespace {

int Run(int argc, char** argv) {
  auto ctx = bench::BenchContext::Create(
      argc, argv, "fig13", "scalability with CPU threads",
      /*default_divisor=*/32);
  sim::Device device(ctx.spec());
  const hw::CpuCostModel cpu_model(ctx.spec().cpu);

  const size_t n = ctx.Scale(512 * bench::kM);
  const size_t gen_chunk = std::max<size_t>(ctx.Scale(8 * bench::kM), 4096);

  outofgpu::CoProcessConfig coproc_cfg;
  coproc_cfg.join = bench::ScaledJoinConfig(ctx);
  coproc_cfg.chunk_tuples = std::max<size_t>(ctx.Scale(4 * bench::kM), 4096);

  // Stream-partition both relations chunk by chunk (identical output to
  // partitioning the materialized relations).
  auto stream_partition = [&](auto&& generate) {
    cpu::StreamingCpuPartitioner part = util::ValueOrExit(
        cpu::StreamingCpuPartitioner::Create(coproc_cfg.cpu, cpu_model,
                                             /*expected_tuples=*/n),
        "fig13");
    generate([&](const data::RelationView& chunk) { part.Append(chunk); });
    return std::move(part).Finish();
  };
  cpu::HostPartitions r_parts =
      stream_partition([&](const data::ChunkSink& sink) {
        data::StreamUniqueUniform(n, 131, gen_chunk, sink);
      });
  cpu::HostPartitions s_parts =
      stream_partition([&](const data::ChunkSink& sink) {
        data::StreamUniformProbe(n, n, 132, gen_chunk, sink);
      });

  const auto oracle = data::JoinOraclePartitioned(
      r_parts.parts, s_parts.parts, coproc_cfg.cpu.radix_bits);

  // CPU PRO functional verification, per co-partition: matches and
  // checksum are additive over the co-partition pairs, so the summed
  // per-pair joins verify the full join without a whole-relation run.
  // The result is thread-independent; the thread loop below reads the
  // analytic cost model (identical to a run's modeled seconds).
  cpu::CpuJoinConfig pro_cfg;
  pro_cfg.radix_bits = 14;  // unscaled: partition-to-cache ratio then matches
  {
    uint64_t matches = 0, payload_sum = 0;
    for (size_t p = 0; p < r_parts.parts.size(); ++p) {
      if (r_parts.parts[p].empty() || s_parts.parts[p].empty()) continue;
      auto stats =
          cpu::ProJoin(r_parts.parts[p], s_parts.parts[p], pro_cfg, cpu_model);
      util::ExitOnError(stats.status(), "fig13");
      matches += stats->matches;
      payload_sum += stats->payload_sum;
    }
    bench::VerifyJoin(matches, payload_sum, oracle, "fig13 CPU PRO");
  }

  // The co-processing plan (working sets, per-set GPU joins) is
  // thread-independent; only the pipeline timing changes with the thread
  // count. Plan once — consuming the partitions as the per-set joins
  // stream through them — and re-time per point.
  auto coproc_plan = outofgpu::PlanCoProcessJoinConsuming(
      &device, std::move(r_parts), std::move(s_parts), coproc_cfg);
  util::ExitOnError(coproc_plan.status(), "fig13");

  std::map<int, double> gpu_tput, pro_tput;
  std::vector<int> threads_axis;
  for (int threads = 2; threads <= 46; threads += 4) {
    threads_axis.push_back(threads);
    {
      outofgpu::CoProcessConfig cfg = coproc_cfg;
      cfg.cpu.threads = threads;
      auto run = outofgpu::CoProcessExecutePlanned(&device, *coproc_plan, cfg);
      util::ExitOnError(run.status(), "fig13");
      const gpujoin::JoinStats& stats = run->stats;
      if (stats.matches != oracle.matches) {
        std::fprintf(stderr, "fig13: result mismatch\n");
        return 1;
      }
      gpu_tput[threads] = bench::Tput(n, n, stats.seconds);
      ctx.Emit("GPU Partitioned", threads, gpu_tput[threads]);
    }
    {
      const double seconds =
          cpu_model
              .Pro(n, n, threads, data::Relation::kTupleBytes,
                   pro_cfg.radix_bits)
              .total_s;
      pro_tput[threads] = bench::Tput(n, n, seconds);
      ctx.Emit("CPU PRO", threads, pro_tput[threads]);
    }
  }

  double best_pro = 0;
  for (auto [t, v] : pro_tput) best_pro = std::max(best_pro, v);
  ctx.Check("CPU PRO throughput is roughly proportional to threads",
            pro_tput.at(22) > 2.5 * pro_tput.at(2) &&
                pro_tput.at(46) > pro_tput.at(22));
  ctx.Check("co-processing outperforms the fastest CPU setup with 6 threads",
            gpu_tput.at(6) > best_pro);
  ctx.Check("co-processing reaches a plateau by ~16 threads",
            gpu_tput.at(18) < 1.15 * gpu_tput.at(14));
  ctx.Check("small drop past ~26 threads (memory-bandwidth saturation)",
            gpu_tput.at(46) < gpu_tput.at(18) &&
                gpu_tput.at(46) > 0.7 * gpu_tput.at(18));
  ctx.Check("co-processing rises rapidly at low thread counts",
            gpu_tput.at(6) > 1.8 * gpu_tput.at(2));
  return ctx.Finish();
}

}  // namespace
}  // namespace gjoin

int main(int argc, char** argv) { return gjoin::Run(argc, argv); }
