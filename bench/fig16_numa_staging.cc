// Figure 16: staging far-socket data into near-socket pinned buffers vs
// direct far-socket DMA over the congested QPI, for 256M-2048M-tuple
// joins. The metric is effective transfer throughput in GB/s.

#include <map>

#include "bench/common.h"
#include "bench/runner.h"
#include "src/data/generator.h"
#include "src/hw/numa.h"
#include "src/outofgpu/coprocess.h"

namespace gjoin {
namespace {

int Run(int argc, char** argv) {
  auto ctx = bench::BenchContext::Create(
      argc, argv, "fig16", "NUMA staging vs direct far-socket copies",
      /*default_divisor=*/64);
  sim::Device device(ctx.spec());

  std::map<std::pair<bool, uint64_t>, double> gbps;
  for (uint64_t nominal : {256 * bench::kM, 512 * bench::kM,
                           1024 * bench::kM, 2048 * bench::kM}) {
    const size_t n = ctx.Scale(nominal);
    const auto r = data::MakeUniqueUniform(n, 161);
    const auto s = data::MakeUniqueUniform(n, 162);
    const double x = static_cast<double>(nominal) / bench::kM;
    // The functional plan is independent of the staging policy; only the
    // pipeline timing differs. Plan once per size.
    outofgpu::CoProcessConfig base_cfg;
    base_cfg.join = bench::ScaledJoinConfig(ctx);
    base_cfg.chunk_tuples = std::max<size_t>(ctx.Scale(4 * bench::kM), 4096);
    auto plan = outofgpu::PlanCoProcessJoinShared(&device, r, s, base_cfg);
    util::ExitOnError(plan.status(), "fig16");
    for (bool staging : {true, false}) {
      outofgpu::CoProcessConfig cfg = base_cfg;
      cfg.staging = staging;
      auto run = outofgpu::CoProcessExecutePlanned(&device, *plan, cfg);
      util::ExitOnError(run.status(), "fig16");
      const gpujoin::JoinStats& stats = run->stats;
      // Effective end-to-end data rate: all input bytes over total time.
      const double rate =
          static_cast<double>(r.bytes() + s.bytes()) / stats.seconds / 1e9;
      ctx.Emit(staging ? "Staging" : "Direct copy", x, rate);
      gbps[{staging, nominal}] = rate;
    }
  }

  ctx.Check("staging beats direct copies at every size",
            [&] {
              for (uint64_t m : {256, 512, 1024, 2048}) {
                if (gbps.at({true, m * bench::kM}) <=
                    gbps.at({false, m * bench::kM})) {
                  return false;
                }
              }
              return true;
            }());
  ctx.Check("staging sustains near-PCIe rates (>= 8 GB/s)",
            gbps.at({true, 1024 * bench::kM}) > 8.0);
  ctx.Check("direct far-socket copies lose >= 20% to QPI congestion",
            gbps.at({false, 1024 * bench::kM}) <
                0.8 * gbps.at({true, 1024 * bench::kM}));
  // The planner that promoted this figure's hand-rolled policy choice
  // (hw::numa::PlacementPlanner, used by the session's upload path)
  // must agree with the measured winner.
  const hw::numa::PlacementPlanner planner(ctx.spec());
  ctx.Check("the NUMA placement planner picks the measured winner",
            planner.Plan(/*device_index=*/0, /*cpu_threads=*/16).stage);
  return ctx.Finish();
}

}  // namespace
}  // namespace gjoin

int main(int argc, char** argv) { return gjoin::Run(argc, argv); }
