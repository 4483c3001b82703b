// Out-of-GPU pipelines: the two Section IV execution strategies side by
// side on the same oversized workload, with engine-utilization reporting
// that shows the PCIe bus as the saturated resource.
//
//   ./out_of_gpu_pipeline [--build=2000000] [--ratio=2] [--threads=16]

#include <cstdio>

#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/hw/pcie.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace gjoin;
  constexpr const char* kName = "out_of_gpu_pipeline";
  auto flags =
      util::ValueOrExit(std::move(util::Flags::Parse(argc, argv)), kName);
  util::ExitOnError(flags.AllowOnly({"build", "ratio", "threads"}), kName);
  const size_t build_n = static_cast<size_t>(
      util::ValueOrExit(flags.GetInt("build", 2'000'000), kName));
  const size_t probe_n = build_n * static_cast<size_t>(util::ValueOrExit(
                                       flags.GetInt("ratio", 2), kName));
  const int threads = static_cast<int>(
      util::ValueOrExit(flags.GetInt("threads", 16), kName));

  // Shrink the simulated device so the workload genuinely does not fit —
  // the regime both strategies exist for.
  hw::HardwareSpec spec = hw::HardwareSpec::Icde2019Testbed();
  spec.gpu.device_memory_bytes = build_n * 8 * 8;  // below the in-GPU residency headroom
  sim::Device device(spec);

  const auto r = data::MakeUniqueUniform(build_n, 41);
  const auto s = data::MakeUniformProbe(probe_n, build_n, 42);
  const auto oracle = data::JoinOracle(r, s);
  const hw::PcieModel pcie(spec.pcie);
  const double pcie_floor_s = pcie.DmaSeconds(r.bytes() + s.bytes());
  std::printf("workload: %zu x %zu tuples; PCIe floor %.2f ms\n\n", build_n,
              probe_n, pcie_floor_s * 1e3);

  {
    outofgpu::StreamingProbeConfig cfg;
    cfg.join.partition.pass_bits = {6, 5};  // sized for a few M tuples
    auto run = outofgpu::StreamingProbeExecute(&device, r, s, cfg);
    util::ExitOnError(run.status(), "out_of_gpu_pipeline");
    const gpujoin::JoinStats& stats = run->stats;
    std::printf("streaming probe (build resident, Section IV-A):\n");
    std::printf("  %.2f ms, %.2f Btps, transfers busy %.0f%% of makespan, "
                "%s\n\n",
                stats.seconds * 1e3,
                stats.Throughput(build_n, probe_n) / 1e9,
                100.0 * stats.transfer_s / stats.seconds,
                stats.matches == oracle.matches ? "verified" : "MISMATCH");
  }
  {
    outofgpu::CoProcessConfig cfg;
    cfg.join.partition.pass_bits = {6, 5};
    cfg.cpu.threads = threads;
    cfg.chunk_tuples = build_n / 4;
    auto stats = outofgpu::CoProcessJoin(&device, r, s, cfg);
    util::ExitOnError(stats.status(), "out_of_gpu_pipeline");
    std::printf("co-processing (nothing resident, Section IV-B, %d CPU "
                "threads):\n", threads);
    std::printf("  %.2f ms, %.2f Btps, CPU busy %.2f ms, transfers %.2f ms, "
                "%s\n",
                stats->seconds * 1e3,
                stats->Throughput(build_n, probe_n) / 1e9, stats->cpu_s * 1e3,
                stats->transfer_s * 1e3,
                stats->matches == oracle.matches ? "verified" : "MISMATCH");
  }
  return 0;
}
