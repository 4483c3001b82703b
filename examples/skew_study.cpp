// Skew study: how the partitioned GPU join behaves as the key
// distribution degenerates, and what the Section IV-D working-set packer
// does about it.
//
//   ./skew_study [--tuples=1000000]
//
// Sweeps the Zipf factor for identically-skewed inputs (the worst case:
// same popular values on both sides), reporting throughput, the block-
// nested-loop fallback regime, and the knapsack working-set packing a
// skewed build side produces for the co-processing strategy.

#include <cstdio>

#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/outofgpu/working_set.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace gjoin;
  auto flags = util::ValueOrExit(std::move(util::Flags::Parse(argc, argv)),
                                 "skew_study");
  util::ExitOnError(flags.AllowOnly({"tuples"}), "skew_study");
  const size_t n = static_cast<size_t>(
      util::ValueOrExit(flags.GetInt("tuples", 1'000'000), "skew_study"));
  sim::Device device(hw::HardwareSpec::Icde2019Testbed());

  std::printf("identically-skewed %zu x %zu join, in-GPU:\n", n, n);
  std::printf("%8s %12s %14s %10s\n", "zipf", "matches", "throughput",
              "vs uniform");
  double uniform_tput = 0;
  for (double zipf : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto r = data::MakeZipf(n, n, zipf, 31, /*perm_seed=*/99);
    const auto s = data::MakeZipf(n, n, zipf, 32, /*perm_seed=*/99);
    gpujoin::PartitionedJoinConfig cfg;
    cfg.partition.pass_bits = {5, 5};
    auto stats = gpujoin::PartitionedJoinFromHost(&device, r, s, cfg);
    util::ExitOnError(stats.status(), "skew_study");
    if (stats->matches != data::JoinOracle(r, s).matches) {
      std::printf("verification failed!\n");
      return 1;
    }
    const double tput = stats->Throughput(n, n);
    if (zipf == 0.0) uniform_tput = tput;
    std::printf("%8.2f %12llu %11.2f Btps %9.0f%%\n", zipf,
                static_cast<unsigned long long>(stats->matches), tput / 1e9,
                100.0 * tput / uniform_tput);
  }

  // Working-set packing for a skewed build side (co-processing planning).
  std::printf("\nworking-set packing for a zipf-1.0 build side "
              "(16-way CPU partitioning, 64 MB GPU budget):\n");
  const auto skewed = data::MakeZipf(n, n, 1.0, 33);
  const hw::CpuCostModel cpu_model{hw::CpuSpec{}};
  cpu::CpuPartitionConfig pcfg;
  auto parts = util::ValueOrExit(std::move(cpu::CpuRadixPartition(skewed, pcfg, cpu_model)), "skew_study");
  std::vector<uint64_t> sizes;
  for (const auto& p : parts.parts) sizes.push_back(p.bytes());
  outofgpu::WorkingSetConfig wcfg;
  wcfg.budget_bytes = 64 << 20;
  auto sets = util::ValueOrExit(std::move(outofgpu::PackWorkingSets(sizes, wcfg)), "skew_study");
  for (size_t i = 0; i < sets.size(); ++i) {
    std::printf("  set %zu: %zu partitions, %.2f MB%s\n", i,
                sets[i].partitions.size(),
                static_cast<double>(sets[i].bytes) / 1e6,
                i == 0 ? "  (knapsack-maximized first set)" : "");
  }
  return 0;
}
