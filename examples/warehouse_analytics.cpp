// Warehouse analytics: the large-to-large foreign-key joins that
// motivate the paper's introduction, on TPC-H-shaped data.
//
//   ./warehouse_analytics [--sf=1.0]
//
// Runs lineitem x orders and lineitem x customer at the given scale
// factor, showing how the strategy switches from in-GPU execution to
// streaming as the working set grows, and compares against the modeled
// CPU baselines (PRO/NPO) — the paper's "replace dozens of CPUs with a
// handful of cores and one GPU" argument.

#include <cstdio>

#include "src/api/gjoin.h"
#include "src/cpu/cpu_joins.h"
#include "src/data/oracle.h"
#include "src/data/tpch.h"
#include "src/util/flags.h"

namespace {

void RunJoin(gjoin::sim::Device* device, const char* name,
             const gjoin::data::Relation& build,
             const gjoin::data::Relation& probe) {
  using namespace gjoin;
  std::printf("-- lineitem (%zu rows) JOIN %s (%zu rows)\n", probe.size(),
              name, build.size());

  auto outcome = api::Join(device, build, probe, api::JoinConfig());
  util::ExitOnError(outcome.status(), "warehouse_analytics");
  const auto oracle = data::JoinOracle(build, probe);
  if (outcome->stats.matches != oracle.matches) {
    std::printf("   RESULT MISMATCH\n");
    return;
  }
  const double gpu_tput = outcome->stats.Throughput(build.size(),
                                                    probe.size());
  std::printf("   gjoin [%s]: %.2f Btps (%.2f ms, %llu matches)\n",
              api::StrategyName(outcome->strategy), gpu_tput / 1e9,
              outcome->stats.seconds * 1e3,
              static_cast<unsigned long long>(outcome->stats.matches));

  const hw::CpuCostModel cpu_model{hw::CpuSpec{}};
  cpu::CpuJoinConfig cpu_cfg;  // all 48 threads
  auto pro = util::ValueOrExit(std::move(cpu::ProJoin(build, probe, cpu_cfg, cpu_model)), "warehouse_analytics");
  auto npo = util::ValueOrExit(std::move(cpu::NpoJoin(build, probe, cpu_cfg, cpu_model)), "warehouse_analytics");
  std::printf("   CPU PRO (48 thr): %.2f Btps | CPU NPO: %.2f Btps | "
              "GPU speedup over PRO: %.1fx\n",
              pro.Throughput(build.size(), probe.size()) / 1e9,
              npo.Throughput(build.size(), probe.size()) / 1e9,
              gpu_tput / pro.Throughput(build.size(), probe.size()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gjoin;
  auto flags = util::ValueOrExit(std::move(util::Flags::Parse(argc, argv)),
                                 "warehouse_analytics");
  util::ExitOnError(flags.AllowOnly({"sf"}), "warehouse_analytics");
  const double sf =
      util::ValueOrExit(flags.GetDouble("sf", 1.0), "warehouse_analytics");

  sim::Device device(hw::HardwareSpec::Icde2019Testbed());
  std::printf("generating TPC-H-shaped data at SF %.2f...\n", sf);
  const data::TpchWorkload w = data::MakeTpch(sf, /*seed=*/7);

  RunJoin(&device, "orders", w.orders, w.lineitem_orderkey);
  RunJoin(&device, "customer", w.customer, w.lineitem_custkey);
  return 0;
}
