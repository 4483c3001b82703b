// Quickstart: join two relations with the hardware-conscious GPU join.
//
//   ./quickstart [--tuples=4000000] [--ratio=2] [--materialize]
//
// Builds a unique-key build relation and a foreign-key probe relation,
// lets the library pick the execution strategy for the simulated GTX
// 1080 testbed, verifies the result against a reference join, and prints
// the modeled performance breakdown.

#include <cstdio>

#include "src/api/gjoin.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace gjoin;
  auto flags = util::ValueOrExit(std::move(util::Flags::Parse(argc, argv)),
                                 "quickstart");
  util::ExitOnError(flags.AllowOnly({"tuples", "ratio", "materialize"}),
                    "quickstart");
  const size_t tuples = static_cast<size_t>(
      util::ValueOrExit(flags.GetInt("tuples", 4'000'000), "quickstart"));
  const int ratio = static_cast<int>(
      util::ValueOrExit(flags.GetInt("ratio", 2), "quickstart"));

  // 1. A simulated device describing the paper's testbed.
  sim::Device device(hw::HardwareSpec::Icde2019Testbed());

  // 2. Workload: R with unique keys 1..n, S with `ratio` x n foreign keys.
  const data::Relation build = data::MakeUniqueUniform(tuples, /*seed=*/1);
  const data::Relation probe =
      data::MakeUniformProbe(tuples * ratio, tuples, /*seed=*/2);

  // 3. What will the library do with these sizes on this device?
  std::printf("%s\n",
              api::Explain(device, build.bytes(), probe.bytes()).c_str());

  // 4. Join.
  api::JoinConfig config;
  config.materialize = util::ValueOrExit(
      flags.GetBool("materialize", false), "quickstart");
  auto outcome = api::Join(&device, build, probe, config);
  util::ExitOnError(outcome.status(), "quickstart");

  // 5. Verify and report.
  const data::OracleResult oracle = data::JoinOracle(build, probe);
  const bool ok = outcome->stats.matches == oracle.matches &&
                  outcome->stats.payload_sum == oracle.payload_sum;
  std::printf("strategy:   %s\n", api::StrategyName(outcome->strategy));
  std::printf("matches:    %llu (%s)\n",
              static_cast<unsigned long long>(outcome->stats.matches),
              ok ? "verified against reference join" : "MISMATCH");
  std::printf("modeled:    %.3f ms total\n", outcome->stats.seconds * 1e3);
  std::printf("  partition %.3f ms | join %.3f ms | transfer %.3f ms | "
              "cpu %.3f ms\n",
              outcome->stats.partition_s * 1e3, outcome->stats.join_s * 1e3,
              outcome->stats.transfer_s * 1e3, outcome->stats.cpu_s * 1e3);
  std::printf("throughput: %.2f billion tuples/s\n",
              outcome->stats.Throughput(build.size(), probe.size()) / 1e9);
  return ok ? 0 : 1;
}
