// Figure 11: the streaming-probe strategy (build table resident at 64M
// tuples, probe side 64M-2048M streamed from the host) vs CPU PRO, with
// on-GPU aggregation and with host materialization.

#include <map>
#include <vector>

#include "bench/common.h"
#include "bench/runner.h"
#include "src/cpu/cpu_joins.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/hw/pcie.h"
#include "src/outofgpu/streaming_probe.h"

namespace gjoin {
namespace {

int Run(int argc, char** argv) {
  auto ctx = bench::BenchContext::Create(
      argc, argv, "fig11", "streaming probe side vs CPU PRO",
      /*default_divisor=*/16);
  sim::Device device(ctx.spec());
  const hw::CpuCostModel cpu_model(ctx.spec().cpu);

  const uint64_t build_nominal = 64 * bench::kM;
  const size_t build_n = ctx.Scale(build_nominal);
  const auto r = data::MakeUniqueUniform(build_n, 111);

  // Each probe size is a prefix of the largest one (same generator
  // seed): generate the stream once and verify every size from one
  // prefix-oracle pass.
  const std::vector<uint64_t> probe_nominals = {
      64 * bench::kM,  128 * bench::kM,  256 * bench::kM,
      512 * bench::kM, 1024 * bench::kM, 2048 * bench::kM};
  std::vector<size_t> probe_sizes;
  for (uint64_t nominal : probe_nominals) {
    probe_sizes.push_back(ctx.Scale(nominal));
  }
  const auto s_full =
      data::MakeUniformProbe(probe_sizes.back(), build_n, 112);
  const auto oracles = data::JoinOraclePrefixes(r, s_full, probe_sizes);

  std::map<std::pair<std::string, uint64_t>, double> tput;
  for (size_t point = 0; point < probe_nominals.size(); ++point) {
    const uint64_t probe_nominal = probe_nominals[point];
    const size_t probe_n = probe_sizes[point];
    data::Relation s;
    s.keys.assign(s_full.keys.begin(), s_full.keys.begin() + probe_n);
    s.payloads.assign(s_full.payloads.begin(),
                      s_full.payloads.begin() + probe_n);
    const data::OracleResult& oracle = oracles[point];
    const double x = static_cast<double>(probe_nominal) / bench::kM;

    for (bool materialize : {false, true}) {
      outofgpu::StreamingProbeConfig cfg;
      cfg.join = bench::ScaledJoinConfig(ctx);
      cfg.materialize_to_host = materialize;
      auto run = outofgpu::StreamingProbeExecute(&device, r, s, cfg);
      util::ExitOnError(run.status(), "fig11");
      const gpujoin::JoinStats& stats = run->stats;
      if (stats.matches != oracle.matches) {
        std::fprintf(stderr, "fig11: result mismatch\n");
        return 1;
      }
      const double t = bench::Tput(build_n, probe_n, stats.seconds);
      const std::string series = materialize
                                     ? "GPU Partitioned - Materialization"
                                     : "GPU Partitioned - Aggregation";
      ctx.Emit(series, x, t);
      tput[{materialize ? "mat" : "agg", probe_nominal}] = t;
    }
    {
      cpu::CpuJoinConfig cfg;
      cfg.radix_bits = 14;  // unscaled: partition-to-cache ratio then matches
      // Functional verification at the first probe size; the larger
      // prefixes read the analytic cost model (identical seconds).
      double seconds;
      if (point == 0) {
        auto stats = cpu::ProJoin(r, s, cfg, cpu_model);
        util::ExitOnError(stats.status(), "fig11");
        bench::VerifyJoin(stats->matches, stats->payload_sum, oracle,
                          "fig11 CPU PRO");
        seconds = stats->seconds;
      } else {
        seconds = cpu_model
                      .Pro(build_n, probe_n, cfg.threads,
                           data::Relation::kTupleBytes, cfg.radix_bits)
                      .total_s;
      }
      const double t = bench::Tput(build_n, probe_n, seconds);
      ctx.Emit("CPU PRO", x, t);
      tput[{"pro", probe_nominal}] = t;
    }
  }

  const hw::PcieModel pcie(ctx.spec().pcie);
  const double pcie_tuples_per_s =
      1.0 / (pcie.DmaSeconds(data::Relation::kTupleBytes * 1000000) / 1e6);
  ctx.Check("GPU throughput grows with probe size",
            tput.at({"agg", 2048 * bench::kM}) >
                tput.at({"agg", 64 * bench::kM}));
  ctx.Check("approaches the PCIe bound (~1.5 Btps) for large probes",
            tput.at({"agg", 2048 * bench::kM}) > 0.75 * pcie_tuples_per_s &&
                tput.at({"agg", 2048 * bench::kM}) < 1.05 * pcie_tuples_per_s);
  ctx.Check("throughput lands near the paper's ~1.4 Btps",
            tput.at({"agg", 2048 * bench::kM}) > 1.1e9 &&
                tput.at({"agg", 2048 * bench::kM}) < 1.7e9);
  ctx.Check("materialization close behind aggregation",
            tput.at({"mat", 2048 * bench::kM}) >
                0.7 * tput.at({"agg", 2048 * bench::kM}));
  ctx.Check("GPU beats CPU PRO at every probe size",
            [&] {
              for (uint64_t m : {64, 128, 256, 512, 1024, 2048}) {
                if (tput.at({"agg", m * bench::kM}) <=
                    tput.at({"pro", m * bench::kM})) {
                  return false;
                }
              }
              return true;
            }());
  ctx.Check("the speedup over the CPU grows with probe size",
            tput.at({"agg", 2048 * bench::kM}) /
                    tput.at({"pro", 2048 * bench::kM}) >
                tput.at({"agg", 64 * bench::kM}) /
                    tput.at({"pro", 64 * bench::kM}));
  return ctx.Finish();
}

}  // namespace
}  // namespace gjoin

int main(int argc, char** argv) { return gjoin::Run(argc, argv); }
