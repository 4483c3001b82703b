// Google-benchmark micro-benchmarks of the simulator substrate itself:
// wall-clock cost of functionally executing the core kernels and
// generators. These measure the *reproduction's* speed (how fast the
// functional simulation chews through tuples on the host), not modeled
// GPU time — useful when deciding bench divisors or optimizing the
// simulator.
//
//   ./micro_kernels [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include "src/cpu/cpu_joins.h"
#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/exec/session.h"
#include "src/gpujoin/nonpartitioned.h"
#include "src/gpujoin/output_ring.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/sim/topology.h"
#include "src/util/bits.h"
#include "src/util/probe_pipeline.h"
#include "src/util/thread_pool.h"

namespace {

using namespace gjoin;

void BM_ZipfGeneration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    auto rel = data::MakeZipf(n, n, 0.75, seed++);
    benchmark::DoNotOptimize(rel.keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ZipfGeneration)->Arg(1 << 16)->Arg(1 << 20);

void BM_RadixPartitionFunctional(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  const auto rel = data::MakeUniqueUniform(n, 2);
  gpujoin::RadixPartitionConfig cfg;
  cfg.pass_bits = {6, 5};
  for (auto _ : state) {
    auto dev = util::ValueOrExit(std::move(gpujoin::DeviceRelation::Upload(&device, rel)), "micro_kernels");
    auto parted =
        util::ValueOrExit(std::move(gpujoin::RadixPartition(&device, dev, cfg)), "micro_kernels");
    benchmark::DoNotOptimize(parted.tuples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RadixPartitionFunctional)->Arg(1 << 18)->Arg(1 << 21);

void BM_PartitionedJoinFunctional(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  const auto r = data::MakeUniqueUniform(n, 3);
  const auto s = data::MakeUniformProbe(n, n, 4);
  gpujoin::PartitionedJoinConfig cfg;
  cfg.partition.pass_bits = {6, 5};
  for (auto _ : state) {
    auto stats =
        util::ValueOrExit(std::move(gpujoin::PartitionedJoinFromHost(&device, r, s, cfg)), "micro_kernels");
    benchmark::DoNotOptimize(stats.matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PartitionedJoinFunctional)->Arg(1 << 18)->Arg(1 << 20);

void BM_NonPartitionedJoinFunctional(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  const auto r = data::MakeUniqueUniform(n, 5);
  const auto s = data::MakeUniformProbe(n, n, 6);
  for (auto _ : state) {
    auto rd = util::ValueOrExit(std::move(gpujoin::DeviceRelation::Upload(&device, r)), "micro_kernels");
    auto sd = util::ValueOrExit(std::move(gpujoin::DeviceRelation::Upload(&device, s)), "micro_kernels");
    auto stats = util::ValueOrExit(std::move(gpujoin::NonPartitionedJoin(
                               &device, rd, sd,
                               gpujoin::NonPartitionedJoinConfig{})), "micro_kernels");
    benchmark::DoNotOptimize(stats.matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_NonPartitionedJoinFunctional)->Arg(1 << 18)->Arg(1 << 20);

void BM_JoinOracle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto r = data::MakeUniqueUniform(n, 7);
  const auto s = data::MakeUniformProbe(n, n, 8);
  for (auto _ : state) {
    auto oracle = data::JoinOracle(r, s);
    benchmark::DoNotOptimize(oracle.matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_JoinOracle)->Arg(1 << 18);

void BM_CpuProJoinFunctional(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto r = data::MakeUniqueUniform(n, 9);
  const auto s = data::MakeUniformProbe(n, n, 10);
  const hw::CpuCostModel model{hw::CpuSpec{}};
  for (auto _ : state) {
    auto stats =
        util::ValueOrExit(std::move(cpu::ProJoin(r, s, cpu::CpuJoinConfig{}, model)), "micro_kernels");
    benchmark::DoNotOptimize(stats.matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CpuProJoinFunctional)->Arg(1 << 18);

/// Host radix-scatter gate: wall-clock of CpuRadixPartition at 2^10
/// fanout with the scalar tuple-at-a-time loop (scatter_buffer_tuples=1)
/// vs the software-managed scatter buffers (process default). Buffered
/// regressing toward Scalar means the cache-resident staging + burst
/// flush stopped paying for itself. Output is identical either way
/// (gpujoin_stat_invariance_test pins that); this pair gates only speed.
/// Registered with MeasureProcessCPUTime: the partitioner runs on pool
/// workers, which the default per-thread CPU clock cannot see.
void RadixScatter(benchmark::State& state, int scatter_buffer_tuples) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto rel = data::MakeUniformProbe(n, n, 15);
  const hw::CpuCostModel model{hw::CpuSpec{}};
  cpu::CpuPartitionConfig cfg;
  cfg.radix_bits = 10;
  cfg.scatter_buffer_tuples = scatter_buffer_tuples;
  for (auto _ : state) {
    auto parts = util::ValueOrExit(
        std::move(cpu::CpuRadixPartition(rel, cfg, model)), "micro_kernels");
    benchmark::DoNotOptimize(parts.tuples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_RadixScatterScalar(benchmark::State& state) {
  RadixScatter(state, /*scatter_buffer_tuples=*/1);
}
BENCHMARK(BM_RadixScatterScalar)->Arg(1 << 20)->MeasureProcessCPUTime();

void BM_RadixScatterBuffered(benchmark::State& state) {
  RadixScatter(state, /*scatter_buffer_tuples=*/0);
}
BENCHMARK(BM_RadixScatterBuffered)->Arg(1 << 20)->MeasureProcessCPUTime();

void BM_StreamingGenerate(benchmark::State& state) {
  // Chunk-at-a-time generation gate: the streamed unique-uniform
  // generator (fig13's no-materialization input path) against a reusable
  // chunk buffer. Tracks the permutation + per-chunk fill cost.
  const size_t n = static_cast<size_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    uint64_t checksum = 0;
    data::StreamUniqueUniform(n, seed++, 1 << 18,
                              [&](const data::RelationView& chunk) {
                                checksum += chunk.keys[0] + chunk.size;
                              });
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_StreamingGenerate)->Arg(1 << 20)->MeasureProcessCPUTime();

/// Bucket-at-a-time publish gate: RadixPartition on a device over an
/// explicit 2-worker pool, so the second pass records each block's runs,
/// plans their buckets in the launch epilogue and copies them in
/// parallel afterwards. A 1-worker pool (what a 1-CPU machine builds by
/// default) would take the direct-pack path and never exercise it.
/// pass_bits {3,7} over 256K tuples leaves runs of a few tuples per
/// child, the sub-line regime where partial-line non-temporal stores
/// used to dominate. Registered with MeasureProcessCPUTime: the blocks
/// and the copies run on pool workers.
void BM_RadixPartitionReplay(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::ThreadPool pool(2);
  sim::Device device{hw::HardwareSpec::Icde2019Testbed(), &pool};
  const auto rel = data::MakeUniqueUniform(n, 16);
  const auto dev = util::ValueOrExit(
      gpujoin::DeviceRelation::Upload(&device, rel), "micro_kernels");
  gpujoin::RadixPartitionConfig cfg;
  cfg.pass_bits = {3, 7};
  for (auto _ : state) {
    auto parted = util::ValueOrExit(
        gpujoin::RadixPartition(&device, dev, cfg), "micro_kernels");
    benchmark::DoNotOptimize(parted.tuples);
    device.ClearProfile();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RadixPartitionReplay)->Arg(1 << 18)->MeasureProcessCPUTime();

/// Block-nested-loop fallback gate: an aggregate shared-hash join whose
/// co-partitions (8192 build tuples) are about 3x shared_elems, as in
/// co-processing working sets. The host runs it through one slot-sorted
/// build index per partition instead of a table and an S rescan per
/// chunk; regressing toward the rescans shows here. Inputs are
/// partitioned once outside the loop. Registered with
/// MeasureProcessCPUTime: the index build runs on pool workers.
void BM_JoinCoPartitionsOversized(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  const auto r = data::MakeUniqueUniform(n, 17);
  const auto s = data::MakeUniformProbe(2 * n, n, 18);
  gpujoin::RadixPartitionConfig pcfg;
  pcfg.pass_bits = {5};
  const auto rp = util::ValueOrExit(
      gpujoin::RadixPartition(
          &device,
          util::ValueOrExit(gpujoin::DeviceRelation::Upload(&device, r),
                            "micro_kernels"),
          pcfg),
      "micro_kernels");
  const auto sp = util::ValueOrExit(
      gpujoin::RadixPartition(
          &device,
          util::ValueOrExit(gpujoin::DeviceRelation::Upload(&device, s),
                            "micro_kernels"),
          pcfg),
      "micro_kernels");
  gpujoin::CoPartitionJoinConfig cfg;
  cfg.shared_elems = 3072;
  for (auto _ : state) {
    auto result = util::ValueOrExit(
        gpujoin::JoinCoPartitions(&device, rp, sp, cfg), "micro_kernels");
    benchmark::DoNotOptimize(result.matches);
    device.ClearProfile();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 3 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_JoinCoPartitionsOversized)
    ->Arg(1 << 18)
    ->MeasureProcessCPUTime();

/// Materialized-output gate: a shared-hash join of two Zipf(0.5)
/// relations sharing their popular keys, emitting about three result
/// pairs per probe tuple into a ring of |S| pairs, so the ring wraps
/// several times (Fig. 17's setting). Blocks record their pairs and only
/// the ring's worth that survives the wraps is copied after the launch;
/// regressing toward replaying every pair onto the ring shows here.
/// Inputs are partitioned once outside the loop. Registered with
/// MeasureProcessCPUTime: the blocks run on pool workers.
void BM_JoinCoPartitionsMaterialized(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  const auto r = data::MakeZipf(n, n, 0.5, 19, 21);
  const auto s = data::MakeZipf(n, n, 0.5, 20, 21);
  gpujoin::RadixPartitionConfig pcfg;
  pcfg.pass_bits = {7};
  const auto partition = [&](const data::Relation& rel) {
    return util::ValueOrExit(
        gpujoin::RadixPartition(
            &device,
            util::ValueOrExit(gpujoin::DeviceRelation::Upload(&device, rel),
                              "micro_kernels"),
            pcfg),
        "micro_kernels");
  };
  const auto rp = partition(r);
  const auto sp = partition(s);
  gpujoin::CoPartitionJoinConfig cfg;
  cfg.output = gpujoin::OutputMode::kMaterialize;
  auto ring = util::ValueOrExit(
      gpujoin::OutputRing::Allocate(&device.memory(), n), "micro_kernels");
  uint64_t wraps = 0;
  for (auto _ : state) {
    ring.ResetCursor();
    auto result = util::ValueOrExit(
        gpujoin::JoinCoPartitions(&device, rp, sp, cfg, &ring),
        "micro_kernels");
    benchmark::DoNotOptimize(result.matches);
    wraps = ring.total_written() / ring.capacity();
    device.ClearProfile();
  }
  state.counters["ring_wraps"] = static_cast<double>(wraps);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_JoinCoPartitionsMaterialized)
    ->Arg(1 << 18)
    ->MeasureProcessCPUTime();

/// Probe-pipeline gate inputs: large enough that the chained table
/// (heads + packed nodes, ~384 MB at 16M build tuples) exceeds even a
/// 260 MB LLC — the regime the pipeline exists for. Shared across the
/// depth entries so generation cost is paid once per process.
const data::Relation& PipelineBuild() {
  static const data::Relation r = data::MakeUniqueUniform(16 << 20, 31);
  return r;
}
const data::Relation& PipelineProbe() {
  static const data::Relation s =
      data::MakeUniformProbe(16 << 20, 16 << 20, 32);
  return s;
}

void BM_ProbePipelineChained(benchmark::State& state) {
  // Chained-probe pipeline gate: probe-only wall-clock of the AMAC
  // engine over a global chained table (the non-partitioned join's
  // probe loop shape) at pipeline depth range(0). Depth 1 is the
  // scalar reference loop; the speedup of the deeper entries is the
  // memory-latency tolerance the knob buys. The table is built once,
  // outside the timing loop.
  const data::Relation& r = PipelineBuild();
  const data::Relation& s = PipelineProbe();
  const size_t n = r.size();
  const size_t slots = n * 2;  // slots_per_tuple default
  static std::vector<int32_t> heads;
  static std::vector<util::PackedHashNode> nodes;
  if (heads.empty()) {
    heads.assign(slots, -1);
    nodes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t slot = util::Mix32(r.keys[i]) & (slots - 1);
      nodes[i] = {r.keys[i], r.payloads[i], heads[slot], 0};
      heads[slot] = static_cast<int32_t>(i);
    }
  }
  const int depth = static_cast<int>(state.range(0));
  uint64_t total = 0;
  for (auto _ : state) {
    uint64_t matches = 0, checksum = 0;
    struct Probe {
      uint32_t key;
      uint32_t pay;
      int32_t cur;
      uint32_t stage;
    };
    util::ProbePipeline<Probe>(
        s.size(), depth,
        [&](size_t i, Probe& p) {
          const uint32_t key = s.keys[i];
          const uint32_t slot = util::Mix32(key) & (slots - 1);
          p = {key, s.payloads[i], static_cast<int32_t>(slot), 0};
          util::PrefetchRead(&heads[slot]);
        },
        [&](size_t /*i*/, Probe& p) {
          if (p.stage == 0) {
            const int32_t e = heads[p.cur];
            if (e < 0) return false;
            p.cur = e;
            p.stage = 1;
            util::PrefetchRead(&nodes[e]);
            return true;
          }
          const util::PackedHashNode& node = nodes[p.cur];
          if (node.key == p.key) {
            ++matches;
            checksum += static_cast<uint64_t>(node.pay) + p.pay;
          }
          if (node.next < 0) return false;
          p.cur = node.next;
          util::PrefetchRead(&nodes[node.next]);
          return true;
        });
    benchmark::DoNotOptimize(checksum);
    total += matches;
  }
  if (total != state.iterations() * s.size()) state.SkipWithError("bad sum");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.size()));
}
BENCHMARK(BM_ProbePipelineChained)->Arg(1)->Arg(4)->Arg(32);

void BM_ProbePipelineDense(benchmark::State& state) {
  // Dense-probe pipeline gate: the perfect-hash shape — one
  // *independent* access per probe into a dense array, which
  // out-of-order execution already overlaps, so the depth entries
  // document the (much smaller) benefit on the paper's best-case
  // table.
  const data::Relation& r = PipelineBuild();
  const data::Relation& s = PipelineProbe();
  const size_t n = r.size();
  static std::vector<uint32_t> dense;
  if (dense.empty()) {
    dense.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i) dense[r.keys[i]] = r.payloads[i] + 1;
  }
  const uint32_t max_key = static_cast<uint32_t>(n);
  const int depth = static_cast<int>(state.range(0));
  uint64_t total = 0;
  for (auto _ : state) {
    uint64_t matches = 0, checksum = 0;
    util::GroupProbe<uint32_t>(
        s.size(), depth,
        [&](size_t i, uint32_t& key) {
          key = s.keys[i];
          if (key <= max_key) util::PrefetchRead(&dense[key]);
        },
        [&](size_t i, uint32_t& key) {
          if (key <= max_key && dense[key] != 0) {
            ++matches;
            checksum += static_cast<uint64_t>(dense[key] - 1) + s.payloads[i];
          }
        });
    benchmark::DoNotOptimize(checksum);
    total += matches;
  }
  if (total != state.iterations() * s.size()) state.SkipWithError("bad sum");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.size()));
}
BENCHMARK(BM_ProbePipelineDense)->Arg(1)->Arg(4)->Arg(32);

void BM_SessionSmallBatch(benchmark::State& state) {
  // Session-scheduler overhead gate: a 2-query shared-build batch of
  // small in-GPU joins through exec::Session (planning, upload cache,
  // graph splice, list scheduling) on top of the functional join work.
  const size_t n = static_cast<size_t>(state.range(0));
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  const auto r = data::MakeUniqueUniform(n, 11);
  const auto s1 = data::MakeUniformProbe(n, n, 12);
  const auto s2 = data::MakeUniformProbe(n, n, 13);
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  for (auto _ : state) {
    exec::Session session(&device);
    session.Submit(r, s1, cfg);
    session.Submit(r, s2, cfg);
    util::ExitOnError(session.Run(), "micro_kernels");
    benchmark::DoNotOptimize(session.stats().makespan_s);
    device.ClearProfile();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 3 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SessionSmallBatch)->Arg(1 << 16);

void BM_TopologyPlacement(benchmark::State& state) {
  // Multi-GPU session overhead gate: an 8-query shared-build batch
  // placed and scheduled over a 2-device topology (greedy placement,
  // per-device caches, replica accounting, multi-lane list scheduling)
  // on top of the functional join work.
  const size_t n = static_cast<size_t>(state.range(0));
  sim::Topology topo(hw::HardwareSpec::Icde2019Testbed(), 2);
  const auto r = data::MakeUniqueUniform(n, 14);
  std::vector<data::Relation> probes;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    probes.push_back(data::MakeUniformProbe(n, n, 20 + seed));
  }
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  for (auto _ : state) {
    exec::Session session(&topo);
    for (const auto& probe : probes) session.Submit(r, probe, cfg);
    util::ExitOnError(session.Run(), "micro_kernels");
    benchmark::DoNotOptimize(session.stats().makespan_s);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 9 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TopologyPlacement)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
