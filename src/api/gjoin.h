// gjoin — the public API of the library.
//
// One call, gjoin::Join, joins two host-resident relations using the
// hardware-conscious GPU join family of the paper, selecting the
// execution strategy by data placement exactly as Sections III/IV
// prescribe:
//
//   kInGpu          — both relations (plus partitioning structures) fit
//                     in device memory: transfer once, run the in-GPU
//                     partitioned radix join.
//   kStreamingProbe — only the build side fits: partition it on the GPU
//                     and stream the probe side through double-buffered
//                     async transfers (Section IV-A).
//   kCoProcessing   — neither side fits: CPU pre-partitioning + working
//                     sets + pipelined transfers and joins (IV-B).
//
// Quickstart:
//
//   sim::Device device(hw::HardwareSpec::Icde2019Testbed());
//   auto r = data::MakeUniqueUniform(64 << 20, /*seed=*/1);
//   auto s = data::MakeUniformProbe(256 << 20, 64 << 20, /*seed=*/2);
//   auto out = gjoin::Join(&device, r, s, gjoin::JoinConfig());
//   // out->stats.matches, out->stats.Throughput(...), out->strategy

#ifndef GJOIN_API_GJOIN_H_
#define GJOIN_API_GJOIN_H_

#include <string>

#include "src/data/relation.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/sim/device.h"
#include "src/sim/topology.h"
#include "src/util/status.h"

namespace gjoin::api {

/// \brief Execution strategies (Sections III and IV).
enum class Strategy {
  kAuto,            ///< Choose from data sizes vs device memory.
  kInGpu,           ///< Section III: fully GPU-resident.
  kStreamingProbe,  ///< Section IV-A: build resident, probe streamed.
  kCoProcessing,    ///< Section IV-B: CPU-GPU co-processing.
  kCpuOnly,         ///< Host-only fallback: the CPU radix join (PRO,
                    ///< Balkesen et al.), modeled by hw::CpuCostModel.
                    ///< The recovery ladder's last rung; never picked
                    ///< by kAuto (the paper always engages the GPU).
};

/// Human-readable strategy name.
const char* StrategyName(Strategy strategy);

/// \brief How a multi-device execution places work on the topology
/// (ignored when only one device is in play).
enum class PlacementPolicy {
  /// Each query runs wholly on one device (greedy earliest-finish
  /// placement); a build shared by queries on several devices is
  /// *replicated* — the replica copy is charged once per device (over
  /// the peer interconnect when another device already holds it) and
  /// reused by every later query there.
  kReplicate,
  /// In-GPU work is *partitioned* across the devices: each device holds
  /// a 1/N slice of the build, and every query's probe work splits into
  /// per-device slices — no replica cost, and a single query uses all
  /// devices at once.
  kPartition,
};

/// \brief Order in which a session admits queued queries to the planner.
enum class AdmissionPolicy {
  kSubmitOrder,        ///< First come, first planned.
  kShortestJobFirst,   ///< Ascending estimated bytes moved (build +
                       ///< probe); ties keep submit order. Changes
                       ///< completion order, never per-query stats.
  kDeadlineAware,      ///< Submit order, but when the session's queue
                       ///< limits overflow, queued queries whose
                       ///< deadlines are already unmeetable by
                       ///< estimated cost are shed (kOverloaded)
                       ///< before refusing the new arrival.
};

/// Human-readable admission-policy name.
const char* AdmissionPolicyName(AdmissionPolicy policy);

/// Default CPU thread count for the co-processing partitioning phase:
/// the paper testbed's 16, clamped to this host's
/// std::thread::hardware_concurrency() (never below 1). The clamp keeps
/// default functional runs sane on small hosts — 16 modeled partitioning
/// threads multiplexed onto one core would claim parallel-speedup
/// seconds the host can't check.
int DefaultCpuThreads();

/// \brief Top-level join configuration.
///
/// The host's functional loops are fixed designs, not options: hash
/// probes keep util::kProbePipelineDepth probes in flight, and
/// partitioning scatters stage util::kScatterBufferTuples tuples per
/// destination before a non-temporal flush. Neither changes results or
/// charged KernelStats.
struct JoinConfig {
  Strategy strategy = Strategy::kAuto;

  /// Materialize result pairs (to host memory for the out-of-GPU
  /// strategies); false computes an aggregate over the payloads.
  bool materialize = false;

  /// CPU threads for the co-processing partitioning phase. This is a
  /// *modeled* resource: it sets the partitioning/staging rates the cost
  /// model charges, so two hosts get identical modeled seconds for the
  /// same value. The default is DefaultCpuThreads() (paper value 16,
  /// clamped to the host's concurrency) — set it explicitly when
  /// reproducing paper numbers on a small machine.
  int cpu_threads = DefaultCpuThreads();

  /// GPU partitioning layout (paper default: 2 passes to 2^15).
  std::vector<int> pass_bits = {8, 7};

  /// Probe algorithm for joining co-partitions.
  gjoin::gpujoin::ProbeAlgorithm probe_algorithm =
      gjoin::gpujoin::ProbeAlgorithm::kSharedHash;

  /// Devices a topology-run join may span (the Join(Topology*, ...)
  /// overload; clamped to the topology's device count). The default of 1
  /// keeps every join single-device — the paper's model — and the
  /// single-device path bit-identical.
  int device_count = 1;

  /// How multi-device work is placed. Joins of a single query default to
  /// kPartition (replication buys a lone query nothing).
  PlacementPolicy placement = PlacementPolicy::kPartition;

  /// Deadline for this query in *modeled* seconds from the start of the
  /// batch timeline (never host wall-clock). <= 0 means none. A session
  /// run aborts the query's remaining ops once the modeled clock would
  /// cross this value: already-charged work stays charged, staged
  /// artifacts are released, and the query completes with a typed
  /// kDeadlineExceeded carrying its fault_penalty_s. Siblings in the
  /// batch are untouched. Charge-free when unset.
  double deadline_s = 0;
};

/// \brief Join outcome: verified result stats plus the chosen strategy.
struct JoinOutcome {
  gjoin::gpujoin::JoinStats stats;
  Strategy strategy = Strategy::kInGpu;
};

/// Picks the strategy kAuto would use for the given input sizes on the
/// given device (exposed for planning, EXPLAIN output and tests).
Strategy ChooseStrategy(const sim::Device& device, uint64_t build_bytes,
                        uint64_t probe_bytes);

/// Describes, in one line, what ChooseStrategy decided and why.
std::string Explain(const sim::Device& device, uint64_t build_bytes,
                    uint64_t probe_bytes);

/// Joins `build` and `probe` (host-resident) on the simulated device.
[[nodiscard]]
util::Result<JoinOutcome> Join(sim::Device* device,
                               const data::Relation& build,
                               const data::Relation& probe,
                               const JoinConfig& config);

/// Joins on a device topology: the join may span
/// config.device_count devices under config.placement (device_count 1 —
/// the default — reproduces the single-device join on topology device 0
/// bit-for-bit).
[[nodiscard]]
util::Result<JoinOutcome> Join(sim::Topology* topology,
                               const data::Relation& build,
                               const data::Relation& probe,
                               const JoinConfig& config);

}  // namespace gjoin::api

#endif  // GJOIN_API_GJOIN_H_
