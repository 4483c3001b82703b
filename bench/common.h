// Shared support for the figure-reproduction benchmarks.
//
// Every bench binary regenerates one figure of the paper's evaluation:
// it prints the figure's series as CSV rows
//
//   <figure>,<series>,<x-value>,<metric>
//
// with x labeled in the *paper-nominal* units, followed by shape checks
// ("CHECK <description>: PASS|FAIL") asserting the qualitative claims
// the paper makes about that figure (who wins, where crossovers fall).
//
// Scaling. The paper's experiments reach 2^31 tuples and 80 GB of data;
// this reproduction runs functional simulations, so benches execute a
// scaled *miniature*: data sizes, the simulated memory-hierarchy
// capacities (device memory, L2, LLC), fixed overheads (kernel launch,
// PCIe latency) and the radix fanout are all divided by the same
// divisor. Every ratio the figure shapes depend on — working set vs
// cache, data vs device memory, partition size vs shared memory,
// bandwidth ratios — is preserved, so modeled *throughput* (tuples/s)
// at scaled size x/D reproduces the paper's throughput at nominal x.
// Set GJOIN_FULL_SCALE=1 (or --divisor=1) to run paper-nominal sizes
// where host RAM allows.

#ifndef GJOIN_BENCH_COMMON_H_
#define GJOIN_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/spec.h"
#include "src/util/flags.h"

namespace gjoin::bench {

/// \brief Per-binary bench context: scaled hardware + output helpers.
class BenchContext {
 public:
  /// Parses flags (--divisor overrides the figure's default; the
  /// GJOIN_FULL_SCALE=1 environment variable forces divisor 1; also
  /// --trace_dir, --retain_freed_blocks and --strict). A malformed
  /// argument, an unknown flag or a malformed value (--divisor=8x,
  /// --strict=yes) prints the error naming it and exits with status 2.
  static BenchContext Create(int argc, char** argv, const char* figure,
                             const char* title, int64_t default_divisor);

  /// The scaling divisor in effect.
  int64_t divisor() const { return divisor_; }
  /// log2(divisor); the divisor is always a power of two.
  int log2_divisor() const { return log2_divisor_; }

  /// The scaled hardware spec (capacities and fixed overheads divided).
  const hw::HardwareSpec& spec() const { return spec_; }

  /// Scales a paper-nominal tuple count.
  size_t Scale(uint64_t nominal_tuples) const {
    const uint64_t scaled = nominal_tuples / static_cast<uint64_t>(divisor_);
    return static_cast<size_t>(scaled == 0 ? 1 : scaled);
  }

  /// Scales the paper's {8,7}-style radix layout: the total fanout
  /// shrinks by log2(divisor) so per-partition sizes (and therefore all
  /// per-partition structures and their atomic-operation granularity)
  /// stay at paper values. Bits are removed from the last pass first.
  std::vector<int> ScalePassBits(std::vector<int> nominal) const;

  /// Parsed command-line flags.
  const util::Flags& flags() const { return flags_; }

  /// The figure tag ("fig23", ...) — filenames of per-figure artifacts.
  const std::string& figure() const { return figure_; }

  /// Directory for Chrome-trace JSON dumps (--trace_dir flag; empty =
  /// tracing off). See MaybeDumpSessionTrace in bench/runner.h.
  const std::string& trace_dir() const { return trace_dir_; }

  /// Emits one data row: figure,series,x,value.
  void Emit(const std::string& series, double x_nominal, double value);

  /// Emits a row whose value is absent in the paper too (system errored,
  /// e.g. DBMS-X at SF100): figure,series,x,ERROR(<why>).
  void EmitError(const std::string& series, double x_nominal,
                 const std::string& why);

  /// Records a qualitative shape check.
  void Check(const std::string& what, bool ok);

  /// Prints the check summary; returns the process exit code (0 unless
  /// --strict and a check failed).
  int Finish();

 private:
  std::string figure_;
  std::string trace_dir_;
  int64_t divisor_ = 1;
  int log2_divisor_ = 0;
  hw::HardwareSpec spec_;
  util::Flags flags_;
  bool strict_ = false;
  int checks_failed_ = 0;
  int checks_total_ = 0;
};

/// Billions shorthand for readable series math.
inline constexpr double kBillion = 1e9;
/// Million-tuple shorthand for nominal axis values.
inline constexpr uint64_t kM = 1000 * 1000;

}  // namespace gjoin::bench

#endif  // GJOIN_BENCH_COMMON_H_
