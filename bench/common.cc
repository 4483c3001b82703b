#include "bench/common.h"

#include <cstdio>
#include <cstdlib>

#include "src/util/bits.h"
#include "src/util/hostalloc.h"

namespace gjoin::bench {

namespace {

/// A malformed or unknown flag is a usage error: the binary exits with
/// status 2 and names the flag.
void ExitOnBadFlag(const util::Status& status, const char* figure) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", figure, status.ToString().c_str());
    std::exit(2);
  }
}

template <typename T>
T FlagOrExit(util::Result<T> value, const char* figure) {
  ExitOnBadFlag(value.status(), figure);
  return std::move(value).ValueOrDie();
}

}  // namespace

BenchContext BenchContext::Create(int argc, char** argv, const char* figure,
                                  const char* title,
                                  int64_t default_divisor) {
  BenchContext ctx;
  ctx.figure_ = figure;
  ctx.flags_ = FlagOrExit(util::Flags::Parse(argc, argv), figure);
  const util::Flags& flags = ctx.flags_;
  ExitOnBadFlag(flags.AllowOnly(
                    {"divisor", "trace_dir", "retain_freed_blocks", "strict"}),
                figure);

  int64_t divisor =
      FlagOrExit(flags.GetInt("divisor", default_divisor), figure);
  const char* full = std::getenv("GJOIN_FULL_SCALE");
  if (full != nullptr && std::string(full) == "1") divisor = 1;
  if (divisor < 1) divisor = 1;
  divisor = static_cast<int64_t>(
      util::NextPowerOfTwo(static_cast<uint64_t>(divisor)));
  ctx.divisor_ = divisor;
  ctx.log2_divisor_ = util::Log2Floor(static_cast<uint64_t>(divisor));

  // Chrome-trace dump directory (empty = tracing off). Purely
  // observational: emitted figure rows are identical either way.
  ctx.trace_dir_ = flags.GetString("trace_dir", "");

  // Keep big freed blocks resident for reuse across figure points
  // (wall-clock only; emitted rows identical). --retain_freed_blocks=0
  // opts out for runs that measure peak RSS.
  if (FlagOrExit(flags.GetBool("retain_freed_blocks", true), figure)) {
    util::TuneHostAllocatorForThroughput();
  }
  ctx.strict_ = FlagOrExit(flags.GetBool("strict", false), figure);

  // Scale the memory hierarchy and fixed overheads (see header).
  hw::HardwareSpec spec;
  const double inv = 1.0 / static_cast<double>(divisor);
  spec.gpu.device_memory_bytes = static_cast<size_t>(
      static_cast<double>(spec.gpu.device_memory_bytes) * inv);
  spec.gpu.l2_bytes = static_cast<size_t>(
      static_cast<double>(spec.gpu.l2_bytes) * inv);
  spec.gpu.random_bw_knee_bytes = static_cast<size_t>(
      static_cast<double>(spec.gpu.random_bw_knee_bytes) * inv);
  spec.gpu.kernel_launch_us *= inv;
  spec.pcie.latency_us *= inv;
  spec.cpu.llc_bytes = static_cast<size_t>(
      static_cast<double>(spec.cpu.llc_bytes) * inv);
  spec.cpu.l2_bytes_per_core = static_cast<size_t>(
      static_cast<double>(spec.cpu.l2_bytes_per_core) * inv);
  spec.cpu.fixed_join_overhead_s *= inv;
  ctx.spec_ = spec;

  std::printf("# %s: %s\n", figure, title);
  std::printf("# divisor=%lld (x axis labeled at paper-nominal sizes)\n",
              static_cast<long long>(divisor));
  std::printf("# columns: figure,series,x,value\n");
  return ctx;
}

std::vector<int> BenchContext::ScalePassBits(std::vector<int> nominal) const {
  // Remove bits from the *first* pass: its fanout controls the
  // block-private partial-bucket footprint of pass 1, which — unlike the
  // data — does not shrink with the divisor.
  int remove = log2_divisor_;
  for (auto it = nominal.begin(); it != nominal.end() && remove > 0; ++it) {
    const int take = std::min(remove, *it);
    *it -= take;
    remove -= take;
  }
  std::vector<int> out;
  for (int b : nominal) {
    if (b > 0) out.push_back(b);
  }
  if (out.empty()) out.push_back(1);
  return out;
}

void BenchContext::Emit(const std::string& series, double x_nominal,
                        double value) {
  std::printf("%s,%s,%.6g,%.6g\n", figure_.c_str(), series.c_str(), x_nominal,
              value);
  std::fflush(stdout);
}

void BenchContext::EmitError(const std::string& series, double x_nominal,
                             const std::string& why) {
  std::printf("%s,%s,%.6g,ERROR(%s)\n", figure_.c_str(), series.c_str(),
              x_nominal, why.c_str());
  std::fflush(stdout);
}

void BenchContext::Check(const std::string& what, bool ok) {
  ++checks_total_;
  if (!ok) ++checks_failed_;
  std::printf("CHECK %s: %s\n", what.c_str(), ok ? "PASS" : "FAIL");
  std::fflush(stdout);
}

int BenchContext::Finish() {
  std::printf("# %s: %d/%d shape checks passed\n", figure_.c_str(),
              checks_total_ - checks_failed_, checks_total_);
  if (checks_failed_ > 0 && strict_) return 1;
  return 0;
}

}  // namespace gjoin::bench
