// The simulated GPU device: kernel launches with functional execution and
// modeled timing.
//
// Device::Launch runs a kernel body once per thread block (parallelized
// over host threads purely for wall-clock speed — modeled time is
// unaffected), merges the per-block KernelStats and converts them to
// modeled seconds with the hw::CostModel. A Device also owns the
// simulated device memory and accumulates a profile of all launches,
// which the experiment harness reads to report phase breakdowns
// (partition vs build vs probe), mirroring the "join co-partitions"
// series of Figures 5 and 6.

#ifndef GJOIN_SIM_DEVICE_H_
#define GJOIN_SIM_DEVICE_H_

#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "src/hw/cost_model.h"
#include "src/hw/spec.h"
#include "src/sim/block.h"
#include "src/sim/device_memory.h"
#include "src/sim/fault.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace gjoin::sim {

/// \brief Grid/block geometry of one kernel launch.
struct LaunchConfig {
  std::string name;              ///< Kernel name, for profiles and tests.
  int num_blocks = 1;            ///< Grid size.
  int threads_per_block = 1024;  ///< Block size (multiple of 32).
  size_t shared_mem_bytes = 48 << 10;  ///< Shared memory per block.
};

/// \brief Outcome of a kernel launch: what it did and what that costs.
struct LaunchResult {
  hw::KernelStats stats;
  hw::KernelCost cost;
  /// Modeled execution time (== cost.total_s).
  double seconds = 0;
};

/// \brief One entry of the device's launch profile.
struct ProfileEntry {
  std::string name;
  hw::KernelStats stats;
  double seconds = 0;
};

/// \brief Simulated GPU.
class Device {
 public:
  /// \param spec hardware description (GTX 1080 testbed by default)
  /// \param pool host threads for functional execution; defaults to the
  ///        process-wide pool.
  explicit Device(const hw::HardwareSpec& spec,
                  util::ThreadPool* pool = nullptr);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Launches a kernel: `body` runs once per block. Returns Invalid if
  /// the launch configuration violates device limits (block size, shared
  /// memory) — the same errors CUDA reports at launch time.
  ///
  /// When `epilogue` is provided, every block stays alive after its body
  /// returns and `epilogue(block)` then runs sequentially in ascending
  /// block id on the calling thread, charging into the same per-block
  /// stats. Kernels route cross-block side effects (chain publishes,
  /// shared-table inserts) through the epilogue so the functional
  /// outcome — and every charged counter, including max_block_cycles —
  /// is independent of how blocks interleave across host workers: at one
  /// host thread the epilogue order equals the inline execution order,
  /// and at N threads it reproduces it. Side effects that need no
  /// charges at replay time (materialized result pairs) can instead be
  /// recorded per block and applied in block order after Launch returns.
  [[nodiscard]]
  util::Result<LaunchResult> Launch(
      const LaunchConfig& config, const std::function<void(Block&)>& body,
      const std::function<void(Block&)>& epilogue = nullptr);

  /// Simulated device memory (capacity-accounted allocations).
  DeviceMemory& memory() { return memory_; }
  const DeviceMemory& memory() const { return memory_; }

  /// Arms seeded fault injection on this device: allocation faults,
  /// transfer flakes and a planned death per `plan` (see sim/fault.h).
  /// Replaces any previously armed plan (counters reset).
  void ArmFaults(const FaultPlan& plan, int device_index = 0) {
    injector_ = std::make_unique<FaultInjector>(plan, device_index);
    memory_.set_fault_injector(injector_.get());
  }

  /// Disarms fault injection; the device is fault-free again.
  void DisarmFaults() {
    memory_.set_fault_injector(nullptr);
    injector_.reset();
  }

  /// The armed fault injector, or nullptr when none is armed.
  FaultInjector* faults() { return injector_.get(); }
  const FaultInjector* faults() const { return injector_.get(); }

  /// Host threads executing simulated blocks concurrently. Kernels with
  /// host-side shared state may skip their locking when this is 1.
  size_t functional_parallelism() const { return pool_->num_threads(); }

  /// The host pool that executes this device's blocks. Kernels may use
  /// it for charge-free host work after a launch returns.
  util::ThreadPool* pool() const { return pool_; }

  /// Timing model in use.
  const hw::CostModel& cost_model() const { return cost_model_; }

  /// Machine description.
  const hw::HardwareSpec& spec() const { return spec_; }

  /// All launches since construction or the last ClearProfile().
  std::vector<ProfileEntry> profile() const;

  /// Sum of modeled seconds of profiled launches whose name contains
  /// `substr` (empty matches all).
  double ProfiledSeconds(const std::string& substr = "") const;

  /// Resets the launch profile.
  void ClearProfile();

 private:
  hw::HardwareSpec spec_;
  hw::CostModel cost_model_;
  DeviceMemory memory_;
  util::ThreadPool* pool_;
  std::unique_ptr<FaultInjector> injector_;

  mutable util::Mutex profile_mu_;
  std::vector<ProfileEntry> profile_ GJOIN_GUARDED_BY(profile_mu_);
};

}  // namespace gjoin::sim

#endif  // GJOIN_SIM_DEVICE_H_
