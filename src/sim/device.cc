#include "src/sim/device.h"

#include <algorithm>
#include <cstdint>
#include <memory>

namespace gjoin::sim {

Device::Device(const hw::HardwareSpec& spec, util::ThreadPool* pool)
    : spec_(spec),
      cost_model_(spec.gpu),
      memory_(spec.gpu.device_memory_bytes),
      pool_(pool != nullptr ? pool : util::ThreadPool::Default()) {}

util::Result<LaunchResult> Device::Launch(
    const LaunchConfig& config, const std::function<void(Block&)>& body,
    const std::function<void(Block&)>& epilogue) {
  if (config.num_blocks <= 0) {
    return util::Status::Invalid("launch '" + config.name +
                                 "': num_blocks must be positive");
  }
  if (config.threads_per_block <= 0 ||
      config.threads_per_block > spec_.gpu.max_threads_per_block ||
      config.threads_per_block % spec_.gpu.warp_size != 0) {
    return util::Status::Invalid(
        "launch '" + config.name + "': invalid block size " +
        std::to_string(config.threads_per_block));
  }
  if (config.shared_mem_bytes > spec_.gpu.shared_mem_per_block) {
    return util::Status::Invalid(
        "launch '" + config.name + "': shared memory request " +
        std::to_string(config.shared_mem_bytes) + " exceeds limit " +
        std::to_string(spec_.gpu.shared_mem_per_block));
  }

  const int num_blocks = config.num_blocks;
  LaunchResult result;
  if (!epilogue) {
    const size_t workers = std::min<size_t>(pool_->num_threads(),
                                            static_cast<size_t>(num_blocks));
    std::vector<hw::KernelStats> worker_stats(workers);

    // Blocks are dealt to workers in contiguous ranges; each worker
    // reuses one SharedMemory scratchpad across its blocks.
    pool_->ParallelForRanges(
        static_cast<size_t>(num_blocks),
        [&](size_t worker, size_t begin, size_t end) {
          SharedMemory shared(config.shared_mem_bytes);
          hw::KernelStats local;
          for (size_t b = begin; b < end; ++b) {
            shared.Reset();
            Block block(static_cast<int>(b), num_blocks,
                        config.threads_per_block, &shared);
            body(block);
            local.Merge(block.TakeStats());
          }
          worker_stats[worker] = local;
        });
    for (const auto& ws : worker_stats) result.stats.Merge(ws);
  } else {
    // Two-phase deterministic launch: bodies run concurrently on their
    // own scratchpads, then the epilogue visits the surviving blocks in
    // ascending id on this thread (see the header comment). Epilogue
    // charges land on the block's own stats, so per-block totals — and
    // with them max_block_cycles — match single-threaded inline
    // execution exactly.
    std::vector<std::unique_ptr<SharedMemory>> shared(
        static_cast<size_t>(num_blocks));
    std::vector<std::unique_ptr<Block>> blocks(
        static_cast<size_t>(num_blocks));
    pool_->ParallelForRanges(
        static_cast<size_t>(num_blocks),
        [&](size_t /*worker*/, size_t begin, size_t end) {
          for (size_t b = begin; b < end; ++b) {
            shared[b] = std::make_unique<SharedMemory>(config.shared_mem_bytes);
            blocks[b] = std::make_unique<Block>(static_cast<int>(b), num_blocks,
                                                config.threads_per_block,
                                                shared[b].get());
            body(*blocks[b]);
          }
        });
    for (int b = 0; b < num_blocks; ++b) {
      epilogue(*blocks[static_cast<size_t>(b)]);
      result.stats.Merge(blocks[static_cast<size_t>(b)]->TakeStats());
    }
  }
  result.cost = cost_model_.KernelTime(result.stats);
  result.seconds = result.cost.total_s;

  {
    util::MutexLock lock(&profile_mu_);
    profile_.push_back({config.name, result.stats, result.seconds});
  }
  return result;
}

std::vector<ProfileEntry> Device::profile() const {
  util::MutexLock lock(&profile_mu_);
  return profile_;
}

double Device::ProfiledSeconds(const std::string& substr) const {
  util::MutexLock lock(&profile_mu_);
  double total = 0;
  for (const auto& entry : profile_) {
    if (substr.empty() || entry.name.find(substr) != std::string::npos) {
      total += entry.seconds;
    }
  }
  return total;
}

void Device::ClearProfile() {
  util::MutexLock lock(&profile_mu_);
  profile_.clear();
}

Device RelaxedCapacityDevice(const Device& like) {
  hw::HardwareSpec spec = like.spec();
  spec.gpu.device_memory_bytes = SIZE_MAX / 4;
  return Device(spec, like.pool());
}

}  // namespace gjoin::sim
