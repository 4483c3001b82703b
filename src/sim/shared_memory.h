// Simulated per-block programmable shared memory.
//
// CUDA shared memory is a KB-sized scratchpad private to a thread block.
// Kernels allocate typed regions out of it (hash-table heads, bucket
// staging areas, output buffers); exceeding the block's configured
// capacity is a launch-time error on real hardware and is surfaced here
// as a nullptr from Alloc, which kernels translate into a Status. The
// capacity limit is what forces the partitioning fanout and partition
// sizes of Section III-A.

#ifndef GJOIN_SIM_SHARED_MEMORY_H_
#define GJOIN_SIM_SHARED_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

namespace gjoin::sim {

/// \brief Bump allocator over a fixed-size block scratchpad.
class SharedMemory {
 public:
  /// \param capacity_bytes the block's shared-memory budget.
  /// The scratchpad is left uninitialized: Alloc zeroes every region it
  /// hands out, so nothing can read a byte the block did not write.
  explicit SharedMemory(size_t capacity_bytes)
      : capacity_(capacity_bytes),
        storage_(std::make_unique_for_overwrite<std::byte[]>(capacity_bytes)) {}

  SharedMemory(const SharedMemory&) = delete;
  SharedMemory& operator=(const SharedMemory&) = delete;

  /// Returns a zeroed array of `count` T, or nullptr if the allocation
  /// does not fit in the remaining capacity. Alignment is 16 bytes.
  template <typename T>
  T* Alloc(size_t count) {
    const size_t bytes = count * sizeof(T);
    size_t offset = (used_ + 15) & ~size_t{15};
    if (offset + bytes > capacity_) return nullptr;
    used_ = offset + bytes;
    T* ptr = reinterpret_cast<T*>(storage_.get() + offset);
    std::memset(static_cast<void*>(ptr), 0, bytes);
    return ptr;
  }

  /// Frees everything (between blocks reusing the same scratchpad).
  void Reset() { used_ = 0; }

  /// Bytes currently allocated.
  size_t used() const { return used_; }
  /// The block's shared-memory budget.
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  size_t used_ = 0;
  std::unique_ptr<std::byte[]> storage_;
};

}  // namespace gjoin::sim

#endif  // GJOIN_SIM_SHARED_MEMORY_H_
