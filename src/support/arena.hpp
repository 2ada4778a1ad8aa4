#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace sts {

/// Bump allocator over geometrically growing heap blocks.
///
/// The scheduler hot paths (partitioner ready heaps and builder scratch,
/// per-block streaming contexts) need O(n) scratch arrays per request but
/// must not pay one heap allocation per node or per loop iteration. An Arena
/// hands out pointer-bump slices from a small number of large blocks —
/// O(log total_bytes) heap allocations for any request — and `reset()`
/// rewinds to empty while keeping the blocks for reuse.
///
/// Allocations are never individually freed, so only trivially destructible
/// element types are allowed (enforced by alloc_array). Memory is returned
/// uninitialized.
///
/// Observability: every block the arena takes from the heap is reported to
/// the process-wide heap hook (see set_heap_hook). Benches install a
/// counting hook to assert that scheduling a request costs O(1)-ish arena
/// heap blocks instead of per-node allocations.
class Arena {
 public:
  /// Called for every heap block an arena allocates, with the block size in
  /// bytes. Must be async-signal-like: no locks, no allocation.
  using HeapHook = void (*)(std::size_t bytes) noexcept;

  static void set_heap_hook(HeapHook hook) noexcept {
    heap_hook_slot().store(hook, std::memory_order_release);
  }

  explicit Arena(std::size_t first_block_bytes = std::size_t{1} << 16)
      : next_block_bytes_(first_block_bytes < 64 ? 64 : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw bump allocation; alignment must be a power of two.
  [[nodiscard]] void* alloc(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    for (;;) {
      if (block_index_ < blocks_.size()) {
        Block& block = blocks_[block_index_];
        const auto base = reinterpret_cast<std::uintptr_t>(block.data.get());
        const std::uintptr_t aligned = (base + offset_ + (align - 1)) & ~(align - 1);
        const std::size_t needed = (aligned - base) + bytes;
        if (needed <= block.size) {
          offset_ = needed;
          return reinterpret_cast<void*>(aligned);
        }
        // Block exhausted: move on (a later reused block may fit).
        ++block_index_;
        offset_ = 0;
        continue;
      }
      grow(bytes + align);
    }
  }

  /// `count` uninitialized elements of a trivially destructible type.
  template <typename T>
  [[nodiscard]] std::span<T> alloc_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors: element type must be trivially destructible");
    return {static_cast<T*>(alloc(count * sizeof(T), alignof(T))), count};
  }

  /// `count` value-initialized elements.
  template <typename T>
  [[nodiscard]] std::span<T> alloc_zeroed(std::size_t count) {
    std::span<T> out = alloc_array<T>(count);
    for (T& slot : out) slot = T{};
    return out;
  }

  /// Rewinds to empty; keeps every block for reuse (no heap traffic).
  void reset() noexcept {
    block_index_ = 0;
    offset_ = 0;
  }

  [[nodiscard]] std::size_t heap_blocks() const noexcept { return blocks_.size(); }
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  static std::atomic<HeapHook>& heap_hook_slot() noexcept {
    static std::atomic<HeapHook> hook{nullptr};
    return hook;
  }

  void grow(std::size_t at_least) {
    std::size_t size = next_block_bytes_;
    while (size < at_least) size *= 2;
    next_block_bytes_ = size * 2;  // geometric growth keeps block count O(log)
    if (const HeapHook hook = heap_hook_slot().load(std::memory_order_acquire)) hook(size);
    // Uninitialized, as documented: zeroing a fresh 64 KB block would cost
    // every cold request ~2 us (and ~2 ms under ThreadSanitizer).
    blocks_.push_back(Block{std::make_unique_for_overwrite<std::byte[]>(size), size});
    block_index_ = blocks_.size() - 1;
    offset_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t block_index_ = 0;  ///< block currently bumped into
  std::size_t offset_ = 0;       ///< bytes used in that block
  std::size_t next_block_bytes_;
};

}  // namespace sts
