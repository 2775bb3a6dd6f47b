// Thread-local recycling of tensor storage — the zero-realloc half of the
// runtime hot path (DESIGN.md §2 item 17).
//
// Every Tensor construction and destruction routes its buffer through a
// per-thread freelist bucketed by power-of-two capacity. Once the first
// iteration has touched every activation/gradient shape, the persistent
// worker threads stop hitting the allocator entirely: a fresh Tensor reuses
// a same-bucket buffer (still zero-filled, so semantics are unchanged) and
// a destroyed Tensor parks its buffer for the next micro-batch. Freelists
// are thread-local, so no synchronization is involved; buffers may migrate
// between threads through the p2p mailboxes (allocated on the sender,
// released on the receiver), which only rebalances the freelists.
//
// Buffers are 64-byte aligned (AlignedAllocator below): every tensor and
// every packed panel the fast kernel tier builds starts on a cache-line
// boundary, so its vector loads/stores are aligned with no peel loops.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace chimera::detail {

/// Minimal std allocator handing out 64-byte-aligned storage via the
/// aligned operator new/delete. 64 covers a full cache line and the widest
/// vector width we may ever target (AVX-512), and any smaller SIMD
/// alignment divides it.
template <class T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlignment);
  }
  /// Default-initializes, so resize(n) leaves new floats unset instead of
  /// zeroing them: a buffer about to be overwritten in full (a reshaped
  /// output, a packed message) costs no extra pass. Zeros are asked for
  /// explicitly (assign(n, 0.0f)); construction from a value falls back to
  /// allocator_traits' own.
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAllocator<U>&) const {
    return false;
  }
};

/// The storage type every Tensor (and the fast tier's packing workspace)
/// uses: a float vector whose buffer is always 64-byte aligned.
using FloatBuffer = std::vector<float, AlignedAllocator<float>>;

/// Returns an empty buffer with capacity ≥ n (recycled when a matching
/// buffer is parked, freshly reserved otherwise).
FloatBuffer arena_acquire(std::size_t n);

/// Parks `v`'s buffer on this thread's freelist (or frees it when the
/// bucket is full or the thread is shutting down).
void arena_release(FloatBuffer&& v);

/// Buffers currently parked on this thread's freelist (tests/diagnostics).
std::size_t arena_parked();

}  // namespace chimera::detail
