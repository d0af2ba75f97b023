// UninitializedVector — a std::vector whose sizing constructor and resize()
// leave new elements uninitialized, for buffers that a parallel loop
// overwrites completely right after allocation.
//
// std::vector value-initializes: vector<T>(n) zero-fills all n elements on
// the calling thread before the parallel loop runs. For the grid build's
// multi-megabyte buffers that serial pass is where the pages are first
// touched, so it costs page faults on one thread and then a second write
// per element. With this allocator the parallel loop's own writes are the
// first touch.
//
// Only implicit-lifetime element types are allowed (trivially copy
// constructible and trivially destructible, e.g. integers or a std::pair of
// them): storage from operator new implicitly creates such objects, so
// assigning to an element that was never constructed is well defined.
// Constructing from a value (push_back, resize(n, v)) behaves as usual.
#ifndef PDBSCAN_CONTAINERS_UNINITIALIZED_VECTOR_H_
#define PDBSCAN_CONTAINERS_UNINITIALIZED_VECTOR_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace pdbscan::containers {

template <typename T>
struct UninitializedAllocator {
  static_assert(std::is_trivially_copy_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "uninitialized storage is for implicit-lifetime types");
  using value_type = T;

  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}

  T* allocate(size_t n) { return std::allocator<T>().allocate(n); }
  void deallocate(T* p, size_t n) noexcept {
    std::allocator<T>().deallocate(p, n);
  }

  // Default construction leaves the element's bytes as they are.
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }

  friend bool operator==(const UninitializedAllocator&,
                         const UninitializedAllocator&) {
    return true;
  }
};

template <typename T>
using UninitializedVector = std::vector<T, UninitializedAllocator<T>>;

}  // namespace pdbscan::containers

#endif  // PDBSCAN_CONTAINERS_UNINITIALIZED_VECTOR_H_
