// FlatArray — a contiguous array that either OWNS its elements (vector
// semantics, used by every builder) or VIEWS a caller-kept-alive buffer
// (used by the persistence layer to serve a CellStructure directly out of
// an mmap'ed snapshot with zero copies).
//
// The two states exist because the DBSCAN pipeline has exactly two phases
// with different needs: builders (BuildGrid, BuildBoxCells, the streaming
// recomposition) mutate arrays freely, while the frozen
// serving structures (CellIndex) only ever read them. An owning FlatArray
// behaves like std::vector for the subset of the API the builders use; a
// viewing FlatArray is the same bytes without the copy — the reader of a
// mapped snapshot points each array at the file mapping and the query
// pipeline cannot tell the difference (it only reads data()/size()).
//
// Two extensions serve the SIMD kernel layer (src/kernels/):
//   * AllocateAligned(n) puts owned storage on a 64-byte boundary, so SoA
//     coordinate lanes start cache-line- (and AVX-512-vector-) aligned.
//   * StridedView(data, size, stride) views every stride-th element of a
//     caller-pinned buffer. This is how a mapped snapshot serves SoA lanes
//     without materializing them: lane d of D-dimensional points is a view
//     of the mapped AoS point array at offset d with stride D. Strided
//     arrays support data()/size()/stride()/operator[] and comparison;
//     begin()/end()/span() require stride() == 1.
//
// Mutating a view is defined but deliberately expensive: the first mutation
// materializes a private owned copy (copy-on-write, gathering strided
// elements). Builders never operate on views, so in practice this path only
// guards against misuse; it keeps every vector-style call site valid
// without sprinkling "is this a view?" checks through the builders. The
// same applies to vector-style mutation of aligned storage (it degrades to
// an ordinary vector); aligned buffers are written through the pointer
// AllocateAligned returns.
//
// Lifetime: a view does NOT keep its buffer alive. The owner of the
// structure holding views must pin the backing storage (CellIndex holds the
// snapshot mapping via a payload shared_ptr; see dbscan/cell_index.h).
#ifndef PDBSCAN_CONTAINERS_FLAT_ARRAY_H_
#define PDBSCAN_CONTAINERS_FLAT_ARRAY_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace pdbscan::containers {

template <typename T>
class FlatArray {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  // Alignment of AllocateAligned storage: one cache line, which is also
  // the widest vector the kernels load (64 bytes = 8 doubles = __m512d).
  static constexpr size_t kAlignment = 64;

  FlatArray() = default;
  FlatArray(const FlatArray& o) { *this = o; }
  FlatArray(FlatArray&& o) noexcept { *this = std::move(o); }

  // Owning construction/assignment from a vector (the builders' path).
  FlatArray(std::vector<T>&& v) : owned_(std::move(v)) {}
  FlatArray& operator=(std::vector<T>&& v) {
    owned_ = std::move(v);
    aligned_.reset();
    aligned_size_ = 0;
    view_ = nullptr;
    view_size_ = 0;
    view_stride_ = 1;
    return *this;
  }

  // Non-owning view of `size` elements at `data`; the caller keeps the
  // buffer alive and unchanged for the view's lifetime.
  static FlatArray View(const T* data, size_t size) {
    return StridedView(data, size, 1);
  }

  // Non-owning view of `size` elements spaced `stride` apart: element i is
  // data[i * stride]. Same lifetime contract as View().
  static FlatArray StridedView(const T* data, size_t size, size_t stride) {
    FlatArray a;
    a.view_ = data;
    a.view_size_ = size;
    a.view_stride_ = stride == 0 ? 1 : stride;
    return a;
  }

  // Replaces the contents with an owned, uninitialized, kAlignment-aligned
  // buffer of `n` elements and returns its mutable base pointer (nullptr
  // when n == 0). The caller fills all n elements.
  T* AllocateAligned(size_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "aligned storage is for trivially copyable elements");
    owned_.clear();
    view_ = nullptr;
    view_size_ = 0;
    view_stride_ = 1;
    aligned_.reset();
    aligned_size_ = 0;
    if (n == 0) return nullptr;
    // aligned_alloc requires the byte size to be a multiple of alignment.
    const size_t bytes = (n * sizeof(T) + kAlignment - 1) / kAlignment *
                         kAlignment;
    aligned_.reset(static_cast<T*>(std::aligned_alloc(kAlignment, bytes)));
    if (aligned_ == nullptr) throw std::bad_alloc();
    aligned_size_ = n;
    return aligned_.get();
  }

  FlatArray& operator=(const FlatArray& o) {
    if (this == &o) return *this;
    // Copying a view yields an equivalent view (same lifetime contract);
    // copying an owner deep-copies (preserving alignment).
    if (o.aligned_ != nullptr) {
      T* dst = AllocateAligned(o.aligned_size_);
      for (size_t i = 0; i < o.aligned_size_; ++i) dst[i] = o.aligned_.get()[i];
      return *this;
    }
    owned_ = o.owned_;
    aligned_.reset();
    aligned_size_ = 0;
    view_ = o.view_;
    view_size_ = o.view_size_;
    view_stride_ = o.view_stride_;
    return *this;
  }

  FlatArray& operator=(FlatArray&& o) noexcept {
    owned_ = std::move(o.owned_);
    aligned_ = std::move(o.aligned_);
    aligned_size_ = o.aligned_size_;
    view_ = o.view_;
    view_size_ = o.view_size_;
    view_stride_ = o.view_stride_;
    o.aligned_size_ = 0;
    o.view_ = nullptr;
    o.view_size_ = 0;
    o.view_stride_ = 1;
    return *this;
  }

  bool is_view() const { return view_ != nullptr; }
  bool is_aligned() const { return aligned_ != nullptr; }

  // Element stride of data(): 1 except for StridedView arrays.
  size_t stride() const { return view_ != nullptr ? view_stride_ : 1; }
  bool contiguous() const { return stride() == 1; }

  const T* data() const {
    if (view_ != nullptr) return view_;
    if (aligned_ != nullptr) return aligned_.get();
    return owned_.data();
  }
  size_t size() const {
    if (view_ != nullptr) return view_size_;
    if (aligned_ != nullptr) return aligned_size_;
    return owned_.size();
  }
  bool empty() const { return size() == 0; }

  const T& operator[](size_t i) const { return data()[i * stride()]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size() - 1]; }

  // Pointer iteration and span conversion require contiguous elements
  // (every array in the pipeline except SoA lanes viewed out of a mapped
  // snapshot's AoS points).
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }

  // FlatArray models std::ranges::contiguous_range (pointer iterators +
  // size()), so it converts to std::span<const T> through span's range
  // constructor wherever a span parameter is expected; span() is the
  // explicit spelling.
  std::span<const T> span() const { return std::span<const T>(data(), size()); }

  // --- Mutating API (vector subset). Materializes a view first. ----------
  T* data() {
    EnsureOwned();
    return owned_.data();
  }
  T& operator[](size_t i) {
    // Hot path of every builder: owned already, no copy, just the branch.
    EnsureOwned();
    return owned_[i];
  }
  iterator begin() {
    EnsureOwned();
    return owned_.data();
  }
  iterator end() {
    EnsureOwned();
    return owned_.data() + owned_.size();
  }
  void resize(size_t n) {
    EnsureOwned();
    owned_.resize(n);
  }
  void assign(size_t n, const T& v) {
    owned_.assign(n, v);
    DropNonVectorStorage();
  }
  void clear() {
    owned_.clear();
    DropNonVectorStorage();
  }
  void reserve(size_t n) {
    EnsureOwned();
    owned_.reserve(n);
  }
  void push_back(const T& v) {
    EnsureOwned();
    owned_.push_back(v);
  }

  friend bool operator==(const FlatArray& a, const FlatArray& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  struct FreeDeleter {
    void operator()(T* p) const { std::free(p); }
  };

  void DropNonVectorStorage() {
    aligned_.reset();
    aligned_size_ = 0;
    view_ = nullptr;
    view_size_ = 0;
    view_stride_ = 1;
  }

  void EnsureOwned() {
    if (view_ != nullptr) {
      owned_.resize(view_size_);
      for (size_t i = 0; i < view_size_; ++i) {
        owned_[i] = view_[i * view_stride_];
      }
    } else if (aligned_ != nullptr) {
      owned_.assign(aligned_.get(), aligned_.get() + aligned_size_);
    } else {
      return;
    }
    DropNonVectorStorage();
  }

  std::vector<T> owned_;
  // Owned aligned storage (AllocateAligned), disjoint from owned_.
  std::unique_ptr<T, FreeDeleter> aligned_;
  size_t aligned_size_ = 0;
  // Non-owning (possibly strided) view, disjoint from both owned states.
  const T* view_ = nullptr;
  size_t view_size_ = 0;
  size_t view_stride_ = 1;
};

}  // namespace pdbscan::containers

#endif  // PDBSCAN_CONTAINERS_FLAT_ARRAY_H_
