// Lock-free concurrent union-find (disjoint sets).
//
// Used in ClusterCore (Algorithm 3 of the paper) to maintain connected
// components of the cell graph on the fly, pruning connectivity queries
// between cells already known to be connected. The paper highlights that its
// structure is lock-free, in contrast to the lock-based union-find of
// PDSDBSCAN [73]; this implementation is the standard CAS-based union with
// path halving (Anderson & Woll style).
//
// Linearizability notes: Find is wait-free; Link loops on CAS and is
// lock-free. Unions performed concurrently from many threads yield the same
// final partition regardless of interleaving.
#ifndef PDBSCAN_CONTAINERS_UNION_FIND_H_
#define PDBSCAN_CONTAINERS_UNION_FIND_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

namespace pdbscan::containers {

class UnionFind {
 public:
  UnionFind() : UnionFind(0) {}

  explicit UnionFind(size_t n)
      : parent_(std::make_unique<Node[]>(n)), size_(n), capacity_(n) {
    for (size_t i = 0; i < n; ++i) {
      parent_[i].store(i, std::memory_order_relaxed);
    }
  }

  // Re-initializes to n singleton sets, reusing the existing allocation
  // whenever it is large enough (a QueryContext's workspace calls this once
  // per run). Must not race with Find/Link.
  void Reset(size_t n) {
    if (n > capacity_) {
      parent_ = std::make_unique<Node[]>(n);
      capacity_ = n;
    }
    size_ = n;
    for (size_t i = 0; i < n; ++i) {
      parent_[i].store(i, std::memory_order_relaxed);
    }
  }

  size_t size() const { return size_; }

  // Returns the current root of x's set, compressing the path as it goes.
  size_t Find(size_t x) {
    while (true) {
      size_t p = parent_[x].load(std::memory_order_acquire);
      if (p == x) return x;
      const size_t gp = parent_[p].load(std::memory_order_acquire);
      if (gp == p) return p;
      // Path halving; failure is benign (someone else compressed).
      parent_[x].compare_exchange_weak(p, gp, std::memory_order_acq_rel,
                                       std::memory_order_acquire);
      x = gp;
    }
  }

  // Unites the sets containing x and y. Returns true iff they were separate.
  bool Link(size_t x, size_t y) {
    while (true) {
      size_t rx = Find(x);
      size_t ry = Find(y);
      if (rx == ry) return false;
      // Deterministic orientation: larger root points at smaller root. With
      // path halving the structure stays shallow in practice.
      if (rx < ry) std::swap(rx, ry);
      size_t expected = rx;
      if (parent_[rx].compare_exchange_strong(expected, ry,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        return true;
      }
      // rx was no longer a root; retry from the new roots.
      x = rx;
      y = ry;
    }
  }

  // True iff x and y are currently in the same set. Only stable once all
  // concurrent Links that could affect x and y have completed.
  bool SameSet(size_t x, size_t y) { return Find(x) == Find(y); }

 private:
  using Node = std::atomic<size_t>;
  std::unique_ptr<Node[]> parent_;
  size_t size_;
  size_t capacity_;
};

}  // namespace pdbscan::containers

#endif  // PDBSCAN_CONTAINERS_UNION_FIND_H_
