// Parallel semisort — Table 1: expected O(n) work, O(log n) depth w.h.p.
// [44]. Groups key-value pairs with equal keys contiguously, with no
// guarantee on the order of groups, and reports the number of groups.
//
// Following Gu, Shun, Sun and Blelloch [44], keys are first hashed; the
// hash's top bits scatter pairs into buckets (one counting pass + prefix sum
// + scatter, all parallel), and each bucket is then grouped independently in
// parallel. Within a bucket we order by full hash and resolve hash
// collisions by key equality, so groups are exact even under collisions.
//
// This is the work-efficient replacement for comparison sorting in the grid
// construction of Section 4.1 of the paper.
#ifndef PDBSCAN_PRIMITIVES_SEMISORT_H_
#define PDBSCAN_PRIMITIVES_SEMISORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "containers/uninitialized_vector.h"
#include "parallel/scheduler.h"
#include "primitives/random.h"
#include "primitives/scan.h"

namespace pdbscan::primitives {

// Result of a semisort: `items` holds the input pairs reordered so that
// pairs with equal keys are contiguous; group g occupies
// items[group_offsets[g] .. group_offsets[g+1]).
template <typename K, typename V>
struct SemisortResult {
  containers::UninitializedVector<std::pair<K, V>> items;
  std::vector<size_t> group_offsets;  // Size num_groups + 1.

  size_t num_groups() const {
    return group_offsets.empty() ? 0 : group_offsets.size() - 1;
  }
};

// Semisorts `pairs` using `hash` (to uint64_t) and `eq` on keys.
template <typename K, typename V, typename HashF, typename EqF>
SemisortResult<K, V> Semisort(std::span<const std::pair<K, V>> pairs,
                              HashF&& hash, EqF&& eq) {
  const size_t n = pairs.size();
  SemisortResult<K, V> result;
  if (n == 0) {
    result.group_offsets.push_back(0);
    return result;
  }

  // Every n-sized buffer below is filled by a parallel loop, so it is
  // allocated uninitialized and first touched there.
  containers::UninitializedVector<uint64_t> hashes(n);
  parallel::parallel_for(0, n,
                         [&](size_t i) { hashes[i] = hash(pairs[i].first); });

  // Bucket count: roughly n / 256, power of two, capped.
  size_t num_buckets = 1;
  while (num_buckets < (1u << 14) && num_buckets * 256 < n) num_buckets *= 2;
  // num_buckets is a power of two; route on the top log2(num_buckets) bits.
  const int log_buckets = __builtin_ctzll(num_buckets);
  auto bucket_of = [&](uint64_t h) -> size_t {
    return log_buckets == 0 ? 0 : (h >> (64 - log_buckets));
  };

  // Counting scatter of indices into buckets.
  constexpr size_t kBlock = 1 << 14;
  const size_t num_blocks = (n + kBlock - 1) / kBlock;
  std::vector<size_t> counts(num_blocks * num_buckets, 0);
  parallel::parallel_for(
      0, num_blocks,
      [&](size_t b) {
        const size_t lo = b * kBlock;
        const size_t hi = lo + kBlock < n ? lo + kBlock : n;
        size_t* my_counts = counts.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) ++my_counts[bucket_of(hashes[i])];
      },
      1);
  std::vector<size_t> bucket_starts(num_buckets + 1, 0);
  {
    size_t offset = 0;
    for (size_t k = 0; k < num_buckets; ++k) {
      bucket_starts[k] = offset;
      for (size_t b = 0; b < num_blocks; ++b) {
        const size_t c = counts[b * num_buckets + k];
        counts[b * num_buckets + k] = offset;
        offset += c;
      }
    }
    bucket_starts[num_buckets] = offset;
  }
  // Input indices scattered by bucket.
  containers::UninitializedVector<uint32_t> order(n);
  parallel::parallel_for(
      0, num_blocks,
      [&](size_t b) {
        const size_t lo = b * kBlock;
        const size_t hi = lo + kBlock < n ? lo + kBlock : n;
        size_t* my_offsets = counts.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) {
          order[my_offsets[bucket_of(hashes[i])]++] = static_cast<uint32_t>(i);
        }
      },
      1);

  // Group within each bucket: sort by hash, then split equal-hash runs by
  // key equality. Records a flag per position: 1 iff a new group starts
  // (plus a zero at n, so the scan below leaves the total there).
  containers::UninitializedVector<size_t> group_start(n + 1);
  parallel::parallel_for(
      0, num_buckets,
      [&](size_t k) {
        const size_t lo = bucket_starts[k];
        const size_t hi = bucket_starts[k + 1];
        if (lo == hi) return;
        std::sort(order.begin() + lo, order.begin() + hi,
                  [&](uint32_t x, uint32_t y) { return hashes[x] < hashes[y]; });
        size_t i = lo;
        while (i < hi) {
          // Equal-hash run [i, j).
          size_t j = i + 1;
          while (j < hi && hashes[order[j]] == hashes[order[i]]) ++j;
          // Within the run, group by key equality (runs are almost always
          // singletons; quadratic fallback handles hash collisions).
          for (size_t s = i; s < j; ++s) group_start[s] = 0;
          size_t remaining_lo = i;
          while (remaining_lo < j) {
            group_start[remaining_lo] = 1;
            const K& rep = pairs[order[remaining_lo]].first;
            size_t write = remaining_lo + 1;
            for (size_t s = remaining_lo + 1; s < j; ++s) {
              if (eq(pairs[order[s]].first, rep)) {
                std::swap(order[write], order[s]);
                ++write;
              }
            }
            remaining_lo = write;
          }
          i = j;
        }
      },
      1);

  // Group offsets from the start flags, scanned in place: group_start[i]
  // becomes the number of groups starting before i, so a group starts at
  // i exactly where the count steps up.
  group_start[n] = 0;
  const size_t num_groups = ScanExclusive(std::span<size_t>(group_start));
  result.group_offsets.assign(num_groups + 1, 0);
  parallel::parallel_for(0, n, [&](size_t i) {
    if (group_start[i + 1] != group_start[i]) {
      result.group_offsets[group_start[i]] = i;
    }
  });
  result.group_offsets[num_groups] = n;

  result.items.resize(n);
  parallel::parallel_for(0, n,
                         [&](size_t i) { result.items[i] = pairs[order[i]]; });
  return result;
}

// Convenience overload for uint64_t keys with the default hash.
template <typename V>
SemisortResult<uint64_t, V> Semisort(
    std::span<const std::pair<uint64_t, V>> pairs) {
  return Semisort<uint64_t, V>(
      pairs, [](uint64_t k) { return Hash64(k); },
      [](uint64_t x, uint64_t y) { return x == y; });
}

}  // namespace pdbscan::primitives

#endif  // PDBSCAN_PRIMITIVES_SEMISORT_H_
