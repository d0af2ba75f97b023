// Parallel comparison sort — Table 1: O(n log n) work, O(log n) depth
// [11, 27]. Implemented as a cache-friendly samplesort in the style of the
// PBBS low-depth samplesort [11]: sample pivots, classify elements into
// buckets with per-block counting, scatter with offsets from a prefix sum,
// and sort buckets in parallel.
#ifndef PDBSCAN_PRIMITIVES_SORT_H_
#define PDBSCAN_PRIMITIVES_SORT_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "containers/uninitialized_vector.h"
#include "parallel/scheduler.h"
#include "primitives/random.h"

namespace pdbscan::primitives {

namespace internal {
inline constexpr size_t kSortSerialCutoff = 1 << 13;
inline constexpr size_t kSortOversample = 8;
}  // namespace internal

// Sorts `a` by `cmp`. T is a trivially copyable value such as an integer
// or a pair of them: the scatter buffer is allocated uninitialized.
template <typename T, typename Cmp = std::less<T>>
void ParallelSort(std::span<T> a, Cmp cmp = Cmp()) {
  const size_t n = a.size();
  if (n <= internal::kSortSerialCutoff || parallel::num_workers() == 1) {
    std::sort(a.begin(), a.end(), cmp);
    return;
  }

  // Choose bucket count so buckets end up around the serial cutoff.
  size_t num_buckets = 2;
  while (num_buckets < 512 && num_buckets * internal::kSortSerialCutoff < n) {
    num_buckets *= 2;
  }

  // Sample deterministic pseudorandom positions and sort the sample.
  const size_t sample_size = num_buckets * internal::kSortOversample;
  Random rng(0x5eed5a1u);
  std::vector<T> sample;
  sample.reserve(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    sample.push_back(a[rng.IthRand(i, n)]);
  }
  std::sort(sample.begin(), sample.end(), cmp);
  std::vector<T> pivots;  // num_buckets - 1 pivots.
  pivots.reserve(num_buckets - 1);
  for (size_t k = 1; k < num_buckets; ++k) {
    pivots.push_back(sample[k * internal::kSortOversample]);
  }

  // Classify each element (bucket = upper_bound over pivots).
  const size_t block = 1 << 14;
  const size_t num_blocks = (n + block - 1) / block;
  // Filled by the parallel loops below, which first-touch their pages.
  containers::UninitializedVector<uint32_t> bucket_of(n);
  std::vector<size_t> counts(num_blocks * num_buckets, 0);
  parallel::parallel_for(
      0, num_blocks,
      [&](size_t b) {
        const size_t lo = b * block;
        const size_t hi = lo + block < n ? lo + block : n;
        size_t* my_counts = counts.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) {
          const auto it =
              std::upper_bound(pivots.begin(), pivots.end(), a[i], cmp);
          const uint32_t k = static_cast<uint32_t>(it - pivots.begin());
          bucket_of[i] = k;
          ++my_counts[k];
        }
      },
      1);

  // Global offsets: bucket-major, block-minor (serial; the matrix is small).
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

  // Scatter into a temporary buffer.
  containers::UninitializedVector<T> out(n);
  parallel::parallel_for(
      0, num_blocks,
      [&](size_t b) {
        const size_t lo = b * block;
        const size_t hi = lo + block < n ? lo + block : n;
        size_t* my_offsets = counts.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) {
          out[my_offsets[bucket_of[i]]++] = std::move(a[i]);
        }
      },
      1);

  // Sort buckets in parallel and copy back.
  parallel::parallel_for(
      0, num_buckets,
      [&](size_t k) {
        const size_t lo = bucket_starts[k];
        const size_t hi = bucket_starts[k + 1];
        std::sort(out.begin() + lo, out.begin() + hi, cmp);
        std::copy(out.begin() + lo, out.begin() + hi, a.begin() + lo);
      },
      1);
}

template <typename T, typename Cmp = std::less<T>>
void ParallelSort(std::vector<T>& a, Cmp cmp = Cmp()) {
  ParallelSort(std::span<T>(a), cmp);
}

}  // namespace pdbscan::primitives

#endif  // PDBSCAN_PRIMITIVES_SORT_H_
