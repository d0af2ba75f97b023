// Grid cell construction — Section 4.1 of the paper.
//
// Points are assigned to cells of side epsilon/sqrt(d) anchored at the
// dataset's bounding-box corner. Grouping points by cell uses *semisort*
// (not a comparison sort), which is the paper's key to O(n) expected work:
// only same-cell grouping matters, not cell ordering. Non-empty cells go
// into a phase-concurrent hash table keyed by integer cell coordinates.
//
// Neighboring cells (cells whose boxes are within epsilon) are found by
// offset enumeration for d <= 3 and, as in Section 5.1, via a parallel k-d
// tree over cell centers for higher dimensions, where enumerating the
// (2 * (floor(sqrt(d)) + 1) + 1)^d candidate offsets is impractical. Both
// paths apply the exact integer criterion
//     sum_i max(0, |delta_i| - 1)^2 <= d
// (equivalent to box distance <= epsilon, since side = epsilon/sqrt(d)).
#ifndef PDBSCAN_DBSCAN_GRID_H_
#define PDBSCAN_DBSCAN_GRID_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "containers/hash_table.h"
#include "dbscan/cell_structure.h"
#include "dbscan/metric.h"
#include "geometry/kd_tree.h"
#include "geometry/point.h"
#include "parallel/scheduler.h"
#include "primitives/reduce.h"
#include "primitives/semisort.h"
#include "telemetry/trace.h"

namespace pdbscan::dbscan {

namespace internal {

// True iff cells at integer offset `delta` can contain points within
// epsilon of each other under `metric`. Exact integer criteria, derived
// from the minimum box-to-box distance between cells at offset delta
// (gap_i = max(0, |delta_i| - 1) cells of side s along axis i):
//   L2   (s = eps/sqrt(D)):  sum_i gap_i^2 * s^2 <= eps^2  <=>  sum <= D
//   L1   (s = eps/D):        sum_i gap_i  * s    <= eps    <=>  sum <= D
//   Linf (s = eps):          max_i gap_i  * s    <= eps    <=>  all |delta_i| <= 2
template <int D>
bool OffsetWithinEpsilon(const geometry::CellCoords<D>& delta,
                         Metric metric = Metric::kL2) {
  switch (metric) {
    case Metric::kL2: {
      int64_t sum = 0;
      for (int i = 0; i < D; ++i) {
        const int64_t gap = std::abs(static_cast<int64_t>(delta[i])) - 1;
        if (gap > 0) sum += gap * gap;
      }
      return sum <= D;
    }
    case Metric::kL1: {
      int64_t sum = 0;
      for (int i = 0; i < D; ++i) {
        const int64_t gap = std::abs(static_cast<int64_t>(delta[i])) - 1;
        if (gap > 0) sum += gap;
      }
      return sum <= D;
    }
    case Metric::kLinf: {
      for (int i = 0; i < D; ++i) {
        if (std::abs(static_cast<int64_t>(delta[i])) > 2) return false;
      }
      return true;
    }
  }
  return false;
}

// All non-zero offsets satisfying OffsetWithinEpsilon (used for d <= 3).
// The enumeration order is deterministic (odometer over [-k, k]^D) and is
// part of the adjacency contract: every probe strategy (hash table, packed
// keys) walks the SAME order so the CSR neighbor lists are identical.
template <int D>
std::vector<geometry::CellCoords<D>> NeighborOffsets(
    Metric metric = Metric::kL2) {
  const int k = static_cast<int>(MetricHalo<D>(metric));
  std::vector<geometry::CellCoords<D>> offsets;
  geometry::CellCoords<D> delta{};
  // Odometer enumeration of [-k, k]^D.
  for (int i = 0; i < D; ++i) delta[i] = -k;
  while (true) {
    bool zero = true;
    for (int i = 0; i < D; ++i) zero = zero && delta[i] == 0;
    if (!zero && OffsetWithinEpsilon<D>(delta, metric)) {
      offsets.push_back(delta);
    }
    int dim = D - 1;
    while (dim >= 0 && delta[dim] == k) {
      delta[dim] = -k;
      --dim;
    }
    if (dim < 0) break;
    ++delta[dim];
  }
  return offsets;
}

// The per-metric offset tables, computed once per (D, metric) and never
// destroyed (function-local static pointers).
template <int D>
const std::vector<geometry::CellCoords<D>>& CachedNeighborOffsets(
    Metric metric) {
  static const auto* const kL2 =
      new std::vector<geometry::CellCoords<D>>(NeighborOffsets<D>(Metric::kL2));
  static const auto* const kL1 =
      new std::vector<geometry::CellCoords<D>>(NeighborOffsets<D>(Metric::kL1));
  static const auto* const kLinf = new std::vector<geometry::CellCoords<D>>(
      NeighborOffsets<D>(Metric::kLinf));
  switch (metric) {
    case Metric::kL2: return *kL2;
    case Metric::kL1: return *kL1;
    case Metric::kLinf: return *kLinf;
  }
  return *kL2;
}

template <int D>
struct CellCoordsHash {
  uint64_t operator()(const geometry::CellCoords<D>& c) const {
    return geometry::HashCellCoords<D>(c);
  }
};

template <int D>
struct CellCoordsEq {
  bool operator()(const geometry::CellCoords<D>& a,
                  const geometry::CellCoords<D>& b) const {
    return a == b;
  }
};

}  // namespace internal

// Bounding box of `input` (parallel reduce). The grid anchors its cells at
// bounds.min; the result is epsilon-independent, so a CellLayout caches it
// across epsilon changes and BuildCells passes it back as the BuildGrid
// bounds hint.
template <int D>
geometry::BBox<D> ComputeBounds(std::span<const geometry::Point<D>> input) {
  using geometry::BBox;
  return primitives::ReduceIndex(
      size_t{0}, input.size(), BBox<D>::Empty(),
      [&](size_t i) {
        BBox<D> b = BBox<D>::Empty();
        b.Extend(input[i]);
        return b;
      },
      [](BBox<D> a, const BBox<D>& b) {
        a.Extend(b);
        return a;
      });
}

// The epsilon-grid cell side for dimension D: the largest side for which a
// cell's diameter under the metric is at most epsilon (so any core point's
// whole cell joins its cluster). L2: eps/sqrt(D); L1: eps/D; Linf: eps.
template <int D>
double GridSide(double epsilon, Metric metric = Metric::kL2) {
  switch (metric) {
    case Metric::kL2: return epsilon / std::sqrt(double(D));
    case Metric::kL1: return epsilon / double(D);
    case Metric::kLinf: return epsilon;
  }
  return epsilon / std::sqrt(double(D));
}

// Test knob: forces ForEachNeighborAmong to take the generic hash-probe
// path even where the packed-cell-key fast path applies, so the property
// sweep can assert the two produce bit-identical adjacency.
inline std::atomic<bool>& ForceGenericAdjacencyFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}

// Invokes emit(i, j) for every ordered pair of positions i != j into `ids`
// such that cells ids[i] and ids[j] can contain points within epsilon of
// each other (the exact integer criterion of OffsetWithinEpsilon over
// cells.coords). Offset enumeration probing a hash table for d <= 3, a k-d
// tree over the cells' centers for higher d (Section 5.1). The loop over i
// is a parallel_for: emit must tolerate concurrent calls with distinct i
// (all calls for one i are serial, in deterministic order).
// `origin`/`side` are the grid anchoring that produced the coords. This is
// the ONE place the neighbor criterion and its dimension dispatch live —
// shared by BuildGridAdjacency (ids = every cell) and the sharded
// boundary merge (ids = seam cells only), so the two cannot diverge.
template <int D, typename Emit>
void ForEachNeighborAmong(const CellStructure<D>& cells,
                          std::span<const uint32_t> ids,
                          const geometry::Point<D>& origin, double side,
                          Emit&& emit) {
  using geometry::BBox;
  using geometry::CellCoords;
  using geometry::Point;
  if (ids.empty()) return;
  const Metric metric = cells.metric;
  if constexpr (D == 2) {
    // Packed-cell-key fast path for the 2-D L1 grid (the bolu-atx
    // grid2d-L1 idiom): both coordinates biased into uint32 and packed
    // into one uint64 key, probed by binary search over a sorted key
    // vector instead of hash probes. Bit-identical to the generic path by
    // construction — per source cell it walks the SAME deterministic
    // offset enumeration and emits in the same order; only the membership
    // probe differs. Falls back to the generic path when the coordinate
    // range (plus the probe halo) doesn't fit 32 bits, or when the test
    // knob forces it.
    if (metric == Metric::kL1 &&
        !ForceGenericAdjacencyFlag().load(std::memory_order_relaxed)) {
      const auto& offsets = internal::CachedNeighborOffsets<2>(metric);
      int64_t lo[2] = {INT64_MAX, INT64_MAX};
      int64_t hi[2] = {INT64_MIN, INT64_MIN};
      for (size_t i = 0; i < ids.size(); ++i) {
        const CellCoords<2>& c = cells.coords[ids[i]];
        for (int a = 0; a < 2; ++a) {
          lo[a] = std::min(lo[a], c[static_cast<size_t>(a)]);
          hi[a] = std::max(hi[a], c[static_cast<size_t>(a)]);
        }
      }
      const int64_t halo = static_cast<int64_t>(MetricHalo<2>(metric));
      const bool fits = hi[0] - lo[0] <= int64_t{UINT32_MAX} - 2 * halo - 2 &&
                        hi[1] - lo[1] <= int64_t{UINT32_MAX} - 2 * halo - 2;
      if (fits) {
        // bias so every probe (coord +- halo) packs to a positive uint32.
        const int64_t bias_x = lo[0] - halo - 1;
        const int64_t bias_y = lo[1] - halo - 1;
        const auto pack = [&](int64_t cx, int64_t cy) {
          return (static_cast<uint64_t>(cx - bias_x) << 32) |
                 static_cast<uint64_t>(cy - bias_y);
        };
        // Sorted (key, position-in-ids) pairs; keys are unique because
        // candidate cells are distinct.
        std::vector<std::pair<uint64_t, uint32_t>> keyed(ids.size());
        parallel::parallel_for(0, ids.size(), [&](size_t i) {
          const CellCoords<2>& c = cells.coords[ids[i]];
          keyed[i] = {pack(c[0], c[1]), static_cast<uint32_t>(i)};
        });
        std::sort(keyed.begin(), keyed.end());
        parallel::parallel_for(0, ids.size(), [&](size_t i) {
          const CellCoords<2>& c = cells.coords[ids[i]];
          for (const CellCoords<2>& delta : offsets) {
            const uint64_t key = pack(c[0] + delta[0], c[1] + delta[1]);
            const auto it = std::lower_bound(
                keyed.begin(), keyed.end(), key,
                [](const std::pair<uint64_t, uint32_t>& kv, uint64_t k) {
                  return kv.first < k;
                });
            if (it != keyed.end() && it->first == key) {
              emit(i, static_cast<size_t>(it->second));
            }
          }
        });
        return;
      }
    }
  }
  if constexpr (D <= 3) {
    // Hash table over the candidate cells: coords -> position in `ids`.
    containers::ConcurrentMap<CellCoords<D>, uint32_t,
                              internal::CellCoordsHash<D>,
                              internal::CellCoordsEq<D>>
        table(ids.size());
    parallel::parallel_for(0, ids.size(), [&](size_t i) {
      table.Insert(cells.coords[ids[i]], static_cast<uint32_t>(i));
    });
    const auto& offsets = internal::CachedNeighborOffsets<D>(metric);
    parallel::parallel_for(0, ids.size(), [&](size_t i) {
      for (const CellCoords<D>& delta : offsets) {
        CellCoords<D> probe = cells.coords[ids[i]];
        for (int a = 0; a < D; ++a) probe[a] += delta[a];
        const uint32_t* j = table.Find(probe);
        if (j != nullptr) emit(i, static_cast<size_t>(*j));
      }
    });
  } else {
    // k-d tree over the candidate cells' centers (Section 5.1).
    const int k = static_cast<int>(MetricHalo<D>(metric));
    std::vector<Point<D>> centers(ids.size());
    parallel::parallel_for(0, ids.size(), [&](size_t i) {
      for (int a = 0; a < D; ++a) {
        centers[i][a] = origin[a] + side * (cells.coords[ids[i]][a] + 0.5);
      }
    });
    geometry::KdTree<D> tree{std::span<const Point<D>>(centers)};
    parallel::parallel_for(0, ids.size(), [&](size_t i) {
      BBox<D> query;
      for (int a = 0; a < D; ++a) {
        query.min[a] = centers[i][a] - (k + 0.5) * side;
        query.max[a] = centers[i][a] + (k + 0.5) * side;
      }
      tree.ForEachInBox(query, [&](uint32_t other) {
        if (other == i) return true;
        CellCoords<D> delta;
        for (int a = 0; a < D; ++a) {
          delta[a] =
              cells.coords[ids[other]][a] - cells.coords[ids[i]][a];
        }
        if (internal::OffsetWithinEpsilon<D>(delta, metric)) {
          emit(i, static_cast<size_t>(other));
        }
        return true;
      });
    });
  }
}

// Fills the CSR neighbor adjacency of `cells` from cells.coords: for every
// cell, all other cells whose boxes are within epsilon (the exact integer
// criterion of OffsetWithinEpsilon), via ForEachNeighborAmong over the full
// cell set. `origin`/`side` are the grid anchoring that produced the
// coords. Factored out of BuildGrid so the streaming DynamicCellIndex can
// re-derive adjacency for an incrementally recomposed structure through
// the same code path.
template <int D>
void BuildGridAdjacency(CellStructure<D>& cells,
                        const geometry::Point<D>& origin, double side) {
  const size_t num_cells = cells.num_cells();
  if (num_cells == 0) {  // Empty (streaming) structure: trivial CSR.
    cells.nbr_offsets.assign(1, 0);
    cells.nbrs.clear();
    return;
  }
  std::vector<uint32_t> all(num_cells);
  parallel::parallel_for(0, num_cells,
                         [&](size_t c) { all[c] = static_cast<uint32_t>(c); });
  std::vector<std::vector<uint32_t>> neighbor_lists(num_cells);
  // Positions into `all` are cell ids, so (i, j) is a cell pair directly.
  ForEachNeighborAmong<D>(cells, std::span<const uint32_t>(all), origin, side,
                          [&](size_t i, size_t j) {
                            neighbor_lists[i].push_back(
                                static_cast<uint32_t>(j));
                          });
  FlattenNeighbors(neighbor_lists, cells);
}

// Builds the grid cell structure for `input` with parameter `epsilon`.
// `bounds_hint`, when non-null, skips the reduction pass; its `min` corner
// becomes the grid anchor origin and is the ONLY field read, so any box
// containing `input` is valid. BuildCells passes ComputeBounds of the full
// point set; the sharded build deliberately passes the GLOBAL
// dataset bounds with a shard-subset input so every shard lands on the
// single-index lattice. Do not start reading other fields of the hint
// without revisiting those callers.
template <int D>
CellStructure<D> BuildGrid(std::span<const geometry::Point<D>> input,
                           double epsilon,
                           const geometry::BBox<D>* bounds_hint = nullptr,
                           Metric metric = Metric::kL2) {
  using geometry::BBox;
  using geometry::CellCoords;
  using geometry::Point;

  telemetry::TraceSpan span("build_grid");
  CellStructure<D> cells;
  cells.epsilon = epsilon;
  cells.metric = metric;
  const size_t n = input.size();
  if (n == 0) {
    cells.offsets.push_back(0);
    cells.nbr_offsets.push_back(0);
    return cells;
  }
  const double side = GridSide<D>(epsilon, metric);

  const BBox<D> bounds =
      bounds_hint != nullptr ? *bounds_hint : ComputeBounds<D>(input);
  const Point<D> origin = bounds.min;

  // Semisort (cell coords, point index) pairs: same-cell points end up
  // contiguous in expected O(n) work.
  std::vector<std::pair<CellCoords<D>, uint32_t>> pairs(n);
  parallel::parallel_for(0, n, [&](size_t i) {
    pairs[i] = {geometry::CellOf<D>(input[i], origin, side),
                static_cast<uint32_t>(i)};
  });
  auto grouped = primitives::Semisort<CellCoords<D>, uint32_t>(
      std::span<const std::pair<CellCoords<D>, uint32_t>>(pairs),
      [](const CellCoords<D>& c) { return geometry::HashCellCoords<D>(c); },
      [](const CellCoords<D>& a, const CellCoords<D>& b) { return a == b; });
  pairs.clear();
  pairs.shrink_to_fit();

  const size_t num_cells = grouped.num_groups();
  cells.offsets = std::move(grouped.group_offsets);
  cells.points.resize(n);
  cells.orig_index.resize(n);
  parallel::parallel_for(0, n, [&](size_t i) {
    cells.orig_index[i] = grouped.items[i].second;
    cells.points[i] = input[grouped.items[i].second];
  });
  cells.coords.resize(num_cells);
  cells.cell_boxes.resize(num_cells);
  parallel::parallel_for(0, num_cells, [&](size_t c) {
    cells.coords[c] = grouped.items[cells.offsets[c]].first;
    cells.cell_boxes[c] = geometry::CellBBox<D>(cells.coords[c], origin, side);
  });

  BuildGridAdjacency(cells, origin, side);
  cells.BuildSoALanes();
  return cells;
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_GRID_H_
