// Grid cell construction — Section 4.1 of the paper.
//
// Points are assigned to cells of side epsilon/sqrt(d) anchored at the
// dataset's bounding-box corner. Grouping points by cell uses *semisort*
// (not a comparison sort), which is the paper's key to O(n) expected work:
// only same-cell grouping matters, not cell ordering.
//
// Neighboring cells (cells whose boxes are within epsilon) are found by a
// row sweep for d <= 3 and, as in Section 5.1, via a parallel k-d tree over
// cell centers for higher dimensions, where the (2 * (floor(sqrt(d)) + 1) +
// 1)^d candidate offsets are too many. The row sweep replaces the paper's
// per-offset hash probes: the m <= n non-empty cells are sorted by
// coordinates (O(m log m) work, the only super-linear step of the grid),
// split into rows (cells sharing all but the last coordinate), and each
// source row is swept against every target row the offset table can reach
// with two pointers over the last coordinate. Both paths apply the exact
// integer criterion
//     sum_i max(0, |delta_i| - 1)^2 <= d
// (equivalent to box distance <= epsilon, since side = epsilon/sqrt(d)).
#ifndef PDBSCAN_DBSCAN_GRID_H_
#define PDBSCAN_DBSCAN_GRID_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dbscan/cell_structure.h"
#include "dbscan/metric.h"
#include "geometry/kd_tree.h"
#include "geometry/point.h"
#include "parallel/scheduler.h"
#include "primitives/filter.h"
#include "primitives/reduce.h"
#include "primitives/scan.h"
#include "primitives/semisort.h"
#include "primitives/sort.h"
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
// part of the adjacency contract: each cell's CSR neighbor list follows it,
// so the lists do not depend on how the neighbors are found.
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

// One row offset: every table offset sharing the prefix delta (all axes but
// the last) collapses into one window [lo, hi] on the last axis. Windows
// are contiguous because every metric's criterion is monotone in
// |delta_last|; the zero-prefix window spans 0, which is the cell itself.
template <int D>
struct RowOffset {
  geometry::CellCoords<D> prefix;  // prefix[D - 1] is unused (0).
  int64_t lo;
  int64_t hi;
};

// The offset table grouped into row offsets, in the table's odometer
// order. Computed once per (D, metric) and never destroyed.
template <int D>
const std::vector<RowOffset<D>>& CachedRowOffsets(Metric metric) {
  const auto build = [](Metric m) {
    std::vector<RowOffset<D>> rows;
    for (geometry::CellCoords<D> delta : CachedNeighborOffsets<D>(m)) {
      const int64_t last = delta[D - 1];
      delta[D - 1] = 0;
      if (rows.empty() || rows.back().prefix != delta) {
        rows.push_back({delta, last, last});
      } else {
        rows.back().hi = last;
      }
    }
    return new std::vector<RowOffset<D>>(std::move(rows));
  };
  static const auto* const kL2 = build(Metric::kL2);
  static const auto* const kL1 = build(Metric::kL1);
  static const auto* const kLinf = build(Metric::kLinf);
  switch (metric) {
    case Metric::kL2: return *kL2;
    case Metric::kL1: return *kL1;
    case Metric::kLinf: return *kLinf;
  }
  return *kL2;
}

// Lexicographic order and equality on all axes but the last.
template <int D>
bool RowPrefixLess(const geometry::CellCoords<D>& a,
                   const geometry::CellCoords<D>& b) {
  for (int i = 0; i + 1 < D; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

template <int D>
bool SameRow(const geometry::CellCoords<D>& a,
             const geometry::CellCoords<D>& b) {
  for (int i = 0; i + 1 < D; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// The d <= 3 neighbor finder: candidate cells sorted by coordinates and
// split into rows, built once and swept any number of times (the CSR build
// sweeps twice: count, then fill). Cell ids are untouched; the sort only
// permutes this side structure.
template <int D>
class RowSweep {
 public:
  RowSweep(const CellStructure<D>& cells, std::span<const uint32_t> ids)
      : row_offsets_(CachedRowOffsets<D>(cells.metric)) {
    using geometry::CellCoords;
    const size_t m = ids.size();
    std::vector<std::pair<CellCoords<D>, uint32_t>> sorted(m);
    parallel::parallel_for(0, m, [&](size_t i) {
      sorted[i] = {cells.coords[ids[i]], static_cast<uint32_t>(i)};
    });
    // Coordinates are distinct, so the order never consults the position.
    primitives::ParallelSort(sorted);
    pos_.resize(m);
    last_.resize(m);
    parallel::parallel_for(0, m, [&](size_t k) {
      pos_[k] = sorted[k].second;
      last_[k] = sorted[k].first[D - 1];
    });
    row_start_ = primitives::FilterIndex(m, [&](size_t k) {
      return k == 0 || !SameRow<D>(sorted[k].first, sorted[k - 1].first);
    });
    row_key_.resize(row_start_.size());
    parallel::parallel_for(0, row_start_.size(), [&](size_t r) {
      row_key_[r] = sorted[row_start_[r]].first;
    });
    row_start_.push_back(m);
  }

  // Invokes emit(i, j) for every neighbor pair of positions into `ids`.
  // Tasks take blocks of source rows (a long row splits into segments).
  // For each i, the calls come from one task, grouped by row offset in
  // odometer order and ascending last coordinate within a row: exactly the
  // order of NeighborOffsets.
  template <typename Emit>
  void ForEach(Emit&& emit) const {
    const size_t num_rows = row_key_.size();
    parallel::parallel_for(
        0, (num_rows + kRowBlock - 1) / kRowBlock,
        [&](size_t block) {
          // cursor[o]: no row before it is row offset o's target yet. Both
          // source rows and target rows ascend, so cursors only move on.
          std::vector<size_t> cursor(row_offsets_.size(), 0);
          const size_t last_row = std::min(num_rows, (block + 1) * kRowBlock);
          for (size_t r = block * kRowBlock; r < last_row; ++r) {
            const size_t begin = row_start_[r];
            const size_t end = row_start_[r + 1];
            if (end - begin <= kSegment) {
              SweepSegment(r, begin, end, cursor, emit);
              continue;
            }
            parallel::parallel_for(
                0, (end - begin + kSegment - 1) / kSegment,
                [&](size_t s) {
                  std::vector<size_t> own = cursor;
                  const size_t b = begin + s * kSegment;
                  SweepSegment(r, b, std::min(end, b + kSegment), own, emit);
                },
                1);
          }
        },
        1);
  }

 private:
  static constexpr size_t kRowBlock = 128;
  static constexpr size_t kSegment = 4096;

  // First row at or after `from` whose prefix is not below `target`
  // (exponential search, then binary search).
  size_t FirstRowFrom(size_t from, const geometry::CellCoords<D>& target) const {
    const size_t num_rows = row_key_.size();
    size_t lo = from;
    size_t hi = from;
    for (size_t step = 1;
         hi < num_rows && RowPrefixLess<D>(row_key_[hi], target); step *= 2) {
      lo = hi + 1;
      hi = lo + step;
    }
    hi = std::min(hi, num_rows);
    return static_cast<size_t>(
        std::lower_bound(row_key_.begin() + static_cast<ptrdiff_t>(lo),
                         row_key_.begin() + static_cast<ptrdiff_t>(hi), target,
                         RowPrefixLess<D>) -
        row_key_.begin());
  }

  // Sweeps sorted ranks [begin, end) of row r against every target row.
  template <typename Emit>
  void SweepSegment(size_t r, size_t begin, size_t end,
                    std::vector<size_t>& cursor, Emit& emit) const {
    const int64_t* const last = last_.data();
    for (size_t o = 0; o < row_offsets_.size(); ++o) {
      const RowOffset<D>& ro = row_offsets_[o];
      geometry::CellCoords<D> target = row_key_[r];
      for (int a = 0; a + 1 < D; ++a) target[a] += ro.prefix[a];
      const size_t row = cursor[o] = FirstRowFrom(cursor[o], target);
      if (row == row_key_.size() || !SameRow<D>(row_key_[row], target)) {
        continue;
      }
      const size_t t_end = row_start_[row + 1];
      size_t t = static_cast<size_t>(
          std::lower_bound(last + row_start_[row], last + t_end,
                           last[begin] + ro.lo) -
          last);
      for (size_t k = begin; k < end; ++k) {
        const int64_t lo = last[k] + ro.lo;
        const int64_t hi = last[k] + ro.hi;
        while (t < t_end && last[t] < lo) ++t;
        for (size_t u = t; u < t_end && last[u] <= hi; ++u) {
          if (u != k) emit(static_cast<size_t>(pos_[k]),
                           static_cast<size_t>(pos_[u]));
        }
      }
    }
  }

  const std::vector<RowOffset<D>>& row_offsets_;
  std::vector<uint32_t> pos_;      // Sorted rank -> position in ids.
  std::vector<int64_t> last_;      // Sorted rank -> last coordinate.
  std::vector<size_t> row_start_;  // Row r holds ranks [start[r], start[r+1]).
  std::vector<geometry::CellCoords<D>> row_key_;  // First cell of each row.
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

// Invokes emit(i, j) for every ordered pair of positions i != j into `ids`
// such that cells ids[i] and ids[j] can contain points within epsilon of
// each other (the exact integer criterion of OffsetWithinEpsilon over
// cells.coords). A row sweep for d <= 3, a k-d tree over the cells' centers
// for higher d (Section 5.1). Rows (or k-d queries) run in parallel: emit
// must tolerate concurrent calls with distinct i. All calls for one i run
// serially, from one task (for d <= 3, the task sweeping i's row), in the
// deterministic order of NeighborOffsets (d <= 3) or the k-d tree walk.
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
  if constexpr (D <= 3) {
    internal::RowSweep<D>(cells, ids).ForEach(emit);
  } else {
    // k-d tree over the candidate cells' centers (Section 5.1).
    const Metric metric = cells.metric;
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
// the same code path. For d <= 3 the row sweep runs twice and writes the
// CSR in place (count, scan, fill through per-cell cursors); the k-d path
// collects per-cell lists and flattens them.
template <int D>
void BuildGridAdjacency(CellStructure<D>& cells,
                        const geometry::Point<D>& origin, double side) {
  telemetry::TraceSpan span("grid_adjacency");
  const size_t num_cells = cells.num_cells();
  if (num_cells == 0) {  // Empty (streaming) structure: trivial CSR.
    cells.nbr_offsets.assign(1, 0);
    cells.nbrs.clear();
    return;
  }
  std::vector<uint32_t> all(num_cells);
  parallel::parallel_for(0, num_cells,
                         [&](size_t c) { all[c] = static_cast<uint32_t>(c); });
  // Positions into `all` are cell ids, so (i, j) is a cell pair directly.
  if constexpr (D <= 3) {
    const internal::RowSweep<D> sweep(cells, std::span<const uint32_t>(all));
    cells.nbr_offsets.assign(num_cells + 1, 0);
    size_t* const offsets = cells.nbr_offsets.data();
    sweep.ForEach([&](size_t i, size_t) { ++offsets[i]; });
    const size_t total = primitives::ScanExclusive(
        std::span<size_t>(offsets, num_cells + 1));
    cells.nbrs.resize(total);
    std::vector<size_t> cursor(num_cells);
    parallel::parallel_for(0, num_cells,
                           [&](size_t c) { cursor[c] = offsets[c]; });
    uint32_t* const nbrs = cells.nbrs.data();
    sweep.ForEach([&](size_t i, size_t j) {
      nbrs[cursor[i]++] = static_cast<uint32_t>(j);
    });
  } else {
    std::vector<std::vector<uint32_t>> neighbor_lists(num_cells);
    ForEachNeighborAmong<D>(cells, std::span<const uint32_t>(all), origin,
                            side, [&](size_t i, size_t j) {
                              neighbor_lists[i].push_back(
                                  static_cast<uint32_t>(j));
                            });
    FlattenNeighbors(neighbor_lists, cells);
  }
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
