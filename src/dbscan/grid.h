// Grid cell construction — Section 4.1 of the paper.
//
// Points are assigned to cells of side epsilon/sqrt(d) anchored at the
// dataset's bounding-box corner. Grouping points by cell uses *semisort*
// (not a comparison sort), which is the paper's key to O(n) expected work:
// only same-cell grouping matters, not cell ordering.
//
// Neighboring cells (cells whose boxes are within epsilon) are found by one
// row sweep for every dimension. It replaces the paper's per-offset hash
// probes (low d) and k-d tree over cell centers (high d, Section 5.1): the
// m <= n non-empty cells are sorted by coordinates (O(m log m) work, the
// only super-linear step of the grid) and split into rows (cells sharing
// all but the last coordinate). Each source row walks the sorted row
// prefixes depth-first, pruning every branch whose partial cost already
// breaks the exact integer criterion
//     sum_i max(0, |delta_i| - 1)^2 <= d
// (L2: box distance <= epsilon, since side = epsilon/sqrt(d); AxisCost in
// metric.h gives L1 and Linf), so only occupied target rows are visited,
// and sweeps each target row with two pointers over the last coordinate.
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

template <int D>
bool SameRow(const geometry::CellCoords<D>& a,
             const geometry::CellCoords<D>& b) {
  for (int i = 0; i + 1 < D; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// The neighbor finder for every D: the cells sorted by coordinates and
// split into rows (cells sharing all but the last coordinate), built once
// and swept any number of times (the CSR build sweeps twice: count, then
// fill). Cell ids are untouched; the sort only permutes this side
// structure.
//
// The sorted row keys form a trie over axes 0..D-2. A source row with
// prefix p finds its target rows by a depth-first walk of that trie: at
// axis a it visits each distinct value v within p[a] +- AxisReach of the
// budget left, charging AxisCost(v - p[a]) against the bound D, so only
// occupied prefixes that pass the criterion are ever visited. The budget
// left at the last axis gives the [-reach, reach] window that a two-pointer
// sweep applies to the source and target rows' last coordinates.
template <int D>
class RowSweep {
 public:
  explicit RowSweep(const CellStructure<D>& cells) : metric_(cells.metric) {
    using geometry::CellCoords;
    const size_t m = cells.num_cells();
    std::vector<std::pair<CellCoords<D>, uint32_t>> sorted(m);
    parallel::parallel_for(0, m, [&](size_t c) {
      sorted[c] = {cells.coords[c], static_cast<uint32_t>(c)};
    });
    // Coordinates are distinct, so the order never consults the cell id.
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

  // Invokes emit(i, j) for every ordered pair of cells i != j whose boxes
  // are within epsilon. Tasks take blocks of source rows (a long row splits
  // into segments), so emit must tolerate concurrent calls with distinct i.
  // For each i, the calls come from one task, in ascending lexicographic
  // order of the target cells' coordinates.
  template <typename Emit>
  void ForEach(Emit&& emit) const {
    const size_t num_rows = row_key_.size();
    parallel::parallel_for(
        0, (num_rows + kRowBlock - 1) / kRowBlock,
        [&](size_t block) {
          const size_t last_row = std::min(num_rows, (block + 1) * kRowBlock);
          for (size_t r = block * kRowBlock; r < last_row; ++r) {
            const size_t begin = row_start_[r];
            const size_t end = row_start_[r + 1];
            if (end - begin <= kSegment) {
              SweepSegment(r, begin, end, emit);
              continue;
            }
            parallel::parallel_for(
                0, (end - begin + kSegment - 1) / kSegment,
                [&](size_t s) {
                  const size_t b = begin + s * kSegment;
                  SweepSegment(r, b, std::min(end, b + kSegment), emit);
                },
                1);
          }
        },
        1);
  }

 private:
  static constexpr size_t kRowBlock = 128;
  static constexpr size_t kSegment = 4096;

  // First row in [lo, hi) whose axis-A key is at least `value`, given that
  // the rows in [lo, hi) ascend on axis A (exponential search from lo, then
  // binary search: target groups are usually near lo).
  template <int A>
  size_t FirstAtLeast(size_t lo, size_t hi, int64_t value) const {
    size_t end = lo;
    for (size_t step = 1; end < hi && row_key_[end][A] < value; step *= 2) {
      lo = end + 1;
      end = lo + step;
    }
    end = std::min(end, hi);
    while (lo < end) {
      const size_t mid = lo + (end - lo) / 2;
      if (row_key_[mid][A] < value) {
        lo = mid + 1;
      } else {
        end = mid;
      }
    }
    return lo;
  }

  // Calls visit(row, reach) for every target row of source prefix `p`
  // among rows [lo, hi), which share the target prefix on axes 0..A-1 and
  // leave `budget` of the criterion's bound. Rows come in ascending order.
  template <int A, typename Visit>
  void WalkTargetRows(const geometry::CellCoords<D>& p, size_t lo, size_t hi,
                      int64_t budget, Visit& visit) const {
    const int64_t reach = AxisReach(metric_, budget);
    if constexpr (A == D - 1) {
      visit(lo, reach);  // Axes 0..D-2 are fixed: [lo, hi) is one row.
    } else {
      size_t g = FirstAtLeast<A>(lo, hi, p[A] - reach);
      while (g < hi && row_key_[g][A] <= p[A] + reach) {
        const int64_t v = row_key_[g][A];
        const size_t g_end = FirstAtLeast<A>(g + 1, hi, v + 1);
        const int64_t left = budget - AxisCost(metric_, v - p[A]);
        WalkTargetRows<A + 1>(p, g, g_end, left, visit);
        g = g_end;
      }
    }
  }

  // Sweeps sorted ranks [begin, end) of row r against every target row.
  template <typename Emit>
  void SweepSegment(size_t r, size_t begin, size_t end, Emit& emit) const {
    const int64_t* const last = last_.data();
    auto sweep = [&](size_t row, int64_t reach) {
      const size_t t_end = row_start_[row + 1];
      size_t t = static_cast<size_t>(
          std::lower_bound(last + row_start_[row], last + t_end,
                           last[begin] - reach) -
          last);
      for (size_t k = begin; k < end; ++k) {
        const int64_t lo = last[k] - reach;
        const int64_t hi = last[k] + reach;
        while (t < t_end && last[t] < lo) ++t;
        for (size_t u = t; u < t_end && last[u] <= hi; ++u) {
          if (u != k) emit(static_cast<size_t>(pos_[k]),
                           static_cast<size_t>(pos_[u]));
        }
      }
    };
    WalkTargetRows<0>(row_key_[r], 0, row_key_.size(), D, sweep);
  }

  Metric metric_;
  std::vector<uint32_t> pos_;      // Sorted rank -> cell id.
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

// Fills the CSR neighbor adjacency of `cells` from cells.coords: for every
// cell, all other cells whose boxes are within epsilon (the exact integer
// criterion of AxisCost, metric.h), in ascending lexicographic order of
// their coordinates. Factored out of BuildGrid so the streaming
// DynamicCellIndex can re-derive adjacency for an incrementally recomposed
// structure through the same code path. The row sweep runs twice and
// writes the CSR in place: count, scan, fill through per-cell cursors.
template <int D>
void BuildGridAdjacency(CellStructure<D>& cells) {
  telemetry::TraceSpan span("grid_adjacency");
  const size_t num_cells = cells.num_cells();
  if (num_cells == 0) {  // Empty (streaming) structure: trivial CSR.
    cells.nbr_offsets.assign(1, 0);
    cells.nbrs.clear();
    return;
  }
  const internal::RowSweep<D> sweep(cells);
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
}

// Builds the grid cell structure for `input` with parameter `epsilon`.
// `bounds_hint`, when non-null, skips the reduction pass; its `min` corner
// becomes the grid anchor origin and is the ONLY field read, so any box
// containing `input` is valid. BuildCells passes ComputeBounds of the full
// point set, cached across epsilon changes.
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

  BuildGridAdjacency(cells);
  cells.BuildSoALanes();
  return cells;
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_GRID_H_
