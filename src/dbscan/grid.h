// Grid cell construction — Section 4.1 of the paper.
//
// Points are assigned to cells of side epsilon/sqrt(d) anchored at the
// dataset's bounding-box corner. Grouping points by cell uses *semisort*
// (not a comparison sort), which is the paper's key to O(n) expected work.
// The m <= n groups are then sorted by coordinates (O(m log m) work, the
// only super-linear step of the grid), so BuildGrid's cells ascend in
// lexicographic coordinate order: cell ids, point ranges, boxes and SoA
// lanes are laid out so that a cell's neighbors sit near it in memory,
// which every later stage (MarkCore, ClusterCore, ClusterBorder) visits.
//
// Neighboring cells (cells whose boxes are within epsilon) are found by one
// row sweep for every dimension. It replaces the paper's per-offset hash
// probes (low d) and k-d tree over cell centers (high d, Section 5.1): the
// cells, in coordinate order, are split into rows (cells sharing all but
// the last coordinate). Each source row walks the sorted row prefixes
// depth-first, pruning every branch whose partial cost already breaks the
// exact integer criterion
//     sum_i max(0, |delta_i| - 1)^2 <= d
// (L2: box distance <= epsilon, since side = epsilon/sqrt(d); AxisCost in
// metric.h gives L1 and Linf), so only occupied target rows are visited,
// and sweeps each target row with two pointers over the last coordinate.
// The trie is walked once: the walk counts every cell's neighbors and
// keeps the target rows it found, a scan over the counts places each
// cell's list, and a second pass sweeps the kept rows again to fill them.
#ifndef PDBSCAN_DBSCAN_GRID_H_
#define PDBSCAN_DBSCAN_GRID_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "containers/flat_array.h"
#include "containers/uninitialized_vector.h"
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

// The CSR builder for every D: the cells in coordinate order, split into
// rows (cells sharing all but the last coordinate). BuildGrid's cells
// already ascend, which a parallel O(m) check confirms, so their ranks are
// their ids. A streaming recompose keeps its insertion-stable cell order;
// its cells are sorted here, and cell ids stay untouched, since the sort
// only permutes this side structure.
//
// The sorted row keys form a trie over axes 0..D-2. A source row with
// prefix p finds its target rows by a depth-first walk of that trie: at
// axis a it visits each distinct value v within p[a] +- AxisReach of the
// budget left, charging AxisCost(v - p[a]) against the bound D, so only
// occupied prefixes that pass the criterion are ever visited. The budget
// left at the last axis gives the [-reach, reach] window that each source
// cell applies to the target row's last coordinates.
//
// The sweep runs in units: a run of up to kRowBlock short rows, or one
// segment of at most kSegment cells of a longer row. A unit walks the trie
// once per row segment, sweeping each target row as the walk reaches it to
// count the segment's neighbors, and keeps the rows within reach of the
// segment: 4 bytes per kept row, where a copy of the unit's lists would
// cost 4 bytes per neighbor. Once the counts are scanned into offsets, the
// unit sweeps its kept rows again, in the same ascending order, and writes
// each cell's neighbors straight into its slice of the CSR.
template <int D>
class RowSweep {
 public:
  explicit RowSweep(const CellStructure<D>& cells) : metric_(cells.metric) {
    using geometry::CellCoords;
    telemetry::TraceSpan span("row_sort");
    const size_t m = cells.num_cells();
    const CellCoords<D>* const coords = cells.coords.data();
    // BuildGrid's cells already ascend, so their ranks are their ids; a
    // streaming recompose keeps its insertion order and is sorted here.
    const bool ascending =
        primitives::ReduceMin(size_t{1}, m, uint8_t{1}, [&](size_t k) {
          return static_cast<uint8_t>(coords[k - 1] < coords[k]);
        }) != 0;
    containers::UninitializedVector<std::pair<CellCoords<D>, uint32_t>>
        sorted(ascending ? 0 : m);
    if (!ascending) {
      parallel::parallel_for(0, m, [&](size_t c) {
        sorted[c] = {coords[c], static_cast<uint32_t>(c)};
      });
      // Coordinates are distinct, so the order never consults the cell id.
      primitives::ParallelSort(
          std::span<std::pair<CellCoords<D>, uint32_t>>(sorted));
    }
    auto key = [&](size_t k) -> const CellCoords<D>& {
      return ascending ? coords[k] : sorted[k].first;
    };
    pos_.resize(m);
    last_.resize(m);
    parallel::parallel_for(0, m, [&](size_t k) {
      pos_[k] = ascending ? static_cast<uint32_t>(k) : sorted[k].second;
      last_[k] = key(k)[D - 1];
    });
    row_start_ = primitives::FilterIndex(m, [&](size_t k) {
      return k == 0 || !SameRow<D>(key(k), key(k - 1));
    });
    row_key_.resize(row_start_.size());
    parallel::parallel_for(0, row_start_.size(), [&](size_t r) {
      row_key_[r] = key(row_start_[r]);
    });
    row_start_.push_back(m);
    const size_t num_rows = row_key_.size();
    for (size_t r = 0; r < num_rows;) {
      const size_t begin = row_start_[r];
      const size_t end = row_start_[r + 1];
      size_t r_end = r + 1;
      if (end - begin > kSegment) {
        for (size_t b = begin; b < end; b += kSegment) {
          units_.push_back({r, r_end, b, std::min(end, b + kSegment)});
        }
      } else {
        while (r_end < std::min(num_rows, r + kRowBlock) &&
               row_start_[r_end + 1] - row_start_[r_end] <= kSegment) {
          ++r_end;
        }
        units_.push_back({r, r_end, begin, row_start_[r_end]});
      }
      r = r_end;
    }
  }

  // Fills the CSR: for every cell i, every cell j != i whose box is within
  // epsilon, in ascending lexicographic order of j's coordinates. The walk
  // counts each unit's cells straight into `nbr_offsets` (one slot per
  // cell id); a scan places the lists, and a second parallel pass over the
  // kept target rows fills `nbrs`. Both arrays are allocated
  // uninitialized, so their pages are first touched by parallel writes.
  void FillCsr(containers::FlatArray<size_t>& nbr_offsets,
               containers::FlatArray<uint32_t>& nbrs) const {
    const size_t m = pos_.size();
    size_t* const offsets = nbr_offsets.AllocateAligned(m + 1);
    std::vector<std::vector<uint32_t>> targets(units_.size());
    {
      telemetry::TraceSpan span("adjacency_walk");
      parallel::parallel_for(
          0, units_.size(),
          [&](size_t u) { targets[u] = WalkUnit(units_[u], offsets); }, 1);
    }
    telemetry::TraceSpan span("adjacency_place");
    offsets[m] = 0;
    const size_t total =
        primitives::ScanExclusive(std::span<size_t>(offsets, m + 1));
    uint32_t* const out = nbrs.AllocateAligned(total);
    parallel::parallel_for(
        0, units_.size(),
        [&](size_t u) {
          FillUnit(units_[u], targets[u], offsets, out);
          std::vector<uint32_t>().swap(targets[u]);
        },
        1);
  }

 private:
  static constexpr size_t kRowBlock = 128;
  static constexpr size_t kSegment = 4096;

  // Rows [row_begin, row_end) restricted to sorted ranks [begin, end).
  struct Unit {
    size_t row_begin, row_end, begin, end;
  };

  // Ends one row segment's target rows in a unit's target list.
  static constexpr uint32_t kSegmentEnd = UINT32_MAX;

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

  // The last-axis reach from a source row with prefix `p` to target row
  // `row`: what WalkTargetRows computes on reaching that row.
  int64_t LastAxisReach(const geometry::CellCoords<D>& p, size_t row) const {
    int64_t budget = D;
    for (int a = 0; a + 1 < D; ++a) {
      budget -= AxisCost(metric_, row_key_[row][a] - p[a]);
    }
    return AxisReach(metric_, budget);
  }

  // Calls window(k, lo, hi) for every sorted rank k in [begin, end), in
  // order, where [lo, hi) are the ranks of target row `row` within `reach`
  // of k's last coordinate (a two-pointer sweep), and returns true. Returns
  // false without a call when every cell of the row lies outside the
  // segment's last-coordinate range widened by `reach`.
  template <typename Window>
  bool SweepRow(size_t begin, size_t end, size_t row, int64_t reach,
                Window&& window) const {
    const int64_t* const last = last_.data();
    const size_t t_end = row_start_[row + 1];
    size_t lo = static_cast<size_t>(
        std::lower_bound(last + row_start_[row], last + t_end,
                         last[begin] - reach) -
        last);
    // Every cell of the row lies past every window of the segment.
    if (lo == t_end || last[lo] > last[end - 1] + reach) return false;
    size_t hi = lo;
    for (size_t k = begin; k < end; ++k) {
      while (lo < t_end && last[lo] < last[k] - reach) ++lo;
      hi = std::max(hi, lo);
      while (hi < t_end && last[hi] <= last[k] + reach) ++hi;
      window(k, lo, hi);
    }
    return true;
  }

  // Walks the trie once per row segment of `unit`, writes each cell's
  // neighbor count to counts[cell id] and returns the target rows that
  // SweepRow swept, each segment's followed by kSegmentEnd. Every cell
  // lies in its own row's window once.
  std::vector<uint32_t> WalkUnit(const Unit& unit, size_t* counts) const {
    std::vector<size_t> count(unit.end - unit.begin, 0);
    std::vector<uint32_t> targets;
    for (size_t r = unit.row_begin; r < unit.row_end; ++r) {
      const size_t begin = std::max(unit.begin, row_start_[r]);
      const size_t end = std::min(unit.end, row_start_[r + 1]);
      auto visit = [&](size_t row, int64_t reach) {
        if (SweepRow(begin, end, row, reach,
                     [&](size_t k, size_t lo, size_t hi) {
                       count[k - unit.begin] += hi - lo;
                     })) {
          targets.push_back(static_cast<uint32_t>(row));
        }
      };
      WalkTargetRows<0>(row_key_[r], 0, row_key_.size(), D, visit);
      targets.push_back(kSegmentEnd);
    }
    for (size_t i = 0; i < count.size(); ++i) {
      counts[pos_[unit.begin + i]] = count[i] - 1;  // Minus the cell itself.
    }
    targets.shrink_to_fit();
    return targets;
  }

  // Writes the neighbor lists of `unit`'s cells at `offsets` in `out`,
  // sweeping the target rows WalkUnit kept, in the same order.
  void FillUnit(const Unit& unit, const std::vector<uint32_t>& targets,
                const size_t* offsets, uint32_t* out) const {
    std::vector<size_t> cursor(unit.end - unit.begin);
    for (size_t i = 0; i < cursor.size(); ++i) {
      cursor[i] = offsets[pos_[unit.begin + i]];
    }
    size_t t = 0;
    for (size_t r = unit.row_begin; r < unit.row_end; ++r, ++t) {
      const size_t begin = std::max(unit.begin, row_start_[r]);
      const size_t end = std::min(unit.end, row_start_[r + 1]);
      for (; targets[t] != kSegmentEnd; ++t) {
        const size_t row = targets[t];
        SweepRow(begin, end, row, LastAxisReach(row_key_[r], row),
                 [&](size_t k, size_t lo, size_t hi) {
                   size_t& at = cursor[k - unit.begin];
                   for (size_t u = lo; u < hi; ++u) {
                     if (u != k) out[at++] = pos_[u];
                   }
                 });
      }
    }
  }

  Metric metric_;
  containers::UninitializedVector<uint32_t> pos_;  // Rank -> cell id.
  containers::UninitializedVector<int64_t> last_;  // Rank -> last coord.
  std::vector<size_t> row_start_;  // Row r holds ranks [start[r], start[r+1]).
  std::vector<geometry::CellCoords<D>> row_key_;  // First cell of each row.
  std::vector<Unit> units_;        // Ascending, covering every rank once.
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
// structure through the same code path. One row sweep walks the cell trie
// once (internal::RowSweep::FillCsr).
template <int D>
void BuildGridAdjacency(CellStructure<D>& cells) {
  telemetry::TraceSpan span("grid_adjacency");
  if (cells.num_cells() == 0) {  // Empty (streaming) structure: trivial CSR.
    cells.nbr_offsets.assign(1, 0);
    cells.nbrs.clear();
    return;
  }
  internal::RowSweep<D>(cells).FillCsr(cells.nbr_offsets, cells.nbrs);
}

// Builds the grid cell structure for `input` with parameter `epsilon`, its
// cells in ascending coordinate order and each cell's points in the order
// the semisort grouped them. `bounds_hint`, when non-null, skips the
// reduction pass; its `min` corner
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
  // contiguous in expected O(n) work. The pairs and the semisort output
  // are freed before the adjacency build allocates the CSR.
  {
    containers::UninitializedVector<std::pair<CellCoords<D>, uint32_t>>
        pairs(n);
    parallel::parallel_for(0, n, [&](size_t i) {
      pairs[i] = {geometry::CellOf<D>(input[i], origin, side),
                  static_cast<uint32_t>(i)};
    });
    auto grouped = primitives::Semisort<CellCoords<D>, uint32_t>(
        std::span<const std::pair<CellCoords<D>, uint32_t>>(pairs),
        [](const CellCoords<D>& c) { return geometry::HashCellCoords<D>(c); },
        [](const CellCoords<D>& a, const CellCoords<D>& b) { return a == b; });

    // Cells in ascending coordinate order: the semisort groups sorted by
    // their coordinates (distinct, so the group index never decides). The
    // order reuses the first num_cells <= n pairs, so it needs no buffer
    // of its own.
    const size_t num_cells = grouped.num_groups();
    const std::vector<size_t>& group = grouped.group_offsets;
    std::span<std::pair<CellCoords<D>, uint32_t>> order(pairs.data(),
                                                        num_cells);
    parallel::parallel_for(0, num_cells, [&](size_t g) {
      order[g] = {grouped.items[group[g]].first, static_cast<uint32_t>(g)};
    });
    primitives::ParallelSort(order);

    // Cell c takes group cell_group[c]'s points, in the order the semisort
    // left them. The pairs are freed before the cell arrays are allocated,
    // so the points take the pairs' place in the heap; allocated with the
    // pairs alive, they went to the heap's top, and the peak RSS of
    // repeated 3D 500k-point builds rose ~15%.
    containers::UninitializedVector<uint32_t> cell_group(num_cells);
    parallel::parallel_for(0, num_cells,
                           [&](size_t c) { cell_group[c] = order[c].second; });
    pairs.clear();
    pairs.shrink_to_fit();

    // The arrays below are allocated uninitialized and first touched by
    // the parallel loops that fill them.
    Point<D>* const points = cells.points.AllocateAligned(n);
    uint32_t* const orig_index = cells.orig_index.AllocateAligned(n);
    size_t* const offsets = cells.offsets.AllocateAligned(num_cells + 1);
    CellCoords<D>* const coords = cells.coords.AllocateAligned(num_cells);
    BBox<D>* const boxes = cells.cell_boxes.AllocateAligned(num_cells);
    parallel::parallel_for(0, num_cells, [&](size_t c) {
      const uint32_t g = cell_group[c];
      offsets[c] = group[g + 1] - group[g];
      coords[c] = grouped.items[group[g]].first;
      boxes[c] = geometry::CellBBox<D>(coords[c], origin, side);
    });
    offsets[num_cells] = 0;
    primitives::ScanExclusive(std::span<size_t>(offsets, num_cells + 1));
    parallel::parallel_for(0, num_cells, [&](size_t c) {
      const auto* from = grouped.items.data() + group[cell_group[c]];
      for (size_t i = offsets[c]; i < offsets[c + 1]; ++i, ++from) {
        orig_index[i] = from->second;
        points[i] = input[from->second];
      }
    });
  }

  BuildGridAdjacency(cells);
  cells.BuildSoALanes();
  return cells;
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_GRID_H_
