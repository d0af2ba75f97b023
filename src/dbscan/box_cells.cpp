#include "dbscan/box_cells.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "parallel/scheduler.h"
#include "primitives/pointer_jump.h"
#include "primitives/scan.h"
#include "primitives/sort.h"

namespace pdbscan::dbscan {

namespace {

using geometry::BBox;
using geometry::Point;

// Flattens per-cell neighbor lists into the CSR arrays of `cells`: a scan
// over the list sizes, then a parallel copy.
void FlattenNeighbors(const std::vector<std::vector<uint32_t>>& lists,
                      CellStructure<2>& cells) {
  const size_t num_cells = lists.size();
  cells.nbr_offsets.assign(num_cells + 1, 0);
  size_t* const offsets = cells.nbr_offsets.data();
  parallel::parallel_for(0, num_cells,
                         [&](size_t c) { offsets[c] = lists[c].size(); });
  cells.nbrs.resize(primitives::ScanExclusive(
      std::span<size_t>(offsets, num_cells + 1)));
  uint32_t* const nbrs = cells.nbrs.data();
  parallel::parallel_for(0, num_cells, [&](size_t c) {
    std::copy(lists[c].begin(), lists[c].end(), nbrs + offsets[c]);
  });
}

// Marks group starts along `keys[lo..hi)` (sorted ascending): position i
// starts a group iff keys[i] > group_start_key + width. Implements the
// paper's strip rule with the pointer-jumping primitive: node i's parent is
// the first position whose key exceeds keys[i] + width; flags seeded at the
// first position propagate to exactly the group starts.
void MarkGroupStarts(const std::vector<double>& keys, size_t lo, size_t hi,
                     double width, std::vector<uint8_t>& flags) {
  const size_t n = hi - lo;
  if (n == 0) return;
  std::vector<size_t> next(n);
  std::vector<uint8_t> local(n, 0);
  parallel::parallel_for(0, n, [&](size_t i) {
    // First index with key > keys[lo + i] + width.
    const double bound = keys[lo + i] + width;
    const auto it = std::upper_bound(keys.begin() + static_cast<long>(lo),
                                     keys.begin() + static_cast<long>(hi),
                                     bound);
    const size_t j = static_cast<size_t>(it - (keys.begin() + static_cast<long>(lo)));
    next[i] = j < n ? j : i;  // Tail points to itself.
  });
  local[0] = 1;
  primitives::PointerJumpPropagate(next, local);
  parallel::parallel_for(0, n, [&](size_t i) { flags[lo + i] = local[i]; });
}

}  // namespace

std::vector<uint32_t> BoxSortByX(std::span<const Point<2>> input) {
  // Sort point ids by x (ties by y for determinism).
  std::vector<uint32_t> order(input.size());
  std::iota(order.begin(), order.end(), 0u);
  primitives::ParallelSort(order, [&](uint32_t a, uint32_t b) {
    if (input[a][0] != input[b][0]) return input[a][0] < input[b][0];
    if (input[a][1] != input[b][1]) return input[a][1] < input[b][1];
    return a < b;
  });
  return order;
}

CellStructure<2> BuildBoxCells(std::span<const Point<2>> input,
                               double epsilon) {
  const std::vector<uint32_t> order = BoxSortByX(input);
  return BuildBoxCells(input, epsilon,
                       std::span<const uint32_t>(order.data(), order.size()));
}

CellStructure<2> BuildBoxCells(std::span<const Point<2>> input, double epsilon,
                               std::span<const uint32_t> x_order) {
  CellStructure<2> cells;
  cells.epsilon = epsilon;
  const size_t n = input.size();
  if (n == 0) {
    cells.offsets.push_back(0);
    cells.nbr_offsets.push_back(0);
    return cells;
  }
  const double width = epsilon / std::sqrt(2.0);

  // The within-strip y-sort below mutates the order, so work on a copy of
  // the caller's (possibly cached) x-sorted order.
  std::vector<uint32_t> order(x_order.begin(), x_order.end());

  // Strip starts via pointer jumping on x.
  std::vector<double> xs(n);
  parallel::parallel_for(0, n, [&](size_t i) { xs[i] = input[order[i]][0]; });
  std::vector<uint8_t> strip_start(n, 0);
  MarkGroupStarts(xs, 0, n, width, strip_start);

  // Strip of each point = (number of starts at or before it) - 1.
  std::vector<size_t> strip_idx(n);
  parallel::parallel_for(0, n, [&](size_t i) { strip_idx[i] = strip_start[i]; });
  const size_t num_strips = primitives::ScanInclusive(strip_idx);
  std::vector<size_t> strip_offsets(num_strips + 1, 0);
  parallel::parallel_for(0, n, [&](size_t i) {
    if (strip_start[i] == 1) strip_offsets[strip_idx[i] - 1] = i;
  });
  strip_offsets[num_strips] = n;

  // Within each strip: sort by y and mark cell starts with the same
  // pointer-jumping procedure on y.
  std::vector<uint8_t> cell_start(n, 0);
  std::vector<double> ys(n);
  parallel::parallel_for(0, num_strips, [&](size_t s) {
    const size_t lo = strip_offsets[s];
    const size_t hi = strip_offsets[s + 1];
    std::sort(order.begin() + static_cast<long>(lo),
              order.begin() + static_cast<long>(hi),
              [&](uint32_t a, uint32_t b) {
                if (input[a][1] != input[b][1]) return input[a][1] < input[b][1];
                return a < b;
              });
    for (size_t i = lo; i < hi; ++i) ys[i] = input[order[i]][1];
    MarkGroupStarts(ys, lo, hi, width, cell_start);
  });

  // Cells: contiguous ranges in the (strip-major, y-sorted) order.
  std::vector<size_t> cell_idx(n);
  parallel::parallel_for(0, n, [&](size_t i) { cell_idx[i] = cell_start[i]; });
  const size_t num_cells = primitives::ScanInclusive(cell_idx);
  cells.offsets.assign(num_cells + 1, 0);
  parallel::parallel_for(0, n, [&](size_t i) {
    if (cell_start[i] == 1) cells.offsets[cell_idx[i] - 1] = i;
  });
  cells.offsets[num_cells] = n;

  cells.points.resize(n);
  cells.orig_index.resize(n);
  parallel::parallel_for(0, n, [&](size_t i) {
    cells.orig_index[i] = order[i];
    cells.points[i] = input[order[i]];
  });

  // Tight content boxes per cell.
  cells.cell_boxes.resize(num_cells);
  parallel::parallel_for(0, num_cells, [&](size_t c) {
    BBox<2> box = BBox<2>::Empty();
    for (size_t i = cells.offsets[c]; i < cells.offsets[c + 1]; ++i) {
      box.Extend(cells.points[i]);
    }
    cells.cell_boxes[c] = box;
  });

  // Strip of each cell, and per-strip cell ranges (cells are strip-major).
  std::vector<size_t> cell_strip(num_cells);
  parallel::parallel_for(0, num_cells, [&](size_t c) {
    cell_strip[c] = strip_idx[cells.offsets[c]] - 1;
  });
  std::vector<size_t> strip_cell_begin(num_strips + 1, 0);
  for (size_t c = 0; c < num_cells; ++c) {
    // First cell of each strip (serial; num_cells is modest).
    if (c == 0 || cell_strip[c] != cell_strip[c - 1]) {
      strip_cell_begin[cell_strip[c]] = c;
    }
  }
  strip_cell_begin[num_strips] = num_cells;

  // Neighbors: cells from strips s-2..s+2 whose boxes are within epsilon.
  // Cells within a strip are sorted by y, so a binary search bounds the
  // candidate range.
  const double eps2 = epsilon * epsilon;
  std::vector<std::vector<uint32_t>> neighbor_lists(num_cells);
  parallel::parallel_for(0, num_cells, [&](size_t c) {
    const size_t s = cell_strip[c];
    const BBox<2>& box = cells.cell_boxes[c];
    auto& list = neighbor_lists[c];
    const size_t s_lo = s >= 2 ? s - 2 : 0;
    const size_t s_hi = std::min(num_strips - 1, s + 2);
    for (size_t t = s_lo; t <= s_hi; ++t) {
      const size_t begin = strip_cell_begin[t];
      const size_t end = strip_cell_begin[t + 1];
      for (size_t c2 = begin; c2 < end; ++c2) {
        if (c2 == c) continue;
        // Early bail: cells in a strip are y-ordered; stop once past range.
        if (cells.cell_boxes[c2].min[1] > box.max[1] + epsilon) break;
        if (cells.cell_boxes[c2].max[1] < box.min[1] - epsilon) continue;
        if (cells.cell_boxes[c2].MinSquaredDistance(box) <= eps2) {
          list.push_back(static_cast<uint32_t>(c2));
        }
      }
    }
  });
  FlattenNeighbors(neighbor_lists, cells);
  cells.BuildSoALanes();
  return cells;
}

}  // namespace pdbscan::dbscan
