// MarkCore — Algorithm 2 of the paper (Section 4.3).
//
// A cell with at least minPts points consists entirely of core points (the
// cell has diameter at most epsilon). Every other point counts its
// epsilon-neighbors in the cell itself plus each neighboring cell, either by
// scanning the neighbor's points or via a per-cell quadtree RangeCount
// (Section 5.2); counting stops early once minPts is reached.
#ifndef PDBSCAN_DBSCAN_MARK_CORE_H_
#define PDBSCAN_DBSCAN_MARK_CORE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "dbscan/cell_structure.h"
#include "dbscan/metric.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "geometry/quadtree.h"
#include "kernels/kernel_api.h"
#include "parallel/scheduler.h"
#include "telemetry/trace.h"

namespace pdbscan::dbscan {

// Builds a quadtree over every cell's points (used when range_count ==
// kQuadtree). Trees index into cells.points.
template <int D>
std::vector<std::unique_ptr<geometry::CellQuadtree<D>>> BuildCellQuadtrees(
    const CellStructure<D>& cells) {
  const size_t num_cells = cells.num_cells();
  std::vector<std::unique_ptr<geometry::CellQuadtree<D>>> trees(num_cells);
  parallel::parallel_for(
      0, num_cells,
      [&](size_t c) {
        std::vector<uint32_t> idx(cells.cell_size(c));
        std::iota(idx.begin(), idx.end(),
                  static_cast<uint32_t>(cells.offsets[c]));
        trees[c] = std::make_unique<geometry::CellQuadtree<D>>(
            std::span<const geometry::Point<D>>(cells.points), std::move(idx),
            cells.cell_boxes[c]);
      },
      1);
  return trees;
}

namespace internal {

// Saturated neighbor counts for the points of one cell (the loop body of
// Algorithm 2). Writes exactly counts[offsets[c] .. offsets[c+1]), so any
// set of distinct cells may be counted concurrently. Kernel-layer counters
// flush into `stats` once per cell.
template <int D>
void CountCellPoints(
    const CellStructure<D>& cells, size_t cap, RangeCountMethod method,
    const std::vector<std::unique_ptr<geometry::CellQuadtree<D>>>* trees,
    size_t c, std::vector<uint32_t>& counts, PipelineStats& stats) {
  const double eps = cells.epsilon;
  const Metric metric = cells.metric;
  // L2 compares squared distance vs eps^2 (the pre-metric arithmetic,
  // byte-for-byte); L1/Linf compare the distance itself vs eps.
  const double threshold = MetricThreshold(eps, metric);
  const size_t begin = cells.offsets[c];
  const size_t end = cells.offsets[c + 1];
  if (end - begin >= cap) {
    // Dense cell: everything is core (Lines 4-6 of Algorithm 2). Valid for
    // every metric — the cell side is chosen so the cell diameter under the
    // structure's metric is at most epsilon.
    parallel::parallel_for(
        begin, end,
        [&](size_t i) { counts[i] = static_cast<uint32_t>(cap); });
    return;
  }
  const auto neighbors = cells.neighbors(c);
  kernels::Counters kc;
  const kernels::CountWithinFn count_within =
      CountWithinForMetric(kernels::Ops(), metric);
  const bool use_soa = method == RangeCountMethod::kScan && cells.has_soa();
  std::array<const double*, D> lane_base;
  size_t lane_stride = 1;
  if (use_soa) {
    for (int d = 0; d < D; ++d) {
      lane_base[static_cast<size_t>(d)] =
          cells.soa[static_cast<size_t>(d)].data();
    }
    lane_stride = cells.soa_stride();
  }
  for (size_t i = begin; i < end; ++i) {
    const geometry::Point<D>& p = cells.points[i];
    size_t count = end - begin;  // All same-cell points are within eps.
    for (const uint32_t h : neighbors) {
      if (count >= cap) break;
      // Prune the neighboring cell by its box, for BOTH range-count
      // methods. For kQuadtree this is not just the root-node test moved
      // up: the tree's root box can only be smaller than the cell box
      // (single-child collapse), so a skip here means the count was 0.
      if (BoxMinMeasure<D>(cells.cell_boxes[h], p, metric) > threshold) {
        kc.points_pruned_box += cells.cell_size(h);
        continue;
      }
      if (method == RangeCountMethod::kQuadtree) {
        count += (*trees)[h]->CountInBall(p, eps, cap - count, &kc);
      } else {
        const size_t h_begin = cells.offsets[h];
        const size_t h_end = cells.offsets[h + 1];
        if (use_soa) {
          std::array<const double*, D> lanes;
          for (int d = 0; d < D; ++d) {
            lanes[static_cast<size_t>(d)] =
                lane_base[static_cast<size_t>(d)] + h_begin * lane_stride;
          }
          count += count_within(lanes.data(), lane_stride, D,
                                h_end - h_begin, p.x.data(), threshold,
                                cap - count, &kc);
        } else {
          for (size_t j = h_begin; j < h_end && count < cap; ++j) {
            if (PointMeasure<D>(cells.points[j], p, metric) <= threshold) {
              ++count;
            }
          }
        }
      }
    }
    counts[i] = static_cast<uint32_t>(std::min(count, cap));
  }
  FlushKernelCounters(stats, kc);
}

}  // namespace internal

// Per-point epsilon-neighbor counts, saturated at `cap`: counts[i] ==
// min(cap, number of points within epsilon of reordered point i, counting
// itself). Thresholding at any min_pts <= cap reproduces MarkCore exactly
// (core iff count >= min_pts), which is what lets a CellIndex compute
// counts once at cap = max(minPts list) and answer a whole min_pts sweep.
// `trees` must be the cells' quadtrees when method == kQuadtree (pass the
// index's trees, or BuildCellQuadtrees(cells)); ignored otherwise.
// Kernel-layer counters accumulate into `stats` (nullptr = GlobalStats()).
template <int D>
void MarkCoreCounts(
    const CellStructure<D>& cells, size_t cap, RangeCountMethod method,
    const std::vector<std::unique_ptr<geometry::CellQuadtree<D>>>* trees,
    std::vector<uint32_t>& counts, PipelineStats* stats = nullptr) {
  PipelineStats& sink = stats != nullptr ? *stats : GlobalStats();
  // Span name distinguishes the range-count strategy so a trace shows
  // which one a query actually paid for.
  telemetry::TraceSpan span(method == RangeCountMethod::kQuadtree
                                ? "range_count_quadtree"
                                : "range_count_scan");
  counts.assign(cells.num_points(), 0);
  parallel::parallel_for(
      0, cells.num_cells(),
      [&](size_t c) {
        internal::CountCellPoints(cells, cap, method, trees, c, counts, sink);
      },
      1);
}

// The incremental variant: recounts only the cells listed in `cell_ids`,
// leaving every other point's entry untouched. `counts` must already be
// sized to cells.num_points() (the streaming path copies retained cells'
// counts from the previous snapshot first). Counting a cell reads its
// neighbors' points but writes only the cell's own count range, so the
// listed cells may be any subset, in any order.
template <int D>
void MarkCoreCountsForCells(
    const CellStructure<D>& cells, size_t cap, RangeCountMethod method,
    const std::vector<std::unique_ptr<geometry::CellQuadtree<D>>>* trees,
    std::span<const uint32_t> cell_ids, std::vector<uint32_t>& counts,
    PipelineStats* stats = nullptr) {
  PipelineStats& sink = stats != nullptr ? *stats : GlobalStats();
  parallel::parallel_for(
      0, cell_ids.size(),
      [&](size_t k) {
        internal::CountCellPoints(cells, cap, method, trees, cell_ids[k],
                                  counts, sink);
      },
      1);
}

// Thresholds saturated counts into core flags; valid for min_pts up to the
// cap the counts were computed with.
inline void CoreFlagsFromCounts(std::span<const uint32_t> counts,
                                size_t min_pts, std::vector<uint8_t>& flags) {
  flags.resize(counts.size());  // Every element is written below.
  parallel::parallel_for(0, counts.size(),
                         [&](size_t i) { flags[i] = counts[i] >= min_pts; });
}

// Returns a flag per *reordered* point position: 1 iff the point is core.
template <int D>
std::vector<uint8_t> MarkCore(const CellStructure<D>& cells, size_t min_pts,
                              RangeCountMethod method) {
  std::vector<std::unique_ptr<geometry::CellQuadtree<D>>> trees;
  if (method == RangeCountMethod::kQuadtree) {
    trees = BuildCellQuadtrees(cells);
  }
  std::vector<uint32_t> counts;
  MarkCoreCounts(cells, min_pts, method, &trees, counts);
  std::vector<uint8_t> core_flags;
  CoreFlagsFromCounts(counts, min_pts, core_flags);
  return core_flags;
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_MARK_CORE_H_
