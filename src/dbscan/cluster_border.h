// ClusterBorder — Algorithm 4 of the paper (Section 4.5).
//
// Non-core points join the cluster of every core point within epsilon, so a
// border point can belong to several clusters. Border points only exist in
// cells with fewer than minPts points (denser cells are all-core). For each
// such point we check its own cell and every neighboring cell; since all
// core points of one cell share a cluster, a cell's cluster is recorded on
// the first hit and the rest of the cell is skipped.
#ifndef PDBSCAN_DBSCAN_CLUSTER_BORDER_H_
#define PDBSCAN_DBSCAN_CLUSTER_BORDER_H_

#include <algorithm>
#include <vector>

#include "containers/union_find.h"
#include "dbscan/cell_structure.h"
#include "dbscan/cluster_core.h"
#include "dbscan/metric.h"
#include "dbscan/workspace.h"
#include "parallel/scheduler.h"
#include "primitives/scan.h"

namespace pdbscan::dbscan {

// Fills `out` with the cluster roots of every point, by reordered position,
// in one pass over the cells: core points get their cell's root; border
// points (none when `core_only`, DBSCAN*) the roots of the core cells that
// reach them; the rest kNoRoot. Points with several roots are counted per
// cell in that pass, and a second pass over the cells that have any fills
// the side list. Every buffer keeps its capacity across calls.
template <int D>
void ClusterBorder(const CellStructure<D>& cells,
                   const std::vector<uint8_t>& core_flags,
                   const CoreIndex& core, size_t min_pts, bool core_only,
                   containers::UnionFind& uf, PointRoots& out) {
  constexpr uint32_t kNoRoot = PointRoots::kNoRoot;
  constexpr uint32_t kMultiRoot = PointRoots::kMultiRoot;
  const Metric metric = cells.metric;
  const double threshold = MetricThreshold(cells.epsilon, metric);
  const size_t num_cells = cells.num_cells();
  out.root.resize(cells.num_points());  // Every element is written below.
  out.cell_multi_points.resize(num_cells);
  out.cell_multi_roots.resize(num_cells);

  // Does `cell` contain a core point within eps of p?
  auto cell_reaches = [&](size_t cell, const geometry::Point<D>& p) {
    if (!core.cell_is_core[cell]) return false;
    if (BoxMinMeasure<D>(cells.cell_boxes[cell], p, metric) > threshold) {
      return false;
    }
    for (const uint32_t pos : core.core_of(cell)) {
      if (PointMeasure<D>(cells.points[pos], p, metric) <= threshold) {
        return true;
      }
    }
    return false;
  };

  // The distinct roots of the clusters reaching p, a point of cell g,
  // ascending, in a per-thread buffer that keeps its capacity.
  auto border_roots = [&](size_t g, const geometry::Point<D>& p)
      -> const std::vector<uint32_t>& {
    thread_local std::vector<uint32_t> roots;
    roots.clear();
    if (cell_reaches(g, p)) roots.push_back(static_cast<uint32_t>(uf.Find(g)));
    for (const uint32_t h : cells.neighbors(g)) {
      if (cell_reaches(h, p)) {
        roots.push_back(static_cast<uint32_t>(uf.Find(h)));
      }
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    return roots;
  };

  parallel::parallel_for(
      0, num_cells,
      [&](size_t g) {
        const uint32_t own = core.cell_is_core[g]
                                 ? static_cast<uint32_t>(uf.Find(g))
                                 : kNoRoot;
        const bool has_border = !core_only && cells.cell_size(g) < min_pts;
        size_t multi_points = 0;
        size_t multi_roots = 0;
        for (size_t i = cells.offsets[g]; i < cells.offsets[g + 1]; ++i) {
          if (core_flags[i]) {
            out.root[i] = own;
            continue;
          }
          if (!has_border) {
            out.root[i] = kNoRoot;
            continue;
          }
          const std::vector<uint32_t>& roots = border_roots(g, cells.points[i]);
          if (roots.size() <= 1) {
            out.root[i] = roots.empty() ? kNoRoot : roots[0];
            continue;
          }
          out.root[i] = kMultiRoot;
          ++multi_points;
          multi_roots += roots.size();
        }
        out.cell_multi_points[g] = multi_points;
        out.cell_multi_roots[g] = multi_roots;
      },
      1);

  const size_t num_multi = primitives::ScanExclusive(out.cell_multi_points);
  const size_t num_multi_roots =
      primitives::ScanExclusive(out.cell_multi_roots);
  out.multi_points.resize(num_multi);
  out.multi_offsets.resize(num_multi + 1);
  out.multi_roots.resize(num_multi_roots);
  out.multi_offsets[num_multi] = num_multi_roots;
  if (num_multi == 0) return;
  parallel::parallel_for(
      0, num_cells,
      [&](size_t g) {
        size_t k = out.cell_multi_points[g];
        const size_t end =
            g + 1 < num_cells ? out.cell_multi_points[g + 1] : num_multi;
        size_t w = out.cell_multi_roots[g];
        for (size_t i = cells.offsets[g]; k < end; ++i) {
          if (out.root[i] != kMultiRoot) continue;
          const std::vector<uint32_t>& roots = border_roots(g, cells.points[i]);
          out.multi_points[k] = static_cast<uint32_t>(i);
          out.multi_offsets[k] = w;
          std::copy(roots.begin(), roots.end(), out.multi_roots.begin() + w);
          w += roots.size();
          ++k;
        }
      },
      1);
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_CLUSTER_BORDER_H_
