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
#include "parallel/scheduler.h"

namespace pdbscan::dbscan {

// In-place variant of ClusterBorder: fills `memberships` (resized to the
// point count; existing inner vectors are cleared but keep their capacity,
// which is what makes a QueryContext's workspace reuse pay off).
template <int D>
void ClusterBorderInto(const CellStructure<D>& cells,
                       const std::vector<uint8_t>& core_flags,
                       const CoreIndex& core, size_t min_pts,
                       containers::UnionFind& uf,
                       std::vector<std::vector<uint32_t>>& memberships) {
  const Metric metric = cells.metric;
  const double threshold = MetricThreshold(cells.epsilon, metric);
  memberships.resize(cells.num_points());
  parallel::parallel_for(0, memberships.size(),
                         [&](size_t i) { memberships[i].clear(); });

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

  parallel::parallel_for(
      0, cells.num_cells(),
      [&](size_t g) {
        if (cells.cell_size(g) >= min_pts) return;  // All-core cell.
        const auto neighbors = cells.neighbors(g);
        for (size_t i = cells.offsets[g]; i < cells.offsets[g + 1]; ++i) {
          if (core_flags[i]) continue;
          const geometry::Point<D>& p = cells.points[i];
          std::vector<uint32_t>& roots = memberships[i];
          if (cell_reaches(g, p)) {
            roots.push_back(static_cast<uint32_t>(uf.Find(g)));
          }
          for (const uint32_t h : neighbors) {
            if (cell_reaches(h, p)) {
              roots.push_back(static_cast<uint32_t>(uf.Find(h)));
            }
          }
          std::sort(roots.begin(), roots.end());
          roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
        }
      },
      1);
}

// For each non-core point (by reordered position), the sorted list of root
// cells (union-find roots) of the clusters it belongs to. Core and noise
// points get empty lists.
template <int D>
std::vector<std::vector<uint32_t>> ClusterBorder(
    const CellStructure<D>& cells, const std::vector<uint8_t>& core_flags,
    const CoreIndex& core, size_t min_pts, containers::UnionFind& uf) {
  std::vector<std::vector<uint32_t>> memberships;
  ClusterBorderInto(cells, core_flags, core, min_pts, uf, memberships);
  return memberships;
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_CLUSTER_BORDER_H_
