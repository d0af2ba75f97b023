// The full DBSCAN pipeline (Algorithm 1 of the paper): cell construction ->
// MarkCore -> ClusterCore -> ClusterBorder -> label normalization.
//
// The build half (cells, MarkCore counts) is the CellIndex constructor and
// the query half is QueryContext (both in cell_index.h); this header keeps
// the historical one-shot entry point as one of each, so the one-shot,
// engine and serving paths are literally the same code.
#ifndef PDBSCAN_DBSCAN_PIPELINE_H_
#define PDBSCAN_DBSCAN_PIPELINE_H_

#include <span>
#include <stdexcept>

#include "dbscan/cell_index.h"
#include "dbscan/types.h"
#include "geometry/point.h"

namespace pdbscan::dbscan {

// Runs DBSCAN over `input` with the given parameters and configuration:
// builds an index with counts saturated at min_pts, then queries it once.
template <int D>
Clustering RunDbscan(std::span<const geometry::Point<D>> input, double epsilon,
                     size_t min_pts, const Options& options = Options()) {
  if (min_pts == 0) throw std::invalid_argument("min_pts must be positive");
  const CellIndex<D> index(input, epsilon, min_pts, options);
  QueryContext<D> ctx;
  return ctx.Run(index, min_pts);
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_PIPELINE_H_
