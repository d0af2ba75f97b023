// The cell decomposition shared by every DBSCAN variant (Section 3).
//
// Points are partitioned into disjoint cells of diameter at most epsilon
// (side epsilon/sqrt(d) for the grid method; width/height at most
// epsilon/sqrt(2) for the 2D box method), so that all points of a cell
// belong to the same cluster whenever any of them is a core point. The rest
// of the pipeline (MarkCore, ClusterCore, ClusterBorder) consumes this
// structure generically: reordered points with per-cell contiguous ranges,
// per-cell bounding boxes, and a CSR adjacency of "neighboring cells" (cells
// that could contain points within epsilon of the cell).
//
// Storage: every array is a containers::FlatArray, which a builder uses
// exactly like a std::vector but which can also VIEW caller-pinned memory.
// The persistence layer (persist/snapshot.h) exploits that to serve a
// structure straight out of an mmap'ed snapshot file with zero copies —
// the query pipeline only reads data()/size() and cannot tell an owned
// structure from a mapped one. A structure holding views does not keep the
// backing buffer alive; its owner does (CellIndex pins the mapping).
#ifndef PDBSCAN_DBSCAN_CELL_STRUCTURE_H_
#define PDBSCAN_DBSCAN_CELL_STRUCTURE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "containers/flat_array.h"
#include "dbscan/types.h"
#include "geometry/point.h"
#include "parallel/scheduler.h"
#include "primitives/scan.h"

namespace pdbscan::dbscan {

template <int D>
struct CellStructure {
  template <typename T>
  using Array = containers::FlatArray<T>;

  double epsilon = 0;

  // Distance metric the structure was built for: the cell side, the CSR
  // neighbor adjacency, and every downstream distance comparison (MarkCore,
  // BCP, border assignment) depend on it. Builders that hand-assemble a
  // structure (streaming recompose, sharded merge, snapshot load) must set
  // it to match the producing Options.
  Metric metric = Metric::kL2;

  // Points reordered so each cell's points are contiguous; orig_index maps a
  // reordered position back to the caller's point index.
  Array<geometry::Point<D>> points;
  Array<uint32_t> orig_index;

  // Cell c holds points [offsets[c], offsets[c+1]).
  Array<size_t> offsets;

  // Integer grid coordinates per cell (grid method only; empty for the box
  // method).
  Array<geometry::CellCoords<D>> coords;

  // Geometric bounds per cell: the grid cell box for the grid method, the
  // tight content box for the box method. Distinct cells' boxes are
  // separated along at least one axis, which the USEC dispatch relies on.
  Array<geometry::BBox<D>> cell_boxes;

  // CSR adjacency: neighbors of cell c are nbrs[nbr_offsets[c] ..
  // nbr_offsets[c+1]). A neighbor is any other cell whose box is within
  // epsilon of c's box.
  Array<size_t> nbr_offsets;
  Array<uint32_t> nbrs;

  // Structure-of-arrays coordinate lanes over the reordered points:
  // soa[d][i] == points[i][d]. Derived data (never serialized) consumed by
  // the SIMD distance kernels (src/kernels/): per-cell point ranges become
  // contiguous per-dimension double runs, loadable 8 at a time. Builders
  // populate the lanes with BuildSoALanes() (owned, 64-byte aligned); a
  // mapped snapshot serves them as strided views straight into its AoS
  // point array (ViewSoALanesFromPoints — zero copies, scalar-read only).
  // When absent (has_soa() == false) every kernel call site falls back to
  // the AoS scalar loop, which is bit-identical by contract.
  std::array<Array<double>, D> soa;

  size_t num_points() const { return points.size(); }
  size_t num_cells() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  size_t cell_size(size_t c) const { return offsets[c + 1] - offsets[c]; }

  std::span<const geometry::Point<D>> cell_points(size_t c) const {
    return std::span<const geometry::Point<D>>(points.data() + offsets[c],
                                               cell_size(c));
  }

  std::span<const uint32_t> neighbors(size_t c) const {
    return std::span<const uint32_t>(nbrs.data() + nbr_offsets[c],
                                     nbr_offsets[c + 1] - nbr_offsets[c]);
  }

  // True iff the SoA lanes are populated and consistent with points.
  bool has_soa() const {
    if (points.empty()) return false;
    for (int d = 0; d < D; ++d) {
      if (soa[static_cast<size_t>(d)].size() != points.size()) return false;
    }
    return true;
  }

  // Element stride of the SoA lanes (1 for built lanes, D for lanes viewed
  // out of a mapped AoS point array).
  size_t soa_stride() const { return soa[0].stride(); }

  // Materializes owned, 64-byte-aligned SoA lanes from `points`
  // (transpose; every builder calls this once, after the reordered points
  // are final).
  void BuildSoALanes() {
    const size_t n = points.size();
    if (n == 0) {
      for (auto& lane : soa) lane.clear();
      return;
    }
    std::array<double*, D> dst;
    for (int d = 0; d < D; ++d) {
      dst[static_cast<size_t>(d)] =
          soa[static_cast<size_t>(d)].AllocateAligned(n);
    }
    const geometry::Point<D>* src = points.data();
    parallel::parallel_for(0, n, [&](size_t i) {
      for (int d = 0; d < D; ++d) {
        dst[static_cast<size_t>(d)][i] = src[i][d];
      }
    });
  }

  // Points the SoA lanes at the existing AoS point buffer with stride D —
  // zero-copy, for structures whose points VIEW pinned memory (a mapped
  // snapshot). Kernels read strided lanes through the scalar path. Never
  // call this on a structure that owns its points: the lanes would dangle
  // as soon as the structure is copied or its points reallocate.
  void ViewSoALanesFromPoints() {
    static_assert(sizeof(geometry::Point<D>) == D * sizeof(double),
                  "SoA lane views require densely packed points");
    const size_t n = points.size();
    const double* base = reinterpret_cast<const double*>(points.data());
    for (int d = 0; d < D; ++d) {
      soa[static_cast<size_t>(d)] = Array<double>::StridedView(
          n == 0 ? nullptr : base + d, n, static_cast<size_t>(D));
    }
  }

  // Sizes every per-point and per-cell array for `num_cells` cells holding
  // `num_points` reordered points, leaving contents unspecified: offsets
  // must then be filled as a prefix sum, followed by points / orig_index /
  // coords / cell_boxes and a neighbor-adjacency pass (BuildGridAdjacency).
  // This is the incremental-build entry point — the streaming
  // DynamicCellIndex recomposes a structure cell by cell through it instead
  // of re-running BuildGrid's semisort over all points.
  void ResizeForCells(size_t num_cells, size_t num_points) {
    points.resize(num_points);
    orig_index.resize(num_points);
    offsets.assign(num_cells + 1, 0);
    coords.resize(num_cells);
    cell_boxes.resize(num_cells);
    // Any existing lanes are stale the moment points are recomposed; drop
    // them so has_soa() cannot report a false positive at the old size.
    for (auto& lane : soa) lane.clear();
  }
};

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_CELL_STRUCTURE_H_
