// Scratch buffers for one query stream, reused across runs.
//
// Every vector here is flat and sized with assign/resize instead of being
// reconstructed, so its allocation survives from one Run to the next. A
// parameter sweep through a warm owner therefore touches the allocator only
// when a buffer genuinely needs to grow.
//
// Ownership model: a Workspace is private, mutable, per-thread state owned
// by one QueryContext (cell_index.h) — standalone under concurrent serving,
// or inside a DbscanEngine for its whole lifetime. That is exactly what
// makes N contexts safe against a single frozen CellIndex — all shared
// state is const, all mutation lands here. Never share a Workspace between
// threads.
#ifndef PDBSCAN_DBSCAN_WORKSPACE_H_
#define PDBSCAN_DBSCAN_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "containers/union_find.h"

namespace pdbscan::dbscan {

// The clusters of every reordered point, as union-find roots (cell ids).
// Nearly every point has at most one: a core point exactly its cell's, a
// border point usually one. So `root` holds it inline, one entry per
// position: the root, kNoRoot for noise, or kMultiRoot for the rare border
// point shared by several clusters. Those points and their ascending roots
// sit in a CSR side list, in position order:
//   multi_roots[multi_offsets[k] .. multi_offsets[k+1]) for multi_points[k].
struct PointRoots {
  static constexpr uint32_t kNoRoot = std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t kMultiRoot = kNoRoot - 1;

  std::vector<uint32_t> root;
  std::vector<uint32_t> multi_points;
  std::vector<size_t> multi_offsets;
  std::vector<uint32_t> multi_roots;

  // Count-then-fill scratch: per cell, its multi-root points and their
  // roots, scanned into the cell's offsets in the side list.
  std::vector<size_t> cell_multi_points;
  std::vector<size_t> cell_multi_roots;

  size_t num_multi() const { return multi_points.size(); }
  std::span<const uint32_t> multi_roots_of(size_t k) const {
    return std::span<const uint32_t>(multi_roots.data() + multi_offsets[k],
                                     multi_offsets[k + 1] - multi_offsets[k]);
  }
};

template <int D>
struct Workspace {
  // The context's private over-cap recount: saturated epsilon-neighbor
  // counts per reordered point for a min_pts above the index's counts cap,
  // rewritten by every such query (see MarkCoreCounts).
  std::vector<uint32_t> neighbor_counts;

  // Core flags for the current min_pts.
  std::vector<uint8_t> core_flags;

  // Cluster roots per reordered point (ClusterBorder's output).
  PointRoots point_roots;

  // Union-find over cells, Reset() once per run.
  containers::UnionFind uf;

  // Finalize scratch, per root cell: the smallest original index of a
  // point in its cluster, the smallest of a core point in it, and its
  // consecutive cluster id.
  std::vector<uint32_t> first_index;
  std::vector<uint32_t> first_core_index;
  std::vector<int64_t> root_to_id;
};

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_WORKSPACE_H_
