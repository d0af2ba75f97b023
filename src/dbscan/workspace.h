// Scratch buffers for one query stream, reused across runs.
//
// Every vector here is sized with assign/resize instead of being
// reconstructed, so its allocation (and, for the nested membership lists,
// every inner allocation) survives from one Run to the next. A parameter
// sweep through a warm owner therefore touches the allocator only when a
// buffer genuinely needs to grow.
//
// Ownership model: a Workspace is private, mutable, per-thread state owned
// by one QueryContext (cell_index.h) — standalone under concurrent serving,
// or inside a DbscanEngine for its whole lifetime. That is exactly what
// makes N contexts safe against a single frozen CellIndex — all shared
// state is const, all mutation lands here. Never share a Workspace between
// threads.
#ifndef PDBSCAN_DBSCAN_WORKSPACE_H_
#define PDBSCAN_DBSCAN_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "containers/union_find.h"

namespace pdbscan::dbscan {

template <int D>
struct Workspace {
  // The context's private over-cap recount: saturated epsilon-neighbor
  // counts per reordered point for a min_pts above the index's counts cap
  // (answers every min_pts <= the cap it was built with; see
  // MarkCoreCounts).
  std::vector<uint32_t> neighbor_counts;

  // Core flags for the current min_pts.
  std::vector<uint8_t> core_flags;

  // Per reordered point, the union-find roots of the clusters it belongs to
  // (inner vectors keep their capacity across runs).
  std::vector<std::vector<uint32_t>> point_roots;

  // Union-find over cells, Reset() once per run.
  containers::UnionFind uf;

  // Finalize scratch: per-original-index membership pointers and the
  // root-cell -> consecutive-cluster-id map.
  std::vector<const std::vector<uint32_t>*> by_orig;
  std::vector<int64_t> root_to_id;
};

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_WORKSPACE_H_
