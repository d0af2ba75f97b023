// The per-query half of Algorithm 1: from saturated neighbor counts to a
// finished Clustering (core flags -> cell-graph connectivity -> border
// assignment -> deterministic relabeling).
//
// This is the code every query runs, through QueryContext (cell_index.h):
// one-shot RunDbscan, DbscanEngine and EnginePool all hold a context and a
// frozen CellIndex, which is what makes their results bit-identical. The
// CellIndex may be a full build, a streaming snapshot published by
// streaming::DynamicCellIndex or a loaded snapshot — the pipeline only sees
// (cells, counts), so it runs off any of them unchanged.
//
// Everything here reads `cells` and `counts` as const and writes only into
// the caller's Workspace and stats sink, so any number of calls may run
// concurrently against the same cell structure as long as each call has its
// own Workspace and (if per-client attribution matters) its own
// PipelineStats.
#ifndef PDBSCAN_DBSCAN_QUERY_H_
#define PDBSCAN_DBSCAN_QUERY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dbscan/cell_structure.h"
#include "dbscan/cluster_border.h"
#include "dbscan/cluster_core.h"
#include "dbscan/mark_core.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "dbscan/workspace.h"
#include "parallel/scheduler.h"
#include "primitives/filter.h"
#include "primitives/scan.h"
#include "primitives/sort.h"
#include "telemetry/trace.h"

namespace pdbscan::dbscan {

namespace internal {

// Lowers `slot` to `value` if that is smaller, atomically.
inline void WriteMin(uint32_t& slot, uint32_t value) {
  std::atomic_ref<uint32_t> ref(slot);
  uint32_t current = ref.load(std::memory_order_relaxed);
  while (value < current &&
         !ref.compare_exchange_weak(current, value,
                                    std::memory_order_relaxed)) {
  }
}

// Relabels union-find roots to consecutive cluster ids, assigned by the
// first appearance in the caller's point order, and assembles the public
// Clustering from `roots` (ClusterBorder's output). Scratch lives in `ws`;
// the returned Clustering owns fresh storage.
//
// Clusters are ordered by (smallest original index of a member, smallest
// original index of a core member). The second key breaks the tie when a
// border point is the first member of several clusters; a core point
// belongs to exactly one cluster, so the key is unique and the ids never
// depend on root (cell) ids, i.e. on the cell layout. That is computed here
// in parallel: write-mins of each root's two keys, a filter of the roots in
// use, and a sort; memberships are then a count per original index, an
// exclusive scan and a parallel fill.
template <int D>
Clustering Finalize(const CellStructure<D>& cells,
                    const std::vector<uint8_t>& core_flags,
                    const PointRoots& roots, Workspace<D>& ws) {
  constexpr uint32_t kNoRoot = PointRoots::kNoRoot;
  constexpr uint32_t kMultiRoot = PointRoots::kMultiRoot;
  constexpr uint32_t kUnused = std::numeric_limits<uint32_t>::max();
  const size_t n = cells.num_points();
  const size_t num_cells = cells.num_cells();
  const size_t num_multi = roots.num_multi();
  const auto& orig = cells.orig_index;
  Clustering out;
  out.cluster.assign(n, Clustering::kNoise);
  out.is_core.resize(n);
  out.membership_offsets.resize(n + 1);

  // Each root's first original index and first core original index: one
  // write-min each per run of equal roots within a cell (a core cell's
  // points share one), and one per side-list entry (border points only).
  ws.first_index.assign(num_cells, kUnused);
  ws.first_core_index.assign(num_cells, kUnused);
  parallel::parallel_for(
      0, num_cells,
      [&](size_t c) {
        uint32_t run_root = kNoRoot;
        uint32_t run_min = kUnused;
        uint32_t run_core_min = kUnused;
        auto flush = [&]() {
          WriteMin(ws.first_index[run_root], run_min);
          if (run_core_min != kUnused) {
            WriteMin(ws.first_core_index[run_root], run_core_min);
          }
        };
        for (size_t i = cells.offsets[c]; i < cells.offsets[c + 1]; ++i) {
          const uint32_t r = roots.root[i];
          if (r == kNoRoot || r == kMultiRoot) continue;
          if (r != run_root && run_root != kNoRoot) {
            flush();
            run_min = kUnused;
            run_core_min = kUnused;
          }
          run_root = r;
          run_min = std::min<uint32_t>(run_min, orig[i]);
          if (core_flags[i]) {
            run_core_min = std::min<uint32_t>(run_core_min, orig[i]);
          }
        }
        if (run_root != kNoRoot) flush();
      },
      1);
  parallel::parallel_for(0, num_multi, [&](size_t k) {
    const uint32_t first = orig[roots.multi_points[k]];
    for (const uint32_t r : roots.multi_roots_of(k)) {
      WriteMin(ws.first_index[r], first);
    }
  });

  // Cluster ids: the roots in use, ordered by (first index, first core
  // index).
  std::vector<size_t> used = primitives::FilterIndex(
      num_cells, [&](size_t r) { return ws.first_index[r] != kUnused; });
  primitives::ParallelSort(used, [&](size_t a, size_t b) {
    const uint32_t fa = ws.first_index[a];
    const uint32_t fb = ws.first_index[b];
    return fa != fb ? fa < fb
                    : ws.first_core_index[a] < ws.first_core_index[b];
  });
  ws.root_to_id.resize(num_cells);  // Only roots in use are read.
  parallel::parallel_for(0, used.size(), [&](size_t k) {
    ws.root_to_id[used[k]] = static_cast<int64_t>(k);
  });
  out.num_clusters = used.size();

  // Membership counts per original index, scanned into offsets.
  parallel::parallel_for(0, n, [&](size_t i) {
    const uint32_t r = roots.root[i];
    out.membership_offsets[orig[i]] = r == kNoRoot || r == kMultiRoot ? 0 : 1;
    out.is_core[orig[i]] = core_flags[i];
  });
  parallel::parallel_for(0, num_multi, [&](size_t k) {
    out.membership_offsets[orig[roots.multi_points[k]]] =
        roots.multi_roots_of(k).size();
  });
  out.membership_offsets[n] = 0;
  out.membership_ids.resize(
      primitives::ScanExclusive(out.membership_offsets));

  parallel::parallel_for(0, n, [&](size_t i) {
    const uint32_t r = roots.root[i];
    if (r == kNoRoot || r == kMultiRoot) return;
    const size_t o = orig[i];
    out.cluster[o] = ws.root_to_id[r];
    out.membership_ids[out.membership_offsets[o]] = ws.root_to_id[r];
  });
  parallel::parallel_for(0, num_multi, [&](size_t k) {
    const size_t o = orig[roots.multi_points[k]];
    const auto begin = out.membership_ids.begin() + out.membership_offsets[o];
    auto w = begin;
    for (const uint32_t r : roots.multi_roots_of(k)) *w++ = ws.root_to_id[r];
    std::sort(begin, w);
    out.cluster[o] = *begin;
  });
  return out;
}

}  // namespace internal

// Lines 3-5 of Algorithm 1 from precomputed saturated neighbor counts, plus
// finalization. `neighbor_counts` must have been computed over `cells` with
// a cap >= min_pts (MarkCoreCounts); it may live in a shared CellIndex or
// in `ws` (a context's over-cap recount) — it is only read. The result is
// a deterministic function of (cells, counts, min_pts, options), so every
// caller with equal inputs produces bit-identical clusterings.
template <int D>
Clustering RunQueryFromCounts(const CellStructure<D>& cells,
                              std::span<const uint32_t> neighbor_counts,
                              size_t min_pts, const Options& options,
                              Workspace<D>& ws, PipelineStats& stats) {
  const CoreIndex core = [&]() {
    telemetry::TraceSpan span("mark_core", stats.mark_core_seconds);
    CoreFlagsFromCounts(neighbor_counts, min_pts, ws.core_flags);
    return BuildCoreIndex(cells, ws.core_flags);
  }();

  {
    telemetry::TraceSpan span("cluster_core", stats.cluster_core_seconds);
    ws.uf.Reset(cells.num_cells());
    ClusterCore(cells, core, options, ws.uf, stats);
  }

  {
    telemetry::TraceSpan span("cluster_border", stats.cluster_border_seconds);
    ClusterBorder(cells, ws.core_flags, core, min_pts, options.core_only,
                  ws.uf, ws.point_roots);
  }

  telemetry::TraceSpan span("finalize", stats.finalize_seconds);
  return internal::Finalize(cells, ws.core_flags, ws.point_roots, ws);
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_QUERY_H_
