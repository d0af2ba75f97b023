// The per-query half of Algorithm 1: from saturated neighbor counts to a
// finished Clustering (core flags -> cell-graph connectivity -> border
// assignment -> deterministic relabeling).
//
// This is the code every query runs, through QueryContext (cell_index.h):
// one-shot RunDbscan, DbscanEngine and EnginePool all hold a context and a
// frozen CellIndex, which is what makes their results bit-identical. The
// CellIndex may be a full build, a streaming snapshot published by
// streaming::DynamicCellIndex, a sharded merge or a loaded snapshot — the
// pipeline only sees (cells, counts), so it runs off any of them unchanged.
//
// Everything here reads `cells` and `counts` as const and writes only into
// the caller's Workspace and stats sink, so any number of calls may run
// concurrently against the same cell structure as long as each call has its
// own Workspace and (if per-client attribution matters) its own
// PipelineStats.
#ifndef PDBSCAN_DBSCAN_QUERY_H_
#define PDBSCAN_DBSCAN_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dbscan/cell_structure.h"
#include "dbscan/cluster_border.h"
#include "dbscan/cluster_core.h"
#include "dbscan/mark_core.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "dbscan/workspace.h"
#include "parallel/scheduler.h"
#include "telemetry/trace.h"
#include "util/timer.h"

namespace pdbscan::dbscan {

namespace internal {

// Relabels union-find roots to consecutive cluster ids, assigned by the
// first appearance in the caller's point order, and assembles the public
// Clustering. `point_roots` holds, for each reordered position, the sorted
// list of root cells the point belongs to (one entry for core points,
// possibly several for border points, none for noise). Scratch lives in
// `ws`; the returned Clustering owns fresh storage.
template <int D>
Clustering Finalize(const CellStructure<D>& cells,
                    const std::vector<uint8_t>& core_flags,
                    const std::vector<std::vector<uint32_t>>& point_roots,
                    Workspace<D>& ws) {
  const size_t n = cells.num_points();
  Clustering out;
  out.cluster.assign(n, Clustering::kNoise);
  out.is_core.assign(n, 0);
  out.membership_offsets.assign(n + 1, 0);

  // Gather per-original-index membership lists.
  ws.by_orig.assign(n, nullptr);
  parallel::parallel_for(0, n, [&](size_t i) {
    const uint32_t orig = cells.orig_index[i];
    ws.by_orig[orig] = &point_roots[i];
    out.is_core[orig] = core_flags[i];
  });

  // First-appearance relabeling (serial, O(n + memberships)).
  ws.root_to_id.assign(cells.num_cells(), -1);
  int64_t next_id = 0;
  size_t total_memberships = 0;
  for (size_t i = 0; i < n; ++i) {
    for (const uint32_t root : *ws.by_orig[i]) {
      if (ws.root_to_id[root] < 0) ws.root_to_id[root] = next_id++;
      ++total_memberships;
    }
  }
  out.num_clusters = static_cast<size_t>(next_id);

  for (size_t i = 0; i < n; ++i) {
    out.membership_offsets[i + 1] =
        out.membership_offsets[i] + ws.by_orig[i]->size();
  }
  out.membership_ids.resize(total_memberships);
  parallel::parallel_for(0, n, [&](size_t i) {
    size_t w = out.membership_offsets[i];
    for (const uint32_t root : *ws.by_orig[i]) {
      out.membership_ids[w++] = ws.root_to_id[root];
    }
    auto begin = out.membership_ids.begin() + out.membership_offsets[i];
    auto end = out.membership_ids.begin() + out.membership_offsets[i + 1];
    std::sort(begin, end);
    if (begin != end) out.cluster[i] = *begin;
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
  util::Timer timer;
  {
    telemetry::TraceSpan span("mark_core");
    CoreFlagsFromCounts(neighbor_counts, min_pts, ws.core_flags);
  }
  const CoreIndex core = BuildCoreIndex(cells, ws.core_flags);
  AddSeconds(stats.mark_core_seconds, timer.Seconds());

  timer.Reset();
  {
    telemetry::TraceSpan span("cluster_core");
    ws.uf.Reset(cells.num_cells());
    ClusterCore(cells, core, options, ws.uf, stats);
  }
  AddSeconds(stats.cluster_core_seconds, timer.Seconds());

  timer.Reset();
  {
    telemetry::TraceSpan span("cluster_border");
    if (options.core_only) {
      // DBSCAN*: clusters consist of core points only.
      ws.point_roots.resize(cells.num_points());
      parallel::parallel_for(0, ws.point_roots.size(),
                             [&](size_t i) { ws.point_roots[i].clear(); });
    } else {
      ClusterBorderInto(cells, ws.core_flags, core, min_pts, ws.uf,
                        ws.point_roots);
    }
    // Core points belong to exactly their cell's component.
    parallel::parallel_for(
        0, cells.num_cells(),
        [&](size_t c) {
          if (!core.cell_is_core[c]) return;
          const uint32_t root = static_cast<uint32_t>(ws.uf.Find(c));
          for (const uint32_t pos : core.core_of(c)) {
            ws.point_roots[pos].assign(1, root);
          }
        },
        1);
  }
  AddSeconds(stats.cluster_border_seconds, timer.Seconds());

  timer.Reset();
  Clustering out = [&]() {
    telemetry::TraceSpan span("finalize");
    return internal::Finalize(cells, ws.core_flags, ws.point_roots, ws);
  }();
  AddSeconds(stats.finalize_seconds, timer.Seconds());
  return out;
}

// Shared min_pts-sweep driver: rejects zero settings, computes cap =
// max(list), obtains (cells, counts valid up to cap) once from
// `provide(cap)`, then answers every setting via RunQueryFromCounts.
// QueryContext::Sweep (shared-index or private counts) wraps this, and
// DbscanEngine::Sweep and EnginePool::Sweep go through QueryContext, so
// sweep validation and cap policy cannot diverge.
template <int D, typename Provider>
std::vector<Clustering> SweepFromCounts(std::span<const size_t> minpts_list,
                                        const Options& options,
                                        Workspace<D>& ws,
                                        PipelineStats& stats,
                                        Provider&& provide) {
  std::vector<Clustering> out;
  out.reserve(minpts_list.size());
  if (minpts_list.empty()) return out;
  size_t cap = 0;
  for (const size_t m : minpts_list) {
    if (m == 0) throw std::invalid_argument("min_pts must be positive");
    cap = std::max(cap, m);
  }
  const std::pair<const CellStructure<D>&, std::span<const uint32_t>> cc =
      provide(cap);
  for (const size_t m : minpts_list) {
    out.push_back(RunQueryFromCounts(cc.first, cc.second, m, options, ws,
                                     stats));
  }
  return out;
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_QUERY_H_
