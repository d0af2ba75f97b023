// ShardedCellIndex — spatially partitioned index construction: per-shard
// cell structures and MarkCore counts built concurrently, reconciled by a
// boundary-merge stage that touches only cells within one epsilon of a
// shard seam, and frozen into a single immutable CellIndex that the
// ordinary query surfaces (QueryContext, EnginePool, sweeps) serve
// unchanged.
//
// Why this is exact: the paper's grid decomposition localizes every
// pipeline input. A cell's saturated MarkCore counts depend only on points
// in cells within epsilon of it; connectivity and border reach likewise
// consult only eps-adjacent cells. Partitioning the lattice into
// grid-aligned slabs (shard_planner.h) therefore splits the build into
// independent per-shard problems *except* for cells within `halo` lattice
// columns of a seam. The build runs in three phases:
//
//   1. per-shard build (concurrent, one scheduler task per shard): each
//      shard runs the standard BuildGrid over its own points — anchored at
//      the GLOBAL bounding-box origin, so shard cells are verbatim subsets
//      of the single-index decomposition — and counts its *interior* cells
//      with the standard Algorithm 2 body. Interior cells have their whole
//      eps-neighborhood inside the shard, so these counts are already
//      globally exact.
//   2. recomposition: the per-shard structures concatenate into one flat
//      CellStructure (offsets/points/coords/boxes re-based; within-shard
//      adjacency re-indexed). A memcpy-scale pass, like the streaming
//      recomposition.
//   3. boundary merge: cross-seam adjacency is discovered among boundary
//      cells only (ForEachNeighborAmong in grid.h — literally the same
//      dispatch BuildGridAdjacency runs, restricted to the seam cells),
//      and boundary cells are recounted against the now-complete merged
//      adjacency. Merge work is proportional to the number of boundary
//      cells, never the dataset: shard_boundary_cells / shard_seam_links /
//      shard_merge_seconds in the stats sink make that measurable, and
//      bench/throughput_sharded.cpp enforces it by exit code.
//
// The merged (structure, counts) pair then freezes through the same
// adoption constructor the streaming path uses, producing a CellIndex that
// queries cannot distinguish from a from-scratch build. For exact
// configurations the resulting labels are bit-identical to a single-index
// run — clustering is a function of point geometry and dataset order, not
// of cell numbering (the same argument, and the same tests, as the
// streaming layer; see tests/test_sharding.cpp and the sharded cases in
// tests/test_property_sweep.cpp). Approximate connectivity (OurApprox*) is
// decomposition-order-dependent and stays valid per Gan-Tao but is not
// guaranteed label-identical to an unsharded run.
//
// Scope: the grid cell method at any dimension with the kScan range-count
// method — the same restrictions as streaming, for the same reasons (the
// 2D box decomposition is a global function of the x-sorted order; frozen
// per-cell quadtrees would pin each shard's layout). The constructor
// rejects other configurations up front.
//
// A ShardedCellIndex is immutable after construction; share its index()
// freely. parallel::EnginePool can be constructed directly from one, and
// ShardedClusterer (sharded_clusterer.h) packages the pair.
#ifndef PDBSCAN_SHARDING_SHARDED_CELL_INDEX_H_
#define PDBSCAN_SHARDING_SHARDED_CELL_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dbscan/cell_index.h"
#include "dbscan/cell_structure.h"
#include "dbscan/grid.h"
#include "dbscan/mark_core.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "geometry/point.h"
#include "parallel/engine_pool.h"
#include "parallel/scheduler.h"
#include "telemetry/trace.h"
#include "persist/snapshot.h"
#include "sharding/shard_planner.h"

namespace pdbscan::sharding {

// Accounting of one sharded build: per-shard sizes plus the merge-stage
// footprint. The boundary/interior split is the sharded analogue of
// streaming's rebuilt/retained: merge work must track boundary_cells.
struct ShardBuildInfo {
  std::vector<size_t> shard_points;  // Points owned by each shard.
  std::vector<size_t> shard_cells;   // Non-empty cells in each shard.
  size_t interior_cells = 0;   // Counted inside their shard (phase 1).
  size_t boundary_cells = 0;   // Recounted in the merge stage (phase 3).
  size_t seam_links = 0;       // Cross-shard adjacency edges added.
  // Phase timings, read from the spans that feed the stats sink.
  double shard_build_seconds = 0;  // Phase 1: partition + per-shard builds.
  double shard_count_seconds = 0;  // Phase 1: interior MarkCore counts.
  double merge_seconds = 0;        // Phase 3: seam adjacency + recount.
  // Per-shard spill (when a spill directory was given): one snapshot file
  // per shard, written concurrently between phases 1 and 2.
  std::vector<std::string> spill_paths;
};

template <int D>
class ShardedCellIndex {
 public:
  // Plans `num_shards` grid-aligned slabs over `points` and builds the
  // merged index as described above. `counts_cap` bounds the min_pts range
  // answered from the shared counts, exactly as in CellIndex::Build.
  // Requires the grid cell method and kScan range counting; throws
  // std::invalid_argument otherwise (and for non-positive epsilon /
  // counts_cap / num_shards). `stats` is the sink for build counters and
  // timings (nullptr: the process-wide GlobalStats()). `points` is only
  // read during construction.
  ShardedCellIndex(std::span<const geometry::Point<D>> points, double epsilon,
                   size_t counts_cap, size_t num_shards,
                   Options options = Options(),
                   dbscan::PipelineStats* stats = nullptr)
      : ShardedCellIndex(points, epsilon, counts_cap, num_shards,
                         /*spill_dir=*/std::string(), std::move(options),
                         stats) {}

  ShardedCellIndex(const std::vector<geometry::Point<D>>& points,
                   double epsilon, size_t counts_cap, size_t num_shards,
                   Options options = Options(),
                   dbscan::PipelineStats* stats = nullptr)
      : ShardedCellIndex(std::span<const geometry::Point<D>>(points), epsilon,
                         counts_cap, num_shards, std::move(options), stats) {}

  // Build with per-shard spill: between the concurrent per-shard builds
  // and the merge, every shard's structure + interior counts are written
  // to `spill_dir`/shard-<s>.pdbsnap — concurrently, one snapshot file per
  // shard builder. Spill files are build checkpoints in the standard
  // snapshot format (loadable for inspection or a partial-restart
  // pipeline); note their boundary cells' counts are pre-merge (interior
  // counts are already globally exact, boundary cells recount at merge).
  // The merged frozen index itself saves ONCE via Save() below.
  ShardedCellIndex(std::span<const geometry::Point<D>> points, double epsilon,
                   size_t counts_cap, size_t num_shards,
                   const std::string& spill_dir, Options options = Options(),
                   dbscan::PipelineStats* stats = nullptr)
      : options_(std::move(options)), spill_dir_(spill_dir) {
    ValidateConfig(epsilon, counts_cap);
    dbscan::PipelineStats& sink =
        stats != nullptr ? *stats : dbscan::GlobalStats();
    plan_ = ShardPlanner::Plan<D>(points, epsilon, num_shards,
                                  options_.metric);
    BuildMerged(points, epsilon, counts_cap, stats, sink);
  }

  // Saves the merged frozen index as one ordinary snapshot —
  // persist::SnapshotReader (or pdbscan::LoadIndex) rehydrates it for
  // serving without redoing the sharded build.
  void Save(const std::string& path,
            dbscan::PipelineStats* stats = nullptr) const {
    persist::SnapshotWriter<D>::Write(path, *index_, stats);
  }

  ShardedCellIndex(const ShardedCellIndex&) = delete;
  ShardedCellIndex& operator=(const ShardedCellIndex&) = delete;

  // The merged frozen index — a perfectly ordinary CellIndex: hand it to an
  // EnginePool, QueryContexts, or any other consumer of shared indexes.
  const std::shared_ptr<const dbscan::CellIndex<D>>& index() const {
    return index_;
  }

  // The executed partition (axis, lattice cuts, halo width).
  const ShardPlan<D>& plan() const { return plan_; }

  // Shards actually planned (<= the requested count when the lattice has
  // fewer columns than shards were asked for).
  size_t num_shards() const { return plan_.num_shards(); }

  size_t num_points() const { return index_->num_points(); }
  size_t num_cells() const { return index_->num_cells(); }

  // Per-shard sizes and the merge-stage footprint of this build.
  const ShardBuildInfo& build_info() const { return info_; }

 private:
  void ValidateConfig(double epsilon, size_t counts_cap) const {
    ValidateEpsilon(epsilon);
    if (counts_cap == 0) {
      throw std::invalid_argument("counts_cap must be positive");
    }
    if (options_.cell_method != CellMethod::kGrid) {
      throw std::invalid_argument(
          "sharded builds support the grid cell method only (the box strip "
          "decomposition is a global function of all points)");
    }
    if (options_.range_count != RangeCountMethod::kScan) {
      throw std::invalid_argument(
          "sharded builds support the kScan range-count method only "
          "(per-cell quadtrees pin each shard's exact point layout)");
    }
    ValidateMetricOptions(options_);
  }

  void BuildMerged(std::span<const geometry::Point<D>> points, double epsilon,
                   size_t counts_cap, dbscan::PipelineStats* stats,
                   dbscan::PipelineStats& sink) {
    using dbscan::CellStructure;
    using geometry::CellCoords;
    using geometry::Point;
    const size_t num_shards = plan_.num_shards();
    const size_t n = points.size();

    // --- Phase 1a: partition points into shards (stable within a shard, so
    // the original order is recoverable through gids), then build per-shard
    // cell structures, one scheduler task each. The global bounds anchor
    // every shard on the single-index lattice. -----------------------------
    std::vector<std::vector<Point<D>>> shard_pts(num_shards);
    std::vector<std::vector<uint32_t>> shard_gids(num_shards);
    std::vector<CellStructure<D>> shards(num_shards);
    {
      telemetry::TraceSpan span("shard_build", sink.build_cells_seconds);
      std::vector<uint32_t> shard_of_point(n);
      parallel::parallel_for(0, n, [&](size_t i) {
        shard_of_point[i] =
            static_cast<uint32_t>(plan_.ShardOf(plan_.ColumnOf(points[i])));
      });
      std::vector<size_t> counts(num_shards, 0);
      for (size_t i = 0; i < n; ++i) ++counts[shard_of_point[i]];
      for (size_t s = 0; s < num_shards; ++s) {
        shard_pts[s].reserve(counts[s]);
        shard_gids[s].reserve(counts[s]);
      }
      for (size_t i = 0; i < n; ++i) {
        const uint32_t s = shard_of_point[i];
        shard_pts[s].push_back(points[i]);
        shard_gids[s].push_back(static_cast<uint32_t>(i));
      }
      parallel::parallel_for(
          0, num_shards,
          [&](size_t s) {
            shards[s] = dbscan::BuildGrid<D>(
                std::span<const Point<D>>(shard_pts[s]), epsilon,
                &plan_.bounds, options_.metric);
          },
          1);
      info_.shard_build_seconds = span.Close();
    }
    sink.shards_built.fetch_add(num_shards, std::memory_order_relaxed);
    sink.cells_built.fetch_add(1, std::memory_order_relaxed);

    // --- Phase 1b: interior-cell counts, exact without any seam data. -----
    std::vector<std::vector<uint32_t>> shard_counts(num_shards);
    {
      telemetry::TraceSpan span("shard_count", sink.mark_core_seconds);
      parallel::parallel_for(
          0, num_shards,
          [&](size_t s) {
            const CellStructure<D>& cells = shards[s];
            shard_counts[s].assign(cells.num_points(), 0);
            std::vector<uint32_t> interior;
            for (size_t c = 0; c < cells.num_cells(); ++c) {
              if (!plan_.IsBoundary(cells.coords[c][plan_.axis])) {
                interior.push_back(static_cast<uint32_t>(c));
              }
            }
            dbscan::MarkCoreCountsForCells<D>(
                cells, counts_cap, RangeCountMethod::kScan, nullptr,
                std::span<const uint32_t>(interior), shard_counts[s], &sink);
          },
          1);
      info_.shard_count_seconds = span.Close();
    }
    sink.counts_built.fetch_add(1, std::memory_order_relaxed);

    // --- Optional per-shard spill: each shard builder persists its own
    // structure + interior counts concurrently (one snapshot file per
    // shard, standard format). The merged index is NOT reassembled from
    // these — they are durable build checkpoints; Save() persists the
    // merged result once after the merge. ------------------------------
    if (!spill_dir_.empty()) {
      info_.spill_paths.resize(num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        info_.spill_paths[s] =
            spill_dir_ + "/shard-" + std::to_string(s) + ".pdbsnap";
      }
      parallel::parallel_for(
          0, num_shards,
          [&](size_t s) {
            persist::WriteSnapshotRaw<D>(
                info_.spill_paths[s], shards[s],
                std::span<const uint32_t>(shard_counts[s]), counts_cap,
                options_, {}, 0, 0, stats);
          },
          1);
    }

    // --- Phase 2: recompose the flat merged structure, then classify its
    // boundary cells. The classification is an O(m) coords scan: like the
    // copy it is recomposition bookkeeping, not merge work — only the two
    // seam-proportional steps of phase 3 count as the merge. ---------------
    std::vector<size_t> cell_base(num_shards + 1, 0);
    CellStructure<D> merged;
    std::vector<uint32_t> merged_counts;
    std::vector<uint32_t> shard_of_cell;
    std::vector<uint32_t> boundary;  // Merged ids, ascending.
    {
      telemetry::TraceSpan span("shard_recompose", sink.build_cells_seconds);
      std::vector<size_t> point_base(num_shards + 1, 0);
      info_.shard_points.resize(num_shards);
      info_.shard_cells.resize(num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        info_.shard_points[s] = shards[s].num_points();
        info_.shard_cells[s] = shards[s].num_cells();
        cell_base[s + 1] = cell_base[s] + shards[s].num_cells();
        point_base[s + 1] = point_base[s] + shards[s].num_points();
      }
      const size_t m = cell_base[num_shards];
      merged.epsilon = epsilon;
      merged.metric = options_.metric;
      merged.ResizeForCells(m, n);
      merged_counts.assign(n, 0);
      shard_of_cell.resize(m);
      parallel::parallel_for(
          0, num_shards,
          [&](size_t s) {
            const CellStructure<D>& cells = shards[s];
            const size_t cb = cell_base[s];
            const size_t pb = point_base[s];
            for (size_t c = 0; c < cells.num_cells(); ++c) {
              merged.offsets[cb + c + 1] = pb + cells.offsets[c + 1];
              merged.coords[cb + c] = cells.coords[c];
              merged.cell_boxes[cb + c] = cells.cell_boxes[c];
              shard_of_cell[cb + c] = static_cast<uint32_t>(s);
            }
            for (size_t i = 0; i < cells.num_points(); ++i) {
              merged.points[pb + i] = cells.points[i];
              merged.orig_index[pb + i] = shard_gids[s][cells.orig_index[i]];
              merged_counts[pb + i] = shard_counts[s][i];
            }
          },
          1);
      for (size_t g = 0; g < m; ++g) {
        if (plan_.IsBoundary(merged.coords[g][plan_.axis])) {
          boundary.push_back(static_cast<uint32_t>(g));
        }
      }
    }
    const size_t m = cell_base[num_shards];
    info_.boundary_cells = boundary.size();
    info_.interior_cells = m - boundary.size();

    // Stage attribution of phase 3 mirrors an unsharded build: adjacency
    // discovery and the CSR are cell construction, the recount is MarkCore.
    // The two seam-proportional steps also make the shard_merge_seconds
    // overlay (see stats.h), so they time into `seam`, a sink of their own,
    // and reach `sink` through MergeFrom with the overlay set to their sum.
    dbscan::PipelineStats seam;

    // --- Phase 3a: cross-seam adjacency discovery — seam-proportional.
    // Any eps-neighbor of a boundary cell that lives in another shard is
    // itself a boundary cell, so probing among boundary cells finds every
    // cross-shard pair. cross[i] holds the cross-shard eps-neighbors of
    // boundary[i] as merged ids, sorted so the final layout is independent
    // of discovery order. One code path with the full builder:
    // ForEachNeighborAmong is the same dispatch BuildGridAdjacency uses. --
    std::vector<std::vector<uint32_t>> cross(boundary.size());
    {
      telemetry::TraceSpan span("shard_merge", seam.build_cells_seconds);
      if (!boundary.empty() && num_shards > 1) {
        dbscan::ForEachNeighborAmong<D>(
            merged, std::span<const uint32_t>(boundary), plan_.origin,
            plan_.side, [&](size_t i, size_t j) {
              if (shard_of_cell[boundary[i]] != shard_of_cell[boundary[j]]) {
                cross[i].push_back(boundary[j]);
              }
            });
      }
      for (auto& list : cross) {
        std::sort(list.begin(), list.end());
        info_.seam_links += list.size();
      }
    }

    // --- Phase 2 (continued): the merged CSR — within-shard adjacency
    // re-based, cross-seam lists appended. Walks every cell and edge, so
    // it is recomposition work (an unsharded build does the equivalent
    // inside BuildGridAdjacency), deliberately NOT counted as merge. ------
    {
      telemetry::TraceSpan span("shard_recompose", sink.build_cells_seconds);
      merged.nbr_offsets.assign(m + 1, 0);
      size_t bi = 0;  // Walks `boundary` in step with g (both ascending).
      for (size_t g = 0; g < m; ++g) {
        const size_t s = shard_of_cell[g];
        const size_t c = g - cell_base[s];
        size_t deg = shards[s].nbr_offsets[c + 1] - shards[s].nbr_offsets[c];
        if (bi < boundary.size() && boundary[bi] == g) {
          deg += cross[bi++].size();
        }
        merged.nbr_offsets[g + 1] = merged.nbr_offsets[g] + deg;
      }
      merged.nbrs.resize(merged.nbr_offsets[m]);
      parallel::parallel_for(0, m, [&](size_t g) {
        const size_t s = shard_of_cell[g];
        const size_t c = g - cell_base[s];
        size_t w = merged.nbr_offsets[g];
        for (const uint32_t h : shards[s].neighbors(c)) {
          merged.nbrs[w++] = static_cast<uint32_t>(cell_base[s] + h);
        }
        const auto it =
            std::lower_bound(boundary.begin(), boundary.end(), g);
        if (it != boundary.end() && *it == g) {
          for (const uint32_t h : cross[static_cast<size_t>(
                   it - boundary.begin())]) {
            merged.nbrs[w++] = h;
          }
        }
      });
      // Lanes over the merged points: the seam recount below and every
      // query on the adopted index run through the SIMD distance kernels.
      merged.BuildSoALanes();
    }

    // --- Phase 3b: boundary recount against the completed adjacency —
    // seam-proportional, and the only MarkCore work that crosses a seam
    // (the exact analogue of streaming's dirty-cell recount). -------------
    {
      telemetry::TraceSpan span("shard_merge", seam.mark_core_seconds);
      dbscan::MarkCoreCountsForCells<D>(
          merged, counts_cap, RangeCountMethod::kScan, nullptr,
          std::span<const uint32_t>(boundary), merged_counts, &sink);
    }
    info_.merge_seconds =
        seam.build_cells_seconds.load() + seam.mark_core_seconds.load();
    seam.shard_merge_seconds.store(info_.merge_seconds);
    sink.MergeFrom(seam);
    sink.shard_interior_cells.fetch_add(info_.interior_cells,
                                        std::memory_order_relaxed);
    sink.shard_boundary_cells.fetch_add(info_.boundary_cells,
                                        std::memory_order_relaxed);
    sink.shard_seam_links.fetch_add(info_.seam_links,
                                    std::memory_order_relaxed);

    index_ = std::make_shared<const dbscan::CellIndex<D>>(
        std::move(merged), std::move(merged_counts), counts_cap, options_,
        stats);
  }

  Options options_;
  ShardPlan<D> plan_;
  ShardBuildInfo info_;
  std::shared_ptr<const dbscan::CellIndex<D>> index_;
  std::string spill_dir_;  // Empty: no per-shard spill.
};

}  // namespace pdbscan::sharding

// Out-of-line definition of the EnginePool convenience constructor declared
// in parallel/engine_pool.h: leasing against a sharded build serves its
// merged frozen index like any other CellIndex.
namespace pdbscan::parallel {

template <int D>
EnginePool<D>::EnginePool(const sharding::ShardedCellIndex<D>& sharded)
    : EnginePool(sharded.index()) {}

}  // namespace pdbscan::parallel

#endif  // PDBSCAN_SHARDING_SHARDED_CELL_INDEX_H_
