// ShardPlanner — grid-aligned spatial partitioning of a dataset into shards.
//
// The paper's cell decomposition makes DBSCAN spatially decomposable:
// everything a query computes from a cell (saturated MarkCore counts, cell
// adjacency, connectivity, border reach) depends only on the cell's own
// points and the points of cells within epsilon of it. A partition of the
// *cells* therefore induces a partition of the work, and only cells near a
// partition seam ever need cross-partition information. This file plans
// such a partition; sharded_cell_index.h executes it.
//
// The plan slices the domain into contiguous slabs along one axis, with
// slab boundaries snapped to the eps/sqrt(d) lattice that BuildGrid uses
// (same origin — the dataset bounding-box corner — and the same cell side),
// so that every grid cell lies entirely inside exactly one shard and the
// per-shard cell decompositions are verbatim subsets of the single-index
// decomposition. The split axis is the one with the largest bounding-box
// extent (most lattice columns, hence thinnest seams relative to shard
// volume); slabs get equal numbers of lattice columns. A requested shard
// count larger than the number of columns is clamped — the planner never
// produces an empty slab *range*, though a slab may well contain no points
// (an "empty shard", which the sharded build handles as a zero-cell
// structure).
//
// The seam halo is `halo` lattice columns wide: two cells can contain
// points within epsilon of each other only when their integer coordinates
// differ by at most 1 + floor(sqrt(d)) along every axis (grid.h's
// OffsetWithinEpsilon criterion), so a cell whose axis coordinate is at
// least `halo` columns away from every interior cut has its entire
// eps-neighborhood inside its own shard. Those are the *interior* cells;
// the rest are *boundary* cells, and they are the only cells the merge
// stage of ShardedCellIndex ever touches.
#ifndef PDBSCAN_SHARDING_SHARD_PLANNER_H_
#define PDBSCAN_SHARDING_SHARD_PLANNER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "dbscan/grid.h"
#include "dbscan/types.h"
#include "geometry/point.h"

namespace pdbscan::sharding {

// The executable output of ShardPlanner::Plan: which lattice columns along
// `axis` each shard owns, plus the grid anchoring shared with BuildGrid.
template <int D>
struct ShardPlan {
  // Split axis (the largest bounding-box extent) and the lattice geometry:
  // `origin` is the dataset bounding-box corner and `side` the cell side
  // epsilon / sqrt(D) — identical to what a single-index BuildGrid over the
  // same points uses, so shard-local cell coordinates match global ones.
  int axis = 0;
  double side = 0;
  geometry::Point<D> origin{};
  geometry::BBox<D> bounds = geometry::BBox<D>::Empty();

  // Slab boundaries in lattice coordinates along `axis`: shard s owns every
  // cell whose coords[axis] lies in [cuts[s], cuts[s+1]). Monotone, with
  // cuts.front() == 0 and cuts.back() == the total column count.
  std::vector<int64_t> cuts;

  // Seam half-width in lattice columns: cells within `halo` columns of an
  // interior cut can have eps-neighbors across it (the maximum per-axis
  // coordinate delta of eps-reachable cells under the planned metric —
  // dbscan::MetricHalo: 1 + floor(sqrt(D)) for L2, D + 1 for L1, 2 for
  // Linf).
  int64_t halo = 0;

  size_t num_shards() const { return cuts.empty() ? 0 : cuts.size() - 1; }

  // The shard owning lattice column `axis_coord` (clamped to the planned
  // range, so out-of-bounds coordinates — which cannot arise for points
  // inside `bounds` — fall into the first/last shard).
  size_t ShardOf(int64_t axis_coord) const {
    const auto it = std::upper_bound(cuts.begin() + 1, cuts.end() - 1,
                                     axis_coord);
    return static_cast<size_t>(it - cuts.begin()) - 1;
  }

  // True iff a cell in lattice column `axis_coord` is a *boundary* cell:
  // within `halo` columns of an interior cut, i.e. its eps-neighborhood may
  // cross a shard seam. The merge stage of the sharded build recounts
  // exactly these cells; everything else keeps its shard-local counts.
  bool IsBoundary(int64_t axis_coord) const {
    // Interior cuts are cuts[1] .. cuts[num_shards()-1]; cuts.front() and
    // cuts.back() are domain edges with nothing beyond them.
    for (size_t s = 1; s + 1 < cuts.size(); ++s) {
      const int64_t cut = cuts[s];
      if (axis_coord >= cut - halo && axis_coord < cut + halo) return true;
    }
    return false;
  }

  // Lattice column of a point along the split axis (the same floor
  // arithmetic as geometry::CellOf, restricted to `axis`).
  int64_t ColumnOf(const geometry::Point<D>& p) const {
    return static_cast<int64_t>(std::floor((p[axis] - origin[axis]) / side));
  }
};

// Plans grid-aligned slabs for `points` at the given epsilon. Pure
// function of (points, epsilon, requested_shards): deterministic across
// thread counts and repeat calls.
class ShardPlanner {
 public:
  template <int D>
  static ShardPlan<D> Plan(std::span<const geometry::Point<D>> points,
                           double epsilon, size_t requested_shards,
                           Metric metric = Metric::kL2) {
    ValidateEpsilon(epsilon);
    if (requested_shards == 0) {
      throw std::invalid_argument("shard count must be positive");
    }
    ShardPlan<D> plan;
    plan.side = dbscan::GridSide<D>(epsilon, metric);
    plan.halo = static_cast<int64_t>(dbscan::MetricHalo<D>(metric));
    if (points.empty()) {
      // Degenerate plan: one shard owning a single (pointless) column.
      for (int i = 0; i < D; ++i) plan.origin[i] = 0;
      plan.cuts = {0, 1};
      return plan;
    }
    plan.bounds = dbscan::ComputeBounds<D>(points);
    plan.origin = plan.bounds.min;

    // Split along the axis with the most lattice columns; ties go to the
    // lowest axis index (deterministic).
    int64_t best_columns = 0;
    for (int a = 0; a < D; ++a) {
      const int64_t columns =
          1 + static_cast<int64_t>(std::floor(
                  (plan.bounds.max[a] - plan.origin[a]) / plan.side));
      if (columns > best_columns) {
        best_columns = columns;
        plan.axis = a;
      }
    }

    // Equal column counts per shard; clamp so every slab has >= 1 column.
    const size_t shards = std::max<size_t>(
        1, std::min<size_t>(requested_shards,
                            static_cast<size_t>(best_columns)));
    plan.cuts.resize(shards + 1);
    for (size_t s = 0; s <= shards; ++s) {
      plan.cuts[s] = static_cast<int64_t>(
          (static_cast<size_t>(best_columns) * s) / shards);
    }
    return plan;
  }
};

}  // namespace pdbscan::sharding

#endif  // PDBSCAN_SHARDING_SHARD_PLANNER_H_
