// DbscanEngine — the reusable one-thread DBSCAN surface for parameter sweeps.
//
// The engine is a cache over the two halves every surface shares: a frozen
// CellIndex (cells + quadtrees + saturated MarkCore counts, cell_index.h)
// for the last epsilon, and one QueryContext that answers min_pts queries
// against it. Parameter sweeps (the paper's Figures 6-10 evaluation
// pattern) therefore pay the build cost once:
//
//   * the index depends only on epsilon, so Run calls and Sweep lists at a
//     fixed epsilon reuse it outright (cells_reused ticks);
//   * the saturated counts answer every min_pts up to the cap the index was
//     built with — Run builds at cap = min_pts, Sweep at cap = max(list) —
//     and a larger min_pts at the same epsilon is recounted into the
//     context's workspace on every such call (the index is not rebuilt);
//   * epsilon changes reuse the epsilon-independent layout (dataset bounds
//     for the grid, the x-sorted order for 2D boxes; see CellLayout) plus
//     every workspace allocation of the context.
//
// Results are bit-identical to one-shot pdbscan::Dbscan calls with the same
// parameters: both build through the same CellIndex constructor and query
// through the same RunQueryFromCounts (query.h), every stage of which is a
// deterministic function of (points, epsilon, min_pts, options).
//
// Typical use:
//
//   pdbscan::dbscan::DbscanEngine<2> engine(options);
//   engine.SetPoints(pts);
//   auto sweep = engine.Sweep(/*epsilon=*/1.0, {5, 10, 50, 100});
//   auto one = engine.Run(/*epsilon=*/2.0, /*min_pts=*/10);  // New index.
//
// Ownership and threading: one engine is one mutation site — its cached
// index and its context are replaced or rewritten by every call, so a
// single engine must not be shared between threads without external
// serialization. For concurrent query serving, share one CellIndex and give
// each thread a QueryContext, or use parallel::EnginePool which manages
// both.
//
// Per-stage timings and build/reuse counters accumulate in the engine's
// stats sink — the process-wide GlobalStats() unless a per-engine
// PipelineStats was passed to the constructor (see stats.h).
#ifndef PDBSCAN_DBSCAN_ENGINE_H_
#define PDBSCAN_DBSCAN_ENGINE_H_

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dbscan/cell_index.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "geometry/point.h"
#include "parallel/scheduler.h"

namespace pdbscan::dbscan {

template <int D>
class DbscanEngine {
 public:
  // `stats` selects the sink for counters and timings; nullptr means the
  // process-wide GlobalStats().
  explicit DbscanEngine(Options options = Options(),
                        PipelineStats* stats = nullptr)
      : options_(std::move(options)),
        stats_(stats != nullptr ? stats : &GlobalStats()),
        ctx_(stats_) {}

  DbscanEngine(const DbscanEngine&) = delete;
  DbscanEngine& operator=(const DbscanEngine&) = delete;

  // Copies `points` into the engine and drops every cache.
  void SetPoints(std::span<const geometry::Point<D>> points) {
    owned_points_.resize(points.size());
    parallel::parallel_for(0, points.size(),
                           [&](size_t i) { owned_points_[i] = points[i]; });
    AdoptPoints(owned_points_);
  }

  void SetPoints(const std::vector<geometry::Point<D>>& points) {
    SetPoints(std::span<const geometry::Point<D>>(points));
  }

  // Fills the engine's copy from row-major runtime-dimension data (`stride`
  // doubles per point, the first D used) without an intermediate vector.
  void SetPointsStrided(const double* data, size_t n, size_t stride) {
    owned_points_.resize(n);
    parallel::parallel_for(0, n, [&](size_t i) {
      for (int k = 0; k < D; ++k) {
        owned_points_[i][k] = data[i * stride + static_cast<size_t>(k)];
      }
    });
    AdoptPoints(owned_points_);
  }

  // References caller-owned points without copying; they must stay alive
  // and unchanged until the next SetPoints*/destruction.
  void SetPointsView(std::span<const geometry::Point<D>> points) {
    owned_points_.clear();
    AdoptPoints(points);
  }

  // Clusters the current point set, reusing the cached index when epsilon
  // is unchanged (see the header comment for the counts-cap rules).
  Clustering Run(double epsilon, size_t min_pts) {
    if (min_pts == 0) throw std::invalid_argument("min_pts must be positive");
    return ctx_.Run(IndexFor(epsilon, min_pts), min_pts);
  }

  // Batched min_pts sweep at a fixed epsilon: builds at most one index (at
  // cap = max of the list) and counts at most once, then answers every
  // setting from those counts. Results match independent one-shot runs bit
  // for bit.
  std::vector<Clustering> Sweep(double epsilon,
                                std::span<const size_t> minpts_list) {
    if (minpts_list.empty()) return {};
    if (std::find(minpts_list.begin(), minpts_list.end(), size_t{0}) !=
        minpts_list.end()) {
      throw std::invalid_argument("min_pts must be positive");
    }
    const size_t cap = *std::max_element(minpts_list.begin(), minpts_list.end());
    return ctx_.Sweep(IndexFor(epsilon, cap), minpts_list);
  }

  std::vector<Clustering> Sweep(double epsilon,
                                std::initializer_list<size_t> minpts_list) {
    return Sweep(epsilon,
                 std::span<const size_t>(minpts_list.begin(), minpts_list.size()));
  }

  std::vector<Clustering> Sweep(double epsilon,
                                const std::vector<size_t>& minpts_list) {
    return Sweep(epsilon, std::span<const size_t>(minpts_list));
  }

  const Options& options() const { return options_; }
  size_t num_points() const { return points_.size(); }

  // True iff the next Run(epsilon, *) would reuse the cached index.
  bool has_cells_for(double epsilon) const {
    return index_ != nullptr && index_->epsilon() == epsilon;
  }

 private:
  void AdoptPoints(std::span<const geometry::Point<D>> points) {
    points_ = points;
    layout_ = CellLayout<D>();
    index_.reset();
  }

  // The cached index when it was built for `epsilon`, else a fresh one at
  // counts cap `cap` over the cached layout. The old index is released
  // first, so a rebuild never holds two indexes at once.
  const CellIndex<D>& IndexFor(double epsilon, size_t cap) {
    ValidateEpsilon(epsilon);
    if (has_cells_for(epsilon)) {
      stats_->cells_reused.fetch_add(1, std::memory_order_relaxed);
      return *index_;
    }
    index_.reset();
    index_ = std::make_unique<const CellIndex<D>>(points_, epsilon, cap,
                                                  options_, stats_, &layout_);
    return *index_;
  }

  Options options_;
  PipelineStats* stats_;
  // Owned copy of the input (SetPoints / SetPointsStrided); empty in view
  // mode. points_ spans either it or the caller's points.
  std::vector<geometry::Point<D>> owned_points_;
  std::span<const geometry::Point<D>> points_;
  CellLayout<D> layout_;
  std::unique_ptr<const CellIndex<D>> index_;
  QueryContext<D> ctx_;
};

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_ENGINE_H_
