// CellIndex — the frozen, shareable half of the DBSCAN pipeline, plus the
// per-thread QueryContext that answers queries against it.
//
// The paper's pipeline is build-once/query-many: the cell structure, the
// kQuadtree range-count trees, and the saturated MarkCore neighbor counts
// depend only on (points, epsilon, options, counts cap), while everything
// downstream (core flags at a min_pts, cell-graph connectivity, border
// assignment, relabeling) is cheap per-query state. CellIndex freezes the
// first half so any number of threads can query it:
//
//   auto index = pdbscan::dbscan::CellIndex<2>::Build(pts, /*epsilon=*/1.0,
//                                                     /*counts_cap=*/100);
//   // ... on each serving thread:
//   pdbscan::dbscan::QueryContext<2> ctx;     // owns a private Workspace
//   pdbscan::Clustering a = ctx.Run(*index, /*min_pts=*/10);
//
// After Build returns, a CellIndex is strictly immutable — every accessor
// is const and no call mutates it — so sharing needs no synchronization.
// Queries with min_pts <= counts_cap() are answered entirely from the
// shared counts; larger min_pts values stay correct by recounting into the
// context's private workspace (counts_built ticks in the context's stats).
// Either way the clustering is bit-identical to a one-shot pdbscan::Dbscan
// call: every query surface executes RunQueryFromCounts (query.h), and
// saturated counts threshold identically for every min_pts <= their cap.
//
// Every clustering surface sits on this pair: one-shot RunDbscan
// (pipeline.h) builds an index at cap = min_pts and runs one context;
// DbscanEngine (engine.h) caches an index per epsilon plus one context;
// parallel::EnginePool (parallel/engine_pool.h) packages a shared index
// with a reusable set of contexts behind a thread-safe Run/Sweep facade.
//
// There are three ways a CellIndex comes to exist: built from scratch over
// a point span (the from-points constructor, the only caller of BuildCells),
// adopted from the streaming layer (streaming/dynamic_cell_index.h), which
// recomposes the structure incrementally after insert/erase batches and
// publishes each result as a fresh immutable CellIndex snapshot, or
// rehydrated from a persisted snapshot file (persist/snapshot.h), which goes
// through the same adoption constructor — with the arrays either copied out
// of the file (owned load) or left viewing the file mapping (zero-copy mmap
// load; the `payload` parameter pins the mapping for the index's lifetime).
// Queries cannot tell the difference — all paths freeze the same artifact
// types.
#ifndef PDBSCAN_DBSCAN_CELL_INDEX_H_
#define PDBSCAN_DBSCAN_CELL_INDEX_H_

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dbscan/box_cells.h"
#include "dbscan/cell_structure.h"
#include "dbscan/grid.h"
#include "dbscan/mark_core.h"
#include "dbscan/query.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "dbscan/workspace.h"
#include "geometry/point.h"
#include "geometry/quadtree.h"
#include "telemetry/trace.h"
#include "util/timer.h"

namespace pdbscan::dbscan {

// The epsilon-independent part of cell construction for one point set: the
// dataset bounds the grid anchors its cells at, and the (x, y, id)-sorted
// order the 2D box strips scan. BuildCells fills in whatever its method
// needs and reuses it on later calls, so an epsilon sweep over the same
// points (DbscanEngine) computes it once.
template <int D>
struct CellLayout {
  std::optional<geometry::BBox<D>> bounds;
  std::optional<std::vector<uint32_t>> x_order;
};

// Builds the cell structure of `points` at `epsilon`: grid cells for any D
// (under `metric`), or 2D box cells (Euclidean). `layout`, when non-null,
// must describe these same points; it is read where filled and filled where
// empty.
template <int D>
CellStructure<D> BuildCells(std::span<const geometry::Point<D>> points,
                            double epsilon, CellMethod method, Metric metric,
                            CellLayout<D>* layout = nullptr) {
  CellLayout<D> local;
  CellLayout<D>& cached = layout != nullptr ? *layout : local;
  if (method == CellMethod::kBox) {
    if constexpr (D == 2) {
      if (!cached.x_order) cached.x_order = BoxSortByX(points);
      return BuildBoxCells(points, epsilon, *cached.x_order);
    } else {
      throw std::invalid_argument("the box cell method is 2D only");
    }
  }
  if (!cached.bounds) cached.bounds = ComputeBounds<D>(points);
  return BuildGrid<D>(points, epsilon, &*cached.bounds, metric);
}

template <int D>
class CellIndex {
 public:
  using Quadtrees = std::vector<std::unique_ptr<geometry::CellQuadtree<D>>>;

  // Builds the frozen index: cell structure, per-cell quadtrees when
  // options use the kQuadtree range-count path, and MarkCore neighbor
  // counts saturated at `counts_cap`. Build counters/timings go to `stats`
  // (nullptr: the process-wide GlobalStats()). `points` is only read
  // during construction and need not outlive it — the index keeps its own
  // reordered copy inside the CellStructure. `layout` optionally caches the
  // epsilon-independent layout of `points` across builds (see CellLayout).
  CellIndex(std::span<const geometry::Point<D>> points, double epsilon,
            size_t counts_cap, Options options = Options(),
            PipelineStats* stats = nullptr, CellLayout<D>* layout = nullptr)
      : epsilon_(epsilon),
        counts_cap_(counts_cap),
        options_(std::move(options)) {
    ValidateEpsilon(epsilon);
    if (counts_cap == 0) {
      throw std::invalid_argument("counts_cap must be positive");
    }
    ValidateMetricOptions(options_);
    PipelineStats& sink = stats != nullptr ? *stats : GlobalStats();
    util::Timer timer;
    {
      telemetry::TraceSpan span("build_cells");
      cells_ = BuildCells<D>(points, epsilon, options_.cell_method,
                             options_.metric, layout);
    }
    sink.cells_built.fetch_add(1, std::memory_order_relaxed);
    AddSeconds(sink.build_cells_seconds, timer.Seconds());
    timer.Reset();
    {
      telemetry::TraceSpan span("mark_core_counts");
      BuildQuadtrees();
      std::vector<uint32_t> counts;
      MarkCoreCounts(cells_, counts_cap_, options_.range_count, &quadtrees_,
                     counts, &sink);
      neighbor_counts_ = std::move(counts);
    }
    sink.counts_built.fetch_add(1, std::memory_order_relaxed);
    AddSeconds(sink.mark_core_seconds, timer.Seconds());
  }

  // Freezes an externally built structure plus matching saturated MarkCore
  // counts. Two producers use this:
  //
  //   * streaming::DynamicCellIndex, which recomposes `cells` incrementally
  //     (dirty cells re-grouped, clean cells retained) and recounts only
  //     the dirty eps-neighborhood, copying every other cell's counts from
  //     the previous snapshot — and the sharded merge, which concatenates
  //     per-shard builds. Both pass owning arrays and kScan options.
  //   * persist::SnapshotReader, which rehydrates a saved index — either
  //     copying the arrays out of the file (owned load) or pointing them at
  //     the file mapping (zero-copy mmap load). `payload` then pins the
  //     mapping for the index's lifetime; every other caller leaves it
  //     null.
  //
  // `neighbor_counts` must be MarkCore counts over `cells` saturated at
  // `counts_cap`. For the kQuadtree range-count method the per-cell
  // quadtrees are rebuilt eagerly here (deterministic from the adopted
  // layout, so a rehydrated index answers over-cap queries identically to
  // the index that was saved) — an O(n) cost, which is why the incremental
  // streaming producer restricts itself to kScan in its own constructor.
  // No build counters tick here: the producer accounts for what it rebuilt
  // vs. retained in its own sink, so `stats` is accepted but unused.
  CellIndex(CellStructure<D> cells,
            containers::FlatArray<uint32_t> neighbor_counts, size_t counts_cap,
            Options options = Options(), PipelineStats* /*stats*/ = nullptr,
            std::shared_ptr<const void> payload = nullptr)
      : epsilon_(cells.epsilon),
        counts_cap_(counts_cap),
        options_(std::move(options)),
        payload_(std::move(payload)) {
    ValidateEpsilon(epsilon_);
    if (counts_cap == 0) {
      throw std::invalid_argument("counts_cap must be positive");
    }
    ValidateMetricOptions(options_);
    if (cells.metric != options_.metric) {
      throw std::invalid_argument(
          "adopted cells were built for a different metric than options");
    }
    if (neighbor_counts.size() != cells.num_points()) {
      throw std::invalid_argument(
          "neighbor_counts must cover every reordered point");
    }
    // Safety net for producers predating the SoA lanes: an adopted
    // structure without lanes gets owned ones built here, so queries always
    // run vectorized. (Mapped snapshots arrive with strided lane views and
    // pass through untouched.)
    if (!cells.has_soa() && cells.num_points() > 0) cells.BuildSoALanes();
    cells_ = std::move(cells);
    neighbor_counts_ = std::move(neighbor_counts);
    BuildQuadtrees();
  }

  // Convenience factory for the common shared-ownership pattern.
  static std::shared_ptr<const CellIndex<D>> Build(
      std::span<const geometry::Point<D>> points, double epsilon,
      size_t counts_cap, Options options = Options(),
      PipelineStats* stats = nullptr) {
    return std::make_shared<const CellIndex<D>>(points, epsilon, counts_cap,
                                                std::move(options), stats);
  }

  static std::shared_ptr<const CellIndex<D>> Build(
      const std::vector<geometry::Point<D>>& points, double epsilon,
      size_t counts_cap, Options options = Options(),
      PipelineStats* stats = nullptr) {
    return Build(std::span<const geometry::Point<D>>(points), epsilon,
                 counts_cap, std::move(options), stats);
  }

  CellIndex(const CellIndex&) = delete;
  CellIndex& operator=(const CellIndex&) = delete;

  double epsilon() const { return epsilon_; }
  size_t counts_cap() const { return counts_cap_; }
  const Options& options() const { return options_; }
  size_t num_points() const { return cells_.num_points(); }
  size_t num_cells() const { return cells_.num_cells(); }

  const CellStructure<D>& cells() const { return cells_; }

  // Saturated epsilon-neighbor counts per reordered point (cap =
  // counts_cap()); answers every min_pts <= the cap. May view mapped
  // snapshot memory — read through the reference, never assume vector
  // storage.
  const containers::FlatArray<uint32_t>& neighbor_counts() const {
    return neighbor_counts_;
  }

  // Per-cell quadtrees; non-empty only when options().range_count ==
  // kQuadtree. Tree queries (CountInBall etc.) are const and thread-safe.
  const Quadtrees& quadtrees() const { return quadtrees_; }

 private:
  // Both constructors, once cells_ is final (the trees index into
  // cells_.points).
  void BuildQuadtrees() {
    if (options_.range_count != RangeCountMethod::kQuadtree) return;
    telemetry::TraceSpan span("build_quadtrees");
    quadtrees_ = BuildCellQuadtrees(cells_);
  }

  double epsilon_;
  size_t counts_cap_;
  Options options_;
  CellStructure<D> cells_;
  Quadtrees quadtrees_;
  containers::FlatArray<uint32_t> neighbor_counts_;
  // Pins backing storage (the snapshot file mapping) when the structure or
  // counts are views; null for owned indexes.
  std::shared_ptr<const void> payload_;
};

// Per-thread query state against shared CellIndexes: a private Workspace
// (scratch allocations reused across queries) and a stats sink. Contexts
// are cheap — construct one per serving thread, or let parallel::EnginePool
// manage a reusable set. A context may be pointed at different indexes from
// query to query; it must simply not be used by two threads at once.
template <int D>
class QueryContext {
 public:
  // `stats` is the sink for this context's counters; nullptr means the
  // process-wide GlobalStats() (fine single-threaded, but concurrent
  // serving should give each context its own sink so Reset()/read-out on
  // one client never tears another's counters).
  explicit QueryContext(PipelineStats* stats = nullptr)
      : stats_(stats != nullptr ? stats : &GlobalStats()) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // Clusters the index's point set at `min_pts`. Bit-identical to a
  // one-shot pdbscan::Dbscan call with (index points, index epsilon,
  // min_pts, index options). The shared_ptr overload additionally caches
  // an over-cap recount across calls (see EnsureCounts).
  Clustering Run(const CellIndex<D>& index, size_t min_pts) {
    return RunImpl(index, min_pts, nullptr);
  }

  Clustering Run(const std::shared_ptr<const CellIndex<D>>& index,
                 size_t min_pts) {
    if (!index) throw std::invalid_argument("QueryContext needs an index");
    return RunImpl(*index, min_pts, &index);
  }

  // Answers every setting of a min_pts sweep. Settings within the index's
  // cap share the index counts; if any setting exceeds the cap, one private
  // recount at cap = max(list) serves the whole sweep.
  std::vector<Clustering> Sweep(const CellIndex<D>& index,
                                std::span<const size_t> minpts_list) {
    return SweepImpl(index, minpts_list, nullptr);
  }

  std::vector<Clustering> Sweep(const std::shared_ptr<const CellIndex<D>>& index,
                                std::span<const size_t> minpts_list) {
    if (!index) throw std::invalid_argument("QueryContext needs an index");
    return SweepImpl(*index, minpts_list, &index);
  }

  std::vector<Clustering> Sweep(const CellIndex<D>& index,
                                std::initializer_list<size_t> minpts_list) {
    return Sweep(index, std::span<const size_t>(minpts_list.begin(),
                                                minpts_list.size()));
  }

  PipelineStats& stats() { return *stats_; }

  // Drops the over-cap recount cache unless it belongs to `index`. Owners
  // that swap indexes under contexts call this for every free context on
  // the swap itself (EnginePool::ReplaceIndex) and for the leased context
  // on each lease, so retired snapshots are pinned only by in-flight
  // queries, never indefinitely by idle caches; harmless no-op when the
  // cache is empty or current.
  void EvictStaleCountsCache(
      const std::shared_ptr<const CellIndex<D>>& index) {
    if (cached_index_ != nullptr && cached_index_ != index) {
      cached_index_.reset();
      cached_cap_ = 0;
    }
  }

 private:
  Clustering RunImpl(const CellIndex<D>& index, size_t min_pts,
                     const std::shared_ptr<const CellIndex<D>>* owner) {
    if (min_pts == 0) throw std::invalid_argument("min_pts must be positive");
    const std::span<const uint32_t> counts =
        EnsureCounts(index, min_pts, owner);
    return RunQueryFromCounts(index.cells(), counts, min_pts, index.options(),
                              ws_, *stats_);
  }

  std::vector<Clustering> SweepImpl(
      const CellIndex<D>& index, std::span<const size_t> minpts_list,
      const std::shared_ptr<const CellIndex<D>>* owner) {
    return SweepFromCounts<D>(
        minpts_list, index.options(), ws_, *stats_,
        [&](size_t cap)
            -> std::pair<const CellStructure<D>&, std::span<const uint32_t>> {
          return {index.cells(), EnsureCounts(index, cap, owner)};
        });
  }

  // Counts valid for caps up to `cap`: the index's shared counts when they
  // suffice, else the context's cached private recount, else a fresh
  // MarkCore pass (counts_built ticks; the other two tick counts_reused).
  // The private cache is keyed on index identity, which is only sound
  // because cached_index_ *pins* the cached index alive — its address can
  // neither dangle nor be recycled while the cache entry exists. Callers
  // going through the plain-reference overloads can therefore still *hit*
  // the cache, but only shared_ptr callers (`owner` != nullptr, e.g.
  // EnginePool) can populate it, so steady over-cap traffic through a pool
  // recounts once per context rather than once per query.
  std::span<const uint32_t> EnsureCounts(
      const CellIndex<D>& index, size_t cap,
      const std::shared_ptr<const CellIndex<D>>* owner) {
    if (cap <= index.counts_cap()) {
      stats_->counts_reused.fetch_add(1, std::memory_order_relaxed);
      return index.neighbor_counts();
    }
    if (cached_index_.get() == &index && cached_cap_ >= cap) {
      stats_->counts_reused.fetch_add(1, std::memory_order_relaxed);
      return ws_.neighbor_counts;
    }
    util::Timer timer;
    MarkCoreCounts(index.cells(), cap, index.options().range_count,
                   &index.quadtrees(), ws_.neighbor_counts, stats_);
    if (owner != nullptr) {
      cached_index_ = *owner;
      cached_cap_ = cap;
    } else {
      // The workspace counts no longer match the cached index's.
      cached_index_.reset();
      cached_cap_ = 0;
    }
    stats_->counts_built.fetch_add(1, std::memory_order_relaxed);
    AddSeconds(stats_->mark_core_seconds, timer.Seconds());
    return ws_.neighbor_counts;
  }

  Workspace<D> ws_;
  PipelineStats* stats_;

  // Over-cap recount cache: the index (kept alive) whose counts currently
  // occupy ws_.neighbor_counts, and the cap they were computed with.
  std::shared_ptr<const CellIndex<D>> cached_index_;
  size_t cached_cap_ = 0;
};

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_CELL_INDEX_H_
