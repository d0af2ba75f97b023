// DynamicCellIndex — incremental maintenance of the paper's grid structure
// under streaming point insertions and erasures, publishing each state as
// an immutable CellIndex snapshot.
//
// The eps-grid gives updates exactly the locality that makes incremental
// maintenance tractable (the same observation Berkholz et al. exploit for
// FO+MOD queries under updates: a change can only reach a bounded
// neighborhood). A batch of Insert/Erase operations touches a set of
// *dirty* cells; everything a query computes from a cell depends only on
// the cell's own points and the points of cells whose boxes lie within
// epsilon — its grid neighbors. So one update batch:
//
//   1. re-groups points for the dirty cells only (live points are kept
//      bucketed per cell, so this is O(batch));
//   2. recomposes the flat CellStructure (contiguous per-cell ranges) —
//      a copy pass whose cost is a memcpy, not a semisort, and re-derives
//      the CSR adjacency through the same BuildGridAdjacency code path the
//      from-scratch builder uses;
//   3. recounts saturated MarkCore counts ONLY for cells that are dirty or
//      adjacent to a dirty cell (including cells that were adjacent to a
//      cell the batch emptied); every other cell's counts are copied
//      verbatim from the previous snapshot — their eps-neighborhood is
//      untouched, so the counts are exact (the dirty-cell invariant);
//   4. freezes the result into a brand-new immutable CellIndex and
//      publishes it via shared_ptr swap. Readers (QueryContext /
//      EnginePool) keep serving the old snapshot until they next lease —
//      they never block on the writer, and in-flight queries pin the
//      snapshot they started with.
//
// cells_rebuilt / cells_retained in the stats sink (and per-batch in
// last_update()) make the invariant measurable: rebuilt is proportional to
// the batch's dirty-cell footprint, not the total cell count.
//
// Scope: the grid cell method at any dimension, with the kScan range-count
// method. The 2D box method is inherently global (its strip decomposition
// depends on the x-sorted order of ALL points), and per-cell quadtrees pin
// the exact reordered layout they were built over, so both would force the
// O(n) rebuild this class exists to avoid; the constructor rejects them.
// The grid here is anchored at the world origin rather than the dataset
// bounding box (a streaming dataset has no fixed bounding box), which
// yields a different — equally valid — cell decomposition than a
// from-scratch build. For EXACT configurations this is invisible in the
// output: the clustering is a function of point geometry and dataset order
// alone (core flags, eps-connectivity and border memberships are computed
// on real distances; first-appearance relabeling follows dataset order),
// so snapshot labels are bit-identical to one-shot runs on the live points
// — the contract tests/test_concurrent.cpp and the streaming bench gate
// on. Approximate connectivity (OurApprox) IS decomposition-dependent: its
// snapshots remain valid per Gan-Tao but may differ from a from-scratch
// run's labels. Determinism always holds: the same update sequence
// publishes bit-identical snapshots regardless of thread count.
//
// Threading contract: ONE writer. ApplyUpdates must be externally
// serialized; snapshot() may be called from any thread at any time. The
// StreamingClusterer facade (streaming_clusterer.h) pairs this class with
// an EnginePool for a ready-made serve-while-updating setup.
#ifndef PDBSCAN_STREAMING_DYNAMIC_CELL_INDEX_H_
#define PDBSCAN_STREAMING_DYNAMIC_CELL_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "containers/flat_array.h"
#include "dbscan/cell_index.h"
#include "dbscan/cell_structure.h"
#include "dbscan/grid.h"
#include "dbscan/mark_core.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "geometry/point.h"
#include "parallel/scheduler.h"
#include "persist/journal.h"
#include "telemetry/trace.h"
#include "util/timer.h"

namespace pdbscan::streaming {

// Per-batch accounting of one ApplyUpdates call.
struct UpdateStats {
  size_t points_inserted = 0;
  size_t points_erased = 0;
  size_t num_points = 0;  // Live points after the batch.
  size_t num_cells = 0;   // Non-empty cells after the batch.
  // The dirty-cell invariant, measured: counts recomputed vs. copied.
  size_t cells_rebuilt = 0;
  size_t cells_retained = 0;
  size_t cells_created = 0;
  size_t cells_vanished = 0;
  double recompose_seconds = 0;  // Bucket + flat-structure + adjacency work.
  double recount_seconds = 0;    // MarkCore over the rebuilt cells.
};

template <int D>
class DynamicCellIndex {
 public:
  // An empty index; the first ApplyUpdates publishes the first non-trivial
  // snapshot. `counts_cap` bounds the min_pts range answered from shared
  // counts, exactly as in CellIndex::Build. `stats` is the sink for
  // cumulative streaming counters (nullptr: the process-wide GlobalStats()).
  DynamicCellIndex(double epsilon, size_t counts_cap,
                   Options options = Options(), dbscan::PipelineStats* stats = nullptr)
      : epsilon_(epsilon),
        side_(dbscan::GridSide<D>(epsilon, options.metric)),
        counts_cap_(counts_cap),
        options_(std::move(options)),
        stats_(stats != nullptr ? stats : &dbscan::GlobalStats()) {
    ValidateEpsilon(epsilon);
    if (counts_cap == 0) {
      throw std::invalid_argument("counts_cap must be positive");
    }
    if (options_.cell_method != CellMethod::kGrid) {
      throw std::invalid_argument(
          "streaming updates support the grid cell method only (the box "
          "strip decomposition is a global function of all points)");
    }
    if (options_.range_count != RangeCountMethod::kScan) {
      throw std::invalid_argument(
          "streaming updates support the kScan range-count method only "
          "(per-cell quadtrees pin a snapshot's exact point layout)");
    }
    ValidateMetricOptions(options_);
    for (int i = 0; i < D; ++i) origin_[i] = 0.0;
    Publish(Recompose(/*dirty=*/{}, /*vanished=*/{}));
  }

  // Restores the writer from a persisted streaming checkpoint: the loaded
  // snapshot plus the stable live ids (dataset order) and next id it was
  // saved with (persist::SnapshotReader returns all three). The snapshot
  // is published as-is — queries against the restored index are trivially
  // bit-identical to the saved one — and the writer-side state (per-cell
  // buckets, id bookkeeping, cell order) is reconstructed from the
  // snapshot's own layout, so subsequent ApplyUpdates batches behave
  // exactly as they would have on the uninterrupted instance (that is what
  // makes snapshot + journal replay == the live run; see persist/journal.h
  // and tests/test_persist.cpp). Throws std::invalid_argument for
  // non-streaming configurations and PersistError-shaped invariant
  // violations (ids not ascending, coords off the origin-anchored lattice:
  // e.g. a snapshot produced by CellIndex::Build rather than a streaming
  // checkpoint).
  DynamicCellIndex(std::shared_ptr<const dbscan::CellIndex<D>> snapshot,
                   std::span<const uint64_t> live_ids, uint64_t next_id,
                   dbscan::PipelineStats* stats = nullptr)
      : epsilon_(snapshot != nullptr ? snapshot->epsilon() : 0),
        side_(snapshot != nullptr
                  ? dbscan::GridSide<D>(epsilon_, snapshot->options().metric)
                  : 0),
        counts_cap_(snapshot != nullptr ? snapshot->counts_cap() : 0),
        options_(snapshot != nullptr ? snapshot->options() : Options()),
        stats_(stats != nullptr ? stats : &dbscan::GlobalStats()) {
    if (snapshot == nullptr) {
      throw std::invalid_argument("restore needs a snapshot");
    }
    if (options_.cell_method != CellMethod::kGrid ||
        options_.range_count != RangeCountMethod::kScan) {
      throw std::invalid_argument(
          "streaming restore supports grid cells with kScan range counting "
          "only (the configurations DynamicCellIndex itself produces)");
    }
    ValidateMetricOptions(options_);
    for (int i = 0; i < D; ++i) origin_[i] = 0.0;

    const dbscan::CellStructure<D>& cells = snapshot->cells();
    const size_t n = cells.num_points();
    const size_t m = cells.num_cells();
    if (live_ids.size() != n) {
      throw std::invalid_argument(
          "restore: live ids must cover every point");
    }
    live_ids_.assign(live_ids.begin(), live_ids.end());
    for (size_t k = 0; k < n; ++k) {
      if (live_ids_[k] >= next_id ||
          (k > 0 && live_ids_[k] <= live_ids_[k - 1])) {
        throw std::invalid_argument(
            "restore: live ids must be ascending and below next_id");
      }
    }
    next_id_ = next_id;

    // Writer state from the snapshot's own layout. Bucket order within a
    // cell is exactly the snapshot's per-cell point order (Recompose wrote
    // it from the buckets), so reconstruction is the inverse copy.
    cell_order_.resize(m);
    buckets_.reserve(m);
    cell_of_id_.reserve(n);
    for (size_t c = 0; c < m; ++c) {
      const geometry::CellCoords<D> coords = cells.coords[c];
      // Reject snapshots from a differently anchored grid: every cell must
      // sit on the origin-anchored lattice this writer will extend.
      const size_t begin = cells.offsets[c];
      if (cells.cell_size(c) == 0 ||
          geometry::CellOf<D>(cells.points[begin], origin_, side_) != coords) {
        throw std::invalid_argument(
            "restore: snapshot is not an origin-anchored streaming "
            "checkpoint");
      }
      cell_order_[c] = coords;
      cell_id_.emplace(coords, static_cast<uint32_t>(c));
      Bucket& bucket = buckets_[coords];
      const size_t size = cells.cell_size(c);
      bucket.ids.reserve(size);
      bucket.pts.reserve(size);
      for (size_t i = begin; i < begin + size; ++i) {
        const uint64_t id = live_ids_[cells.orig_index[i]];
        bucket.ids.push_back(id);
        bucket.pts.push_back(cells.points[i]);
        cell_of_id_.emplace(id, coords);
      }
    }

    UpdateStats update;
    update.num_points = n;
    update.num_cells = m;
    update.cells_retained = m;
    pending_ = std::move(snapshot);
    Publish(update);
  }

  DynamicCellIndex(const DynamicCellIndex&) = delete;
  DynamicCellIndex& operator=(const DynamicCellIndex&) = delete;

  // Attaches a write-ahead journal: every subsequently applied batch is
  // appended (after validation, before mutation — WAL discipline) as one
  // record, so `restore(last checkpoint) + replay` reproduces this
  // writer's exact update sequence. Pass nullptr to detach. The journal
  // must outlive the attachment; writer-thread only, like ApplyUpdates.
  void set_journal(persist::UpdateJournal<D>* journal) { journal_ = journal; }

  double epsilon() const { return epsilon_; }
  size_t counts_cap() const { return counts_cap_; }
  const Options& options() const { return options_; }

  // Applies one batch — erases first, then inserts — and publishes a fresh
  // snapshot. Returns the id assigned to inserts[0] (ids are consecutive:
  // inserts[k] gets return + k); ids are stable for the life of the point
  // and are what Erase takes. Throws std::invalid_argument on an unknown
  // or duplicated erase id, in which case no state changes at all.
  // Writer-thread only.
  uint64_t ApplyUpdates(std::span<const geometry::Point<D>> inserts,
                        std::span<const uint64_t> erases) {
    // Validate the whole erase batch before mutating anything.
    std::unordered_set<uint64_t> erase_set;
    erase_set.reserve(erases.size());
    for (const uint64_t id : erases) {
      if (!erase_set.insert(id).second) {
        throw std::invalid_argument("duplicate erase id in batch");
      }
      if (cell_of_id_.find(id) == cell_of_id_.end()) {
        throw std::invalid_argument("erase of unknown point id");
      }
    }

    // WAL: the batch is durable (to the attached journal's fsync policy)
    // before any in-memory state changes, so a crash mid-apply replays it.
    if (journal_ != nullptr) journal_->Append(inserts, erases, next_id_);

    util::Timer timer;
    CoordsSet dirty;
    dirty.reserve(erases.size() + inserts.size());

    // Erases: remove each point from its bucket (order within untouched
    // buckets is preserved — that is what lets retained cells' counts be
    // copied positionally).
    for (const uint64_t id : erases) {
      const auto loc = cell_of_id_.find(id);
      const geometry::CellCoords<D> coords = loc->second;
      cell_of_id_.erase(loc);
      Bucket& bucket = buckets_.at(coords);
      const auto pos = std::find(bucket.ids.begin(), bucket.ids.end(), id);
      const size_t k = static_cast<size_t>(pos - bucket.ids.begin());
      bucket.ids[k] = bucket.ids.back();
      bucket.ids.pop_back();
      bucket.pts[k] = bucket.pts.back();
      bucket.pts.pop_back();
      dirty.insert(coords);
    }

    // Inserts: append to (possibly fresh) buckets.
    const uint64_t first_id = next_id_;
    for (const geometry::Point<D>& p : inserts) {
      const uint64_t id = next_id_++;
      const geometry::CellCoords<D> coords =
          geometry::CellOf<D>(p, origin_, side_);
      Bucket& bucket = buckets_[coords];
      bucket.ids.push_back(id);
      bucket.pts.push_back(p);
      cell_of_id_.emplace(id, coords);
      dirty.insert(coords);
    }

    // Dataset order = ids ascending: drop erased ids, append the new ones
    // (monotonically increasing, so the vector stays sorted).
    if (!erase_set.empty()) {
      live_ids_.erase(std::remove_if(live_ids_.begin(), live_ids_.end(),
                                     [&](uint64_t id) {
                                       return erase_set.count(id) != 0;
                                     }),
                      live_ids_.end());
    }
    for (uint64_t id = first_id; id < next_id_; ++id) live_ids_.push_back(id);

    // Classify dirty cells; drop emptied buckets.
    CoordsSet vanished;
    for (const auto& coords : dirty) {
      const auto it = buckets_.find(coords);
      if (it != buckets_.end() && it->second.ids.empty()) {
        buckets_.erase(it);
        vanished.insert(coords);
      }
    }

    UpdateStats update = Recompose(dirty, vanished);
    update.points_inserted = inserts.size();
    update.points_erased = erases.size();
    update.recompose_seconds = timer.Seconds() - update.recount_seconds;
    Publish(update);
    return first_id;
  }

  // The latest published snapshot. Thread-safe; the pointee is immutable.
  std::shared_ptr<const dbscan::CellIndex<D>> snapshot() const {
    std::lock_guard<std::mutex> lock(publish_mu_);
    return published_;
  }

  size_t num_points() const { return live_ids_.size(); }
  size_t num_cells() const { return buckets_.size(); }
  uint64_t next_id() const { return next_id_; }

  // Accounting of the most recent ApplyUpdates. Writer-thread only.
  const UpdateStats& last_update() const { return last_update_; }

  // The live dataset in dataset order (ids ascending) — the order snapshot
  // clusterings index, so LivePoints()[i] is the point Clustering entry i
  // refers to. Writer-thread only (or with the writer quiescent).
  std::vector<geometry::Point<D>> LivePoints() const {
    const auto snap = snapshot();
    const dbscan::CellStructure<D>& cells = snap->cells();
    std::vector<geometry::Point<D>> out(cells.num_points());
    parallel::parallel_for(0, cells.num_points(), [&](size_t i) {
      out[cells.orig_index[i]] = cells.points[i];
    });
    return out;
  }

  // Stable point ids in dataset order: LiveIds()[i] is the id of the point
  // behind Clustering entry i. Writer-thread only.
  const std::vector<uint64_t>& LiveIds() const { return live_ids_; }

 private:
  struct Bucket {
    std::vector<uint64_t> ids;
    std::vector<geometry::Point<D>> pts;
  };
  struct CoordsHasher {
    size_t operator()(const geometry::CellCoords<D>& c) const {
      return static_cast<size_t>(geometry::HashCellCoords<D>(c));
    }
  };
  using CoordsSet = std::unordered_set<geometry::CellCoords<D>, CoordsHasher>;
  template <typename V>
  using CoordsMap = std::unordered_map<geometry::CellCoords<D>, V, CoordsHasher>;

  // Rebuilds the flat CellStructure from the buckets, recounts the dirty
  // eps-neighborhood, and freezes the result into pending_. Fills the
  // structural fields of the returned UpdateStats.
  UpdateStats Recompose(const CoordsSet& dirty, const CoordsSet& vanished) {
    UpdateStats update;
    const dbscan::CellIndex<D>* prev = published_.get();

    // Deterministic cell order: retained cells keep their relative order,
    // vanished cells drop out, created cells append sorted by coords.
    std::vector<geometry::CellCoords<D>> created;
    for (const auto& coords : dirty) {
      if (vanished.count(coords) == 0 && cell_id_.count(coords) == 0) {
        created.push_back(coords);
      }
    }
    std::sort(created.begin(), created.end());
    if (!vanished.empty()) {
      cell_order_.erase(
          std::remove_if(cell_order_.begin(), cell_order_.end(),
                         [&](const geometry::CellCoords<D>& c) {
                           return vanished.count(c) != 0;
                         }),
          cell_order_.end());
    }
    cell_order_.insert(cell_order_.end(), created.begin(), created.end());
    update.cells_created = created.size();
    update.cells_vanished = vanished.size();

    const size_t m = cell_order_.size();
    const size_t n = live_ids_.size();

    // Flat recomposition: offsets from bucket sizes, then a parallel copy.
    // This pass touches every cell, but as a memcpy-scale copy — the
    // semisort, adjacency hashing and (below) MarkCore work that dominate a
    // from-scratch build are either O(cells) or confined to the dirty set.
    util::Timer timer;
    dbscan::CellStructure<D> cells;
    cells.epsilon = epsilon_;
    cells.metric = options_.metric;
    cells.ResizeForCells(m, n);
    std::vector<const Bucket*> bucket_of(m);
    for (size_t c = 0; c < m; ++c) {
      bucket_of[c] = &buckets_.at(cell_order_[c]);
      cells.offsets[c + 1] = cells.offsets[c] + bucket_of[c]->ids.size();
    }
    if (cells.offsets[m] != n) {
      throw std::logic_error("streaming bucket sizes out of sync");
    }
    // Dataset position = rank among the sorted live ids. One O(n) pass
    // builds the transient id -> rank map (bounded by LIVE points, unlike
    // a table over all historical ids; cleared rather than reallocated
    // across batches), read concurrently by the copy below.
    rank_of_id_.clear();
    rank_of_id_.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      rank_of_id_.emplace(live_ids_[k], static_cast<uint32_t>(k));
    }
    parallel::parallel_for(
        0, m,
        [&](size_t c) {
          const Bucket& bucket = *bucket_of[c];
          const size_t begin = cells.offsets[c];
          for (size_t k = 0; k < bucket.ids.size(); ++k) {
            cells.points[begin + k] = bucket.pts[k];
            cells.orig_index[begin + k] = rank_of_id_.find(bucket.ids[k])->second;
          }
          cells.coords[c] = cell_order_[c];
          cells.cell_boxes[c] =
              geometry::CellBBox<D>(cell_order_[c], origin_, side_);
        },
        1);
    dbscan::BuildGridAdjacency(cells, origin_, side_);
    // Lanes for the recomposed points: the recount below and every query on
    // the published snapshot run through the SIMD distance kernels.
    cells.BuildSoALanes();

    // New coords -> cell id map; keep the previous one for retained-count
    // lookups and vanished-cell neighborhoods.
    CoordsMap<uint32_t> old_cell_id = std::move(cell_id_);
    cell_id_ = CoordsMap<uint32_t>();
    cell_id_.reserve(m);
    for (size_t c = 0; c < m; ++c) {
      cell_id_.emplace(cell_order_[c], static_cast<uint32_t>(c));
    }

    // The recount set: dirty cells, their current neighbors, and the
    // previous neighbors of cells the batch emptied. Every other cell's
    // eps-neighborhood is untouched, so its counts are still exact.
    std::vector<uint8_t> recount(m, 0);
    for (const auto& coords : dirty) {
      if (vanished.count(coords) != 0) continue;
      const uint32_t c = cell_id_.at(coords);
      recount[c] = 1;
      for (const uint32_t h : cells.neighbors(c)) recount[h] = 1;
    }
    if (prev != nullptr && !vanished.empty()) {
      const dbscan::CellStructure<D>& prev_cells = prev->cells();
      for (const auto& coords : vanished) {
        const uint32_t old_c = old_cell_id.at(coords);
        for (const uint32_t h : prev_cells.neighbors(old_c)) {
          const auto it = cell_id_.find(prev_cells.coords[h]);
          if (it != cell_id_.end()) recount[it->second] = 1;
        }
      }
    }
    dbscan::AddSeconds(stats_->build_cells_seconds, timer.Seconds());

    // Counts: copy retained cells from the previous snapshot, recount the
    // rest through the same Algorithm 2 body the full build uses.
    timer.Reset();
    std::vector<uint32_t> counts(n);
    std::vector<uint32_t> rebuilt_list;
    {
      telemetry::TraceSpan span("streaming_recount");
      for (size_t c = 0; c < m; ++c) {
        if (recount[c]) rebuilt_list.push_back(static_cast<uint32_t>(c));
      }
      const containers::FlatArray<uint32_t>* prev_counts =
          prev != nullptr ? &prev->neighbor_counts() : nullptr;
      parallel::parallel_for(
          0, m,
          [&](size_t c) {
            if (recount[c]) return;
            // Retained: the cell existed before with identical contents.
            const uint32_t old_c = old_cell_id.at(cells.coords[c]);
            const dbscan::CellStructure<D>& prev_cells = prev->cells();
            std::copy(
                prev_counts->begin() +
                    static_cast<ptrdiff_t>(prev_cells.offsets[old_c]),
                prev_counts->begin() +
                    static_cast<ptrdiff_t>(prev_cells.offsets[old_c + 1]),
                counts.begin() + static_cast<ptrdiff_t>(cells.offsets[c]));
          },
          1);
      dbscan::MarkCoreCountsForCells<D>(
          cells, counts_cap_, RangeCountMethod::kScan, nullptr,
          std::span<const uint32_t>(rebuilt_list), counts, stats_);
    }
    update.recount_seconds = timer.Seconds();
    dbscan::AddSeconds(stats_->mark_core_seconds, update.recount_seconds);

    update.cells_rebuilt = rebuilt_list.size();
    update.cells_retained = m - rebuilt_list.size();
    update.num_points = n;
    update.num_cells = m;
    pending_ = std::make_shared<const dbscan::CellIndex<D>>(
        std::move(cells), std::move(counts), counts_cap_, options_, stats_);
    return update;
  }

  void Publish(const UpdateStats& update) {
    {
      std::lock_guard<std::mutex> lock(publish_mu_);
      published_ = std::move(pending_);
    }
    last_update_ = update;
    stats_->cells_rebuilt.fetch_add(update.cells_rebuilt,
                                    std::memory_order_relaxed);
    stats_->cells_retained.fetch_add(update.cells_retained,
                                     std::memory_order_relaxed);
    stats_->snapshots_published.fetch_add(1, std::memory_order_relaxed);
  }

  double epsilon_;
  double side_;
  size_t counts_cap_;
  Options options_;
  dbscan::PipelineStats* stats_;
  persist::UpdateJournal<D>* journal_ = nullptr;
  geometry::Point<D> origin_;

  // Live points bucketed by cell, plus the id bookkeeping that makes
  // erases O(cell) and dataset order reconstructible.
  CoordsMap<Bucket> buckets_;
  std::unordered_map<uint64_t, geometry::CellCoords<D>> cell_of_id_;
  std::vector<uint64_t> live_ids_;  // Sorted ascending.
  // Per-batch scratch: live id -> dataset rank (see Recompose).
  std::unordered_map<uint64_t, uint32_t> rank_of_id_;
  uint64_t next_id_ = 0;

  // The published snapshot's cell layout: order and coords -> id.
  std::vector<geometry::CellCoords<D>> cell_order_;
  CoordsMap<uint32_t> cell_id_;

  std::shared_ptr<const dbscan::CellIndex<D>> pending_;
  mutable std::mutex publish_mu_;
  std::shared_ptr<const dbscan::CellIndex<D>> published_;
  UpdateStats last_update_;
};

}  // namespace pdbscan::streaming

#endif  // PDBSCAN_STREAMING_DYNAMIC_CELL_INDEX_H_
