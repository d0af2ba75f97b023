// EnginePool — thread-safe query serving over a frozen CellIndex snapshot.
//
// The serving architecture the paper's build-once/query-many pipeline
// implies (and that Berkholz et al.'s query-under-preprocessing split
// formalizes): an immutable shared index, cheap per-client query state.
// The pool owns a shared_ptr<const CellIndex<D>> plus a free list of
// QueryContexts; any number of client threads may call Run/Sweep
// concurrently — each call leases a context, runs the standard query
// pipeline against the shared index, and returns the context to the free
// list. Results are bit-identical to serial one-shot pdbscan::Dbscan calls
// with the same parameters.
//
// Snapshot hand-over: ReplaceIndex() swaps in a new immutable snapshot
// (typically published by streaming::DynamicCellIndex after an update
// batch) and bumps the pool's snapshot GENERATION — a monotonically
// increasing number that names exactly one served dataset state. Each
// query pins the (snapshot, generation) pair current at its start — the
// lease copies both under the same lock that hands out the context — so
// readers never block on writers and never observe a half-applied update;
// queries in flight during a swap simply finish against the snapshot they
// started with, which stays alive until the last such query drops its
// reference. Generations are what make caching-under-updates sound: a
// result computed from generation G is valid for exactly the requests that
// would be served from G (see parallel/serving_scheduler.h).
//
//   auto index = pdbscan::dbscan::CellIndex<2>::Build(pts, eps, cap, opts);
//   pdbscan::parallel::EnginePool<2> pool(index);
//   // from any thread:
//   pdbscan::Clustering c = pool.Run(min_pts);
//
// The pool holds no policy: a lease takes a free context, or creates one
// when every context is busy, and never waits. Each context owns scratch
// proportional to the dataset, so the number of contexts equals the peak
// number of concurrent leases. Bounding that number, queueing and timing
// out requests is the job of parallel::ServingScheduler: network queries
// (net/server.h) reach the pool only through its executors. A context
// answers a min_pts above the index's counts cap by recounting on every
// call, so serve with counts_cap >= the largest min_pts.
//
// Inner parallelism: queries execute on the process-wide work-stealing
// scheduler (scheduler.h), which accepts submissions from any thread, so
// client concurrency composes with PDBSCAN_NUM_THREADS. For maximum
// queries/sec with many clients, run the scheduler with 1 worker (each
// query executes serially on its client thread; perfbench's serve_2d
// workload measures this); a single client with many workers gets
// minimum latency instead. Do not call parallel::set_num_workers() while
// pool queries are in flight.
//
// Stats: each context accumulates into its own PipelineStats (no shared
// Reset/read-out races between clients, unlike leaning on GlobalStats());
// AggregateStats() sums the per-context sinks plus the index-build counters
// into a caller-provided sink. The sums are exact once callers are
// quiescent.
#ifndef PDBSCAN_PARALLEL_ENGINE_POOL_H_
#define PDBSCAN_PARALLEL_ENGINE_POOL_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dbscan/cell_index.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "geometry/point.h"

namespace pdbscan::parallel {

template <int D>
class EnginePool {
 public:
  // Serves an index built elsewhere (possibly shared with other pools).
  // The index may come from any producer of frozen CellIndexes: a direct
  // CellIndex::Build, a streaming DynamicCellIndex snapshot, or a loaded
  // snapshot.
  explicit EnginePool(std::shared_ptr<const dbscan::CellIndex<D>> index)
      : index_(std::move(index)) {
    if (!index_) throw std::invalid_argument("EnginePool needs an index");
  }

  // Adopts an index at an explicit starting generation. Generation numbers
  // are per-pool by default (start at 1, bump on ReplaceIndex); a process
  // that recovers a dataset mid-history — a replica cold-starting from a
  // shipped checkpoint (net/replication.h) — instead needs its pool to
  // report the DATASET's generation, so that "generation G" names the same
  // point set on every node. `generation` must be >= 1 (0 is reserved as
  // the Lease-was-moved-from sentinel).
  EnginePool(std::shared_ptr<const dbscan::CellIndex<D>> index,
             uint64_t generation)
      : index_(std::move(index)), generation_(generation) {
    if (!index_) throw std::invalid_argument("EnginePool needs an index");
    if (generation == 0) {
      throw std::invalid_argument("EnginePool generation must be >= 1");
    }
  }

  // Builds the index and serves it: the one-stop "service" constructor.
  // `counts_cap` is the largest min_pts answered from the shared counts;
  // larger values remain correct via a recount on every query. Build
  // counters land in build_stats(), so AggregateStats() reports
  // cells_built == 1 no matter how many queries follow.
  EnginePool(std::span<const geometry::Point<D>> points, double epsilon,
             size_t counts_cap, Options options = Options())
      : index_(std::make_shared<const dbscan::CellIndex<D>>(
            points, epsilon, counts_cap, std::move(options), &build_stats_)) {}

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  // RAII lease: one QueryContext plus the (snapshot, generation) pair
  // pinned at acquisition, all taken under one lock acquisition. Movable;
  // a default-constructed or moved-from lease is empty, and Run/Sweep on
  // it throw.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), slot_(other.slot_),
          index_(std::move(other.index_)), generation_(other.generation_) {
      other.pool_ = nullptr;
      other.slot_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = other.pool_;
        slot_ = other.slot_;
        index_ = std::move(other.index_);
        generation_ = other.generation_;
        other.pool_ = nullptr;
        other.slot_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    // The snapshot this lease pins; every Run/Sweep through the lease
    // answers from exactly this dataset state, even across ReplaceIndex.
    const std::shared_ptr<const dbscan::CellIndex<D>>& index() const {
      return index_;
    }

    // The generation number of the pinned snapshot.
    uint64_t generation() const { return generation_; }

    // Clusters the pinned snapshot at `min_pts` through the leased context.
    Clustering Run(size_t min_pts) {
      Require();
      return slot_->context.Run(*index_, min_pts);
    }

    // Answers a whole min_pts sweep against the pinned snapshot.
    std::vector<Clustering> Sweep(std::span<const size_t> minpts_list) {
      Require();
      return slot_->context.Sweep(*index_, minpts_list);
    }

   private:
    friend class EnginePool;
    Lease(EnginePool* pool, typename EnginePool::Slot* slot,
          std::shared_ptr<const dbscan::CellIndex<D>> index,
          uint64_t generation)
        : pool_(pool), slot_(slot), index_(std::move(index)),
          generation_(generation) {}

    void Require() const {
      if (slot_ == nullptr) {
        throw std::logic_error("Run/Sweep on an empty EnginePool::Lease");
      }
    }

    void Release() {
      if (pool_ == nullptr || slot_ == nullptr) return;
      std::lock_guard<std::mutex> lock(pool_->mu_);
      pool_->free_.push_back(slot_);
      pool_ = nullptr;
      slot_ = nullptr;
    }

    EnginePool* pool_ = nullptr;
    typename EnginePool::Slot* slot_ = nullptr;
    std::shared_ptr<const dbscan::CellIndex<D>> index_;
    uint64_t generation_ = 0;
  };

  // Takes a free context, or creates one when all are busy; never waits.
  // The lease pins the currently served (snapshot, generation) pair.
  Lease AcquireLease() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      slots_.push_back(std::make_unique<Slot>());
      return Lease(this, slots_.back().get(), index_, generation_);
    }
    Slot* slot = free_.back();
    free_.pop_back();
    return Lease(this, slot, index_, generation_);
  }

  // Thread-safe: clusters the served snapshot's point set at `min_pts`
  // through a leased context. The query answers from the snapshot pinned
  // at lease time even if ReplaceIndex runs meanwhile.
  Clustering Run(size_t min_pts) { return AcquireLease().Run(min_pts); }

  // Thread-safe: answers a whole min_pts sweep through one leased context,
  // entirely against the single snapshot pinned at lease time.
  std::vector<Clustering> Sweep(std::span<const size_t> minpts_list) {
    return AcquireLease().Sweep(minpts_list);
  }

  // Brace-list convenience for the overload above: pool.Sweep({5, 10, 50}).
  std::vector<Clustering> Sweep(std::initializer_list<size_t> minpts_list) {
    return Sweep(
        std::span<const size_t>(minpts_list.begin(), minpts_list.size()));
  }

  // Thread-safe: atomically swaps the served snapshot and bumps the
  // generation. In-flight queries finish against the snapshot they pinned;
  // subsequent leases see the new one. This is the streaming hand-over
  // point — StreamingClusterer calls it after every published update
  // batch. Contexts hold no reference to any snapshot, so a retired one is
  // freed as soon as the last lease pinning it is released.
  void ReplaceIndex(std::shared_ptr<const dbscan::CellIndex<D>> index) {
    if (!index) throw std::invalid_argument("EnginePool needs an index");
    std::lock_guard<std::mutex> lock(mu_);
    index_ = std::move(index);
    ++generation_;
  }

  // ReplaceIndex at an explicit generation, for pools whose generation
  // numbers track a shared dataset history rather than local swap counts
  // (see the explicit-generation constructor). The new generation must be
  // strictly greater than the current one — generations order snapshots,
  // and generation-keyed caches (serving_scheduler.h) rely on a key never
  // naming two different datasets.
  void ReplaceIndex(std::shared_ptr<const dbscan::CellIndex<D>> index,
                    uint64_t generation) {
    if (!index) throw std::invalid_argument("EnginePool needs an index");
    std::lock_guard<std::mutex> lock(mu_);
    if (generation <= generation_) {
      throw std::invalid_argument(
          "ReplaceIndex generation " + std::to_string(generation) +
          " must exceed current " + std::to_string(generation_));
    }
    index_ = std::move(index);
    generation_ = generation;
  }

  // The currently served snapshot (a consistent shared_ptr copy; the
  // pointee is immutable).
  std::shared_ptr<const dbscan::CellIndex<D>> shared_index() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_;
  }

  // The currently served (snapshot, generation) pair, read atomically —
  // the lookup key producers of generation-aware caches need (see
  // serving_scheduler.h).
  std::pair<std::shared_ptr<const dbscan::CellIndex<D>>, uint64_t>
  SnapshotAndGeneration() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {index_, generation_};
  }

  // The generation of the currently served snapshot. Starts at 1 for the
  // adopted/built index and increments on every ReplaceIndex.
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
  }

  // Counters of the index build, when this pool built its index (zero when
  // an externally built index was adopted).
  const dbscan::PipelineStats& build_stats() const { return build_stats_; }

  // Number of contexts ever created == peak query concurrency observed.
  size_t contexts_created() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

  // Sums build stats and every context's counters/timings into `out`
  // (which the caller typically Reset()s first). Exact when no query is in
  // flight; during traffic individual counters are still atomically read
  // but the sum is not a point-in-time snapshot.
  void AggregateStats(dbscan::PipelineStats& out) const {
    out.MergeFrom(build_stats_);
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& slot : slots_) out.MergeFrom(slot->stats);
  }

 private:
  // A context plus its private stats sink. Slots are never destroyed while
  // the pool lives, so AggregateStats can walk them under the lock.
  struct Slot {
    dbscan::PipelineStats stats;
    dbscan::QueryContext<D> context{&stats};
  };

  dbscan::PipelineStats build_stats_;
  std::shared_ptr<const dbscan::CellIndex<D>> index_;
  uint64_t generation_ = 1;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;
};

}  // namespace pdbscan::parallel

#endif  // PDBSCAN_PARALLEL_ENGINE_POOL_H_
