// ServingScheduler — the admission / batching / caching layer between many
// clients and one EnginePool.
//
// EnginePool made concurrent queries safe; this layer makes them CHEAP and
// BOUNDED under real traffic. Four mechanisms, one scheduler:
//
//   * Bounded admission with deadlines. Every request enters a bounded
//     queue with an absolute deadline (default from ServingOptions,
//     per-request override). A full queue refuses the newcomer instead of
//     letting the backlog grow without limit; a request whose deadline
//     passes while queued (or whose execution finishes after it) resolves
//     as kTimedOut instead of occupying an executor. Rejections and
//     timeouts are counted, never silent (requests_rejected /
//     requests_timed_out).
//
//   * In-flight coalescing. The admission queue doubles as the coalescing
//     window: when an executor claims work it takes EVERY queued request
//     at once, pins one (snapshot, generation) lease for the whole batch,
//     and answers all distinct min_pts values with a single batched
//     Sweep — the saturated-counts pass that already answers a whole
//     min_pts list in one MarkCore evaluation now amortizes across
//     CLIENTS, not just within one call. Each waiter receives its own
//     Clustering, bit-identical to what a solo EnginePool::Run at the same
//     generation returns (same RunQueryFromCounts pipeline, same counts).
//
//   * Generation-keyed result cache. Results are cached under
//     (snapshot generation, epsilon, min_pts) with LRU eviction. Because
//     ReplaceIndex bumps the pool generation, a streaming update
//     invalidates precisely the stale entries — lookups from the new
//     generation can never alias an old dataset state (the
//     query-answering-under-updates discipline of Berkholz et al., applied
//     to a cache key). Lookups only ever use the current generation, so the
//     first result cached under a newer generation drops every older entry
//     on the spot, and a result computed on an already-retired snapshot is
//     not cached at all. Entries are stored compactly (CompactClustering:
//     int32 labels plus a side list for multi-membership points) and
//     expanded back to a bit-identical Clustering on a hit.
//
//   * Async submission. SubmitAsync returns a std::future<ServeResult>, so
//     one OS thread can keep an arbitrary number of requests in flight;
//     Submit is the blocking convenience over the same path.
//
// Determinism-by-construction: all time handling goes through the
// injectable Clock (serving_clock.h) and ServingOptions.num_executors == 0
// selects MANUAL PUMP mode — no executor threads; the test drives the
// scheduler by calling Pump(), which performs exactly one
// expire-claim-execute round on the calling thread. Together with a
// FakeClock this makes every scheduling race — queue overflow, deadline
// expiry before/mid execution, coalescing windows — an exact, replayable
// sequence of calls (see tests/test_serving.cpp). With num_executors >= 1
// the same loop runs on internal threads against the real clock.
//
//   pdbscan::parallel::EnginePool<2> pool(index);
//   pdbscan::parallel::ServingScheduler<2> server(pool);   // 1 executor
//   auto f = server.SubmitAsync(/*min_pts=*/10);
//   pdbscan::parallel::ServeResult r = f.get();
//   if (r.status == pdbscan::parallel::ServeStatus::kOk) use(r.clustering);
//
// Threading contract: Submit*/Pump/Shutdown from any thread. The pool must
// outlive the scheduler. Stats land in the scheduler's own PipelineStats
// sink (serving_stats()); AggregateStats() adds the pool's counters.
#ifndef PDBSCAN_PARALLEL_SERVING_SCHEDULER_H_
#define PDBSCAN_PARALLEL_SERVING_SCHEDULER_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "parallel/engine_pool.h"
#include "parallel/serving_clock.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace pdbscan::parallel {

enum class ServeStatus {
  kOk,        // clustering/generation are valid.
  kRejected,  // Refused at admission (queue full).
  kTimedOut,  // Deadline passed while queued or before delivery.
  kShutdown,  // Scheduler stopped before the request executed.
};

// One resolved request. Every waiter gets its OWN Clustering (a private
// copy even when the result came from a coalesced batch or the cache), so
// callers may move/mutate it freely.
struct ServeResult {
  ServeStatus status = ServeStatus::kShutdown;
  Clustering clustering;        // Valid iff status == kOk.
  uint64_t generation = 0;      // Snapshot generation served from (kOk only).
  size_t min_pts = 0;           // Echo of the request parameter.
  bool from_cache = false;      // Answered at admission from the LRU cache.
  bool coalesced = false;       // Shared a batched execution with others.

  bool ok() const { return status == ServeStatus::kOk; }
};

// A Clustering as the result cache stores it: int32 primary labels and
// is_core per point, plus the membership list of only those points whose
// memberships are not implied by their label — implied means none for noise
// and exactly {cluster[i]} otherwise, which covers every core point and
// every single-cluster border point. About 5 bytes per point instead of the
// ~25 of a full Clustering. Expand() rebuilds a bit-identical Clustering.
struct CompactClustering {
  std::vector<int32_t> cluster;
  std::vector<uint8_t> is_core;
  // Points with a non-implied membership list, ascending, and their lists:
  // extra_ids[extra_offsets[k] .. extra_offsets[k+1]) for extra_points[k].
  std::vector<uint32_t> extra_points;
  std::vector<uint32_t> extra_offsets{0};
  std::vector<int32_t> extra_ids;
  size_t num_memberships = 0;  // membership_ids.size() of the original.
  size_t num_clusters = 0;

  // nullopt when the clustering cannot be stored compactly (and so is not
  // cached): a label outside int32, 2^32 - 1 or more points or memberships,
  // or not one is_core flag per point and one offset per point plus one.
  static std::optional<CompactClustering> Compress(const Clustering& c) {
    constexpr int64_t kMin = std::numeric_limits<int32_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
    const size_t n = c.size();
    if (n >= std::numeric_limits<uint32_t>::max() ||
        c.membership_ids.size() >= std::numeric_limits<uint32_t>::max() ||
        c.is_core.size() != n || c.membership_offsets.size() != n + 1) {
      return std::nullopt;
    }
    CompactClustering out;
    out.cluster.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const int64_t label = c.cluster[i];
      if (label < kMin || label > kMax) return std::nullopt;
      out.cluster[i] = static_cast<int32_t>(label);
    }
    out.is_core = c.is_core;
    out.num_memberships = c.membership_ids.size();
    out.num_clusters = c.num_clusters;
    for (size_t i = 0; i < n; ++i) {
      const std::span<const int64_t> list = c.memberships(i);
      const bool implied = c.cluster[i] == Clustering::kNoise
                               ? list.empty()
                               : list.size() == 1 && list[0] == c.cluster[i];
      if (implied) continue;
      for (const int64_t id : list) {
        if (id < kMin || id > kMax) return std::nullopt;
        out.extra_ids.push_back(static_cast<int32_t>(id));
      }
      out.extra_points.push_back(static_cast<uint32_t>(i));
      out.extra_offsets.push_back(static_cast<uint32_t>(out.extra_ids.size()));
    }
    return out;
  }

  Clustering Expand() const {
    Clustering c;
    const size_t n = cluster.size();
    c.cluster.assign(cluster.begin(), cluster.end());
    c.is_core = is_core;
    c.num_clusters = num_clusters;
    c.membership_offsets.resize(n + 1);
    c.membership_ids.resize(num_memberships);
    size_t w = 0;
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      c.membership_offsets[i] = w;
      if (k < extra_points.size() && extra_points[k] == i) {
        for (uint32_t j = extra_offsets[k]; j < extra_offsets[k + 1]; ++j) {
          c.membership_ids[w++] = extra_ids[j];
        }
        ++k;
      } else if (cluster[i] != Clustering::kNoise) {
        c.membership_ids[w++] = cluster[i];
      }
    }
    c.membership_offsets[n] = w;
    return c;
  }
};

struct ServingOptions {
  // Admission-queue bound; a Submit beyond it is refused (kRejected).
  size_t queue_limit = 256;

  // Relative deadline applied to requests that do not pass their own
  // (kNeverNanos: no deadline). Absolute deadlines are stamped at
  // admission from the scheduler's clock.
  uint64_t default_timeout_nanos = SecondsToNanos(5);

  // Result-cache entries kept, LRU-evicted; 0 disables the cache (and the
  // cache_hits/cache_misses counters stay 0).
  size_t cache_capacity = 64;

  // When true an executor claims the whole queue per round and answers it
  // with one batched Sweep; when false it claims one request per round
  // (every request pays its own pipeline pass — the bench's control arm).
  bool coalescing = true;

  // Executor threads. 0 = manual pump mode: no threads, the caller drives
  // execution via Pump() (the deterministic-test configuration; Submit
  // throws there, use SubmitAsync + Pump).
  size_t num_executors = 1;

  // Time source for deadlines and latencies (nullptr: the real steady
  // clock). Tests inject a FakeClock; must outlive the scheduler.
  Clock* clock = nullptr;

  // Test seam: invoked on the executing thread after a batch is claimed
  // and before it executes, with the batch size. Lets a fake-clock test
  // advance time "mid-execution" deterministically. Leave unset in
  // production.
  std::function<void(size_t)> on_batch_claimed;

  // Requests whose admission-to-delivery latency (scheduler clock) meets
  // this threshold get one line — plus the request's span tree when it was
  // traced — written to slow_query_sink (default: stderr). kNeverNanos
  // disables the log.
  uint64_t slow_query_nanos = kNeverNanos;
  std::function<void(const std::string&)> slow_query_sink;
};

// The scheduler's latency distributions, recorded against its (injectable)
// clock so fake-clock tests see exact values. All in nanoseconds.
struct ServingHistograms {
  telemetry::LatencyHistogram request_nanos;     // Admission -> delivery.
  telemetry::LatencyHistogram queue_wait_nanos;  // Admission -> batch claim.
  telemetry::LatencyHistogram execute_nanos;     // Lease + sweep.
};

template <int D>
class ServingScheduler {
 public:
  // `pool` must outlive the scheduler. `stats` is the sink for the
  // scheduler's admission/cache counters (nullptr: a private internal
  // sink, readable via serving_stats()).
  explicit ServingScheduler(EnginePool<D>& pool,
                            ServingOptions options = ServingOptions(),
                            dbscan::PipelineStats* stats = nullptr)
      : pool_(pool),
        options_(std::move(options)),
        clock_(options_.clock != nullptr ? options_.clock : &Clock::Real()),
        stats_(stats != nullptr ? stats : &own_stats_) {
    executors_.reserve(options_.num_executors);
    for (size_t i = 0; i < options_.num_executors; ++i) {
      executors_.emplace_back([this]() { ExecutorLoop(); });
    }
  }

  ServingScheduler(const ServingScheduler&) = delete;
  ServingScheduler& operator=(const ServingScheduler&) = delete;

  ~ServingScheduler() { Shutdown(); }

  // Asynchronous submission with the default timeout; the future resolves
  // with a ServeResult (never a broken promise). Throws std::invalid_argument
  // for min_pts == 0 — parameter validation is a caller bug, not overload.
  std::future<ServeResult> SubmitAsync(size_t min_pts) {
    return SubmitAsync(min_pts, options_.default_timeout_nanos);
  }

  // Per-request relative timeout override (kNeverNanos: no deadline).
  std::future<ServeResult> SubmitAsync(size_t min_pts,
                                       uint64_t timeout_nanos) {
    Request req;
    req.min_pts = min_pts;
    std::future<ServeResult> future = req.promise.get_future();
    Admit(std::move(req), min_pts, timeout_nanos);
    return future;
  }

  // Blocking submission. Throws std::logic_error in manual pump mode
  // (num_executors == 0), where no thread would ever execute the request.
  ServeResult Submit(size_t min_pts) {
    return Submit(min_pts, options_.default_timeout_nanos);
  }
  ServeResult Submit(size_t min_pts, uint64_t timeout_nanos) {
    if (options_.num_executors == 0) {
      throw std::logic_error(
          "blocking Submit on a manual-pump scheduler would never return");
    }
    return SubmitAsync(min_pts, timeout_nanos).get();
  }

  // Manual pump (num_executors == 0): performs one expire-claim-execute
  // round on the calling thread — resolves every queued request whose
  // deadline has passed, then executes one batch (the whole queue under
  // coalescing, else one request). Returns the number of requests
  // resolved; 0 means the queue was empty. Safe to call with executors
  // running (it simply competes for the same queue).
  size_t Pump() {
    std::vector<Request> expired;
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ExtractExpiredLocked(expired);
      if (!stopped_) ClaimBatchLocked(batch);
    }
    ResolveExpired(expired);
    if (!batch.empty()) ExecuteBatch(batch);
    return expired.size() + batch.size();
  }

  // Stops admission, fails queued requests with kShutdown, joins the
  // executors. Idempotent; the destructor calls it.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : executors_) t.join();
    executors_.clear();
    std::vector<Request> orphans;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Request& r : queue_) orphans.push_back(std::move(r));
      queue_.clear();
    }
    for (Request& r : orphans) {
      ServeResult result;
      result.status = ServeStatus::kShutdown;
      result.min_pts = r.min_pts;
      Deliver(r, std::move(result));
    }
  }

  // Requests currently queued (not yet claimed by an executor).
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  // The scheduler's admission/cache counters (the internal sink when no
  // external one was given at construction).
  const dbscan::PipelineStats& serving_stats() const { return *stats_; }

  // Scheduler counters plus everything the pool aggregates (build and
  // per-context query counters). Exact when quiescent.
  void AggregateStats(dbscan::PipelineStats& out) const {
    out.MergeFrom(*stats_);
    pool_.AggregateStats(out);
  }

  const ServingOptions& options() const { return options_; }

  // Latency histograms (request / queue-wait / execute), recorded against
  // the scheduler clock. Snapshot() them for export.
  const ServingHistograms& histograms() const { return histograms_; }

  // The generation of every cached result, most recently used first.
  std::vector<uint64_t> CachedGenerations() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t> out;
    for (const CacheKey& key : lru_) out.push_back(key.generation);
    return out;
  }

 private:
  struct Request {
    size_t min_pts = 0;
    uint64_t deadline_nanos = kNeverNanos;
    // Trace context captured from the admitting thread (0 = untraced):
    // executor-side spans re-parent under parent_span_id so the request's
    // span tree stays well-nested across the thread hop.
    uint64_t trace_id = 0;
    uint64_t parent_span_id = 0;
    uint64_t admit_steady_nanos = 0;  // telemetry::NowNanos at admission.
    uint64_t admit_clock_nanos = 0;   // Scheduler clock at admission.
    std::promise<ServeResult> promise;
  };

  // (generation, epsilon, min_pts) — the full serving identity of a
  // result. Generation alone already pins the snapshot (and with it
  // epsilon); epsilon is kept in the key so an entry is self-describing
  // and can never alias across pools or future multi-eps serving.
  struct CacheKey {
    uint64_t generation;
    uint64_t eps_bits;
    uint64_t min_pts;
    bool operator==(const CacheKey& o) const {
      return generation == o.generation && eps_bits == o.eps_bits &&
             min_pts == o.min_pts;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      uint64_t h = k.generation * 0x9e3779b97f4a7c15ull;
      h ^= k.eps_bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= k.min_pts + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct CacheEntry {
    std::shared_ptr<const CompactClustering> result;
    std::list<CacheKey>::iterator lru_pos;
  };

  static uint64_t EpsBits(double eps) {
    uint64_t bits;
    std::memcpy(&bits, &eps, sizeof(bits));
    return bits;
  }

  // Admission: validate, try the cache, then queue under the bound. Every
  // submit resolves as exactly one of {admitted, rejected}; admitted cache
  // hits complete on the spot.
  void Admit(Request&& req, size_t min_pts, uint64_t timeout_nanos) {
    if (min_pts == 0) throw std::invalid_argument("min_pts must be positive");
    const uint64_t now = clock_->NowNanos();
    req.deadline_nanos = SaturatingAdd(now, timeout_nanos);
    req.admit_clock_nanos = now;
    if (telemetry::TraceEnabled()) {
      // Ambient propagation: whatever trace the admitting thread is inside
      // (a net request, a CLI --trace run) rides along with the request.
      req.trace_id = telemetry::CurrentTraceId();
      req.parent_span_id = telemetry::CurrentSpanId();
      req.admit_steady_nanos = telemetry::NowNanos();
    }

    ServeResult immediate;
    std::shared_ptr<const CompactClustering> hit;
    bool resolve_now = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) {
        immediate.status = ServeStatus::kShutdown;
        immediate.min_pts = min_pts;
        resolve_now = true;
      } else if (options_.cache_capacity > 0 &&
                 (hit = LookupCacheLocked(min_pts, immediate))) {
        stats_->requests_admitted.fetch_add(1, std::memory_order_relaxed);
        stats_->cache_hits.fetch_add(1, std::memory_order_relaxed);
        resolve_now = true;
      } else {
        if (options_.cache_capacity > 0) {
          stats_->cache_misses.fetch_add(1, std::memory_order_relaxed);
        }
        if (queue_.size() >= options_.queue_limit) {
          stats_->requests_rejected.fetch_add(1, std::memory_order_relaxed);
          immediate.status = ServeStatus::kRejected;
          immediate.min_pts = min_pts;
          resolve_now = true;
        } else {
          queue_.push_back(std::move(req));
          stats_->requests_admitted.fetch_add(1, std::memory_order_relaxed);
          UpdateQueuePeakLocked();
        }
      }
    }
    if (resolve_now) {
      if (hit) immediate.clustering = hit->Expand();  // The waiter's own copy.
      Deliver(req, std::move(immediate));
    } else {
      work_cv_.notify_one();
    }
  }

  // mu_ held. On a hit at the pool's CURRENT generation: fills `out`'s
  // status kOk, from_cache and echo fields, refreshes the entry's LRU
  // position and returns the entry (the caller expands it outside mu_).
  std::shared_ptr<const CompactClustering> LookupCacheLocked(
      size_t min_pts, ServeResult& out) {
    const auto [index, generation] = pool_.SnapshotAndGeneration();
    const CacheKey key{generation, EpsBits(index->epsilon()), min_pts};
    auto it = cache_.find(key);
    if (it == cache_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    out.status = ServeStatus::kOk;
    out.generation = generation;
    out.min_pts = min_pts;
    out.from_cache = true;
    return it->second.result;
  }

  // mu_ held. Inserts/refreshes one entry and LRU-evicts past capacity. The
  // first entry of a newer generation drops every older one; an entry of an
  // older generation than the newest cached one is dead on arrival and is
  // not inserted.
  void InsertCacheLocked(uint64_t generation, uint64_t eps_bits,
                         size_t min_pts,
                         std::shared_ptr<const CompactClustering> result) {
    if (generation < cache_generation_) return;
    if (generation > cache_generation_) {
      cache_generation_ = generation;
      for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->generation < generation) {
          cache_.erase(*it);
          it = lru_.erase(it);
        } else {
          ++it;
        }
      }
    }
    const CacheKey key{generation, eps_bits, min_pts};
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      it->second.result = std::move(result);
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return;
    }
    lru_.push_front(key);
    cache_.emplace(key, CacheEntry{std::move(result), lru_.begin()});
    while (cache_.size() > options_.cache_capacity) {
      cache_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  void UpdateQueuePeakLocked() {
    telemetry::AtomicMax(stats_->queue_depth_peak, queue_.size());
  }

  // mu_ held: moves every queued request whose deadline has passed into
  // `out`, preserving arrival order among survivors.
  void ExtractExpiredLocked(std::vector<Request>& out) {
    const uint64_t now = clock_->NowNanos();
    for (size_t i = 0; i < queue_.size();) {
      if (queue_[i].deadline_nanos != kNeverNanos &&
          queue_[i].deadline_nanos <= now) {
        out.push_back(std::move(queue_[i]));
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  // mu_ held: claims the coalescing window — the whole queue, or just the
  // front request with coalescing off.
  void ClaimBatchLocked(std::vector<Request>& batch) {
    if (queue_.empty()) return;
    const size_t take = options_.coalescing ? queue_.size() : 1;
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }

  void ResolveExpired(std::vector<Request>& expired) {
    for (Request& r : expired) {
      stats_->requests_timed_out.fetch_add(1, std::memory_order_relaxed);
      ServeResult result;
      result.status = ServeStatus::kTimedOut;
      result.min_pts = r.min_pts;
      Deliver(r, std::move(result));
    }
  }

  // Executes one claimed batch: pin one lease (one snapshot, one
  // generation) for everyone, answer all distinct min_pts with a single
  // Sweep, publish to the cache, deliver per-waiter copies. Deadlines are
  // re-checked at delivery — an execution that outlives a request's
  // deadline resolves it kTimedOut even though the work ran.
  void ExecuteBatch(std::vector<Request>& batch) {
    if (options_.on_batch_claimed) options_.on_batch_claimed(batch.size());

    const bool tracing = telemetry::TraceEnabled();
    const uint64_t execute_start = clock_->NowNanos();
    // The queue wait of every traced request ends here, at batch claim.
    // Recorded manually (the interval straddles the admitting thread and
    // this executor), parented to the request's own root span. The
    // executor's working spans below adopt the FIRST traced request's
    // context — a coalesced batch does one sweep, so it can only be
    // attributed to one trace.
    uint64_t batch_trace = 0;
    uint64_t batch_parent = 0;
    if (tracing) {
      const uint64_t now_steady = telemetry::NowNanos();
      for (const Request& r : batch) {
        if (r.trace_id == 0) continue;
        telemetry::RecordSpan("queue_wait", r.trace_id, r.parent_span_id,
                              r.admit_steady_nanos, now_steady);
        if (batch_trace == 0) {
          batch_trace = r.trace_id;
          batch_parent = r.parent_span_id;
        }
      }
    }
    for (const Request& r : batch) {
      histograms_.queue_wait_nanos.Record(execute_start -
                                          r.admit_clock_nanos);
    }
    telemetry::ScopedTraceContext trace_ctx(batch_trace, batch_parent);

    typename EnginePool<D>::Lease lease = [&]() {
      telemetry::TraceSpan span("lease_acquire");
      return pool_.AcquireLease();
    }();
    const uint64_t generation = lease.generation();
    const uint64_t eps_bits = EpsBits(lease.index()->epsilon());

    std::vector<size_t> distinct;
    distinct.reserve(batch.size());
    for (const Request& r : batch) distinct.push_back(r.min_pts);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    std::vector<Clustering> swept = [&]() {
      telemetry::TraceSpan span("coalesced_sweep");
      return lease.Sweep(distinct);
    }();
    lease = typename EnginePool<D>::Lease();  // Free the context promptly.
    histograms_.execute_nanos.Record(clock_->NowNanos() - execute_start);

    if (options_.cache_capacity > 0) {
      std::vector<std::shared_ptr<const CompactClustering>> compact(
          distinct.size());
      for (size_t i = 0; i < distinct.size(); ++i) {
        std::optional<CompactClustering> c =
            CompactClustering::Compress(swept[i]);
        if (c) {
          compact[i] = std::make_shared<const CompactClustering>(std::move(*c));
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < distinct.size(); ++i) {
        if (compact[i]) {
          InsertCacheLocked(generation, eps_bits, distinct[i],
                            std::move(compact[i]));
        }
      }
    }
    if (batch.size() > 1) {
      stats_->requests_coalesced.fetch_add(batch.size() - 1,
                                           std::memory_order_relaxed);
    }

    const uint64_t now = clock_->NowNanos();
    for (Request& r : batch) {
      ServeResult result;
      {
        // The copy is this waiter's own work: it is traced under the
        // waiter's request, and its span closes before the waiter wakes.
        telemetry::ScopedTraceContext waiter_ctx(r.trace_id,
                                                 r.parent_span_id);
        telemetry::TraceSpan span("result_copy");
        result.min_pts = r.min_pts;
        if (r.deadline_nanos != kNeverNanos && r.deadline_nanos <= now) {
          stats_->requests_timed_out.fetch_add(1, std::memory_order_relaxed);
          result.status = ServeStatus::kTimedOut;
        } else {
          result.status = ServeStatus::kOk;
          const size_t i = static_cast<size_t>(
              std::lower_bound(distinct.begin(), distinct.end(), r.min_pts) -
              distinct.begin());
          result.clustering = swept[i];  // Waiter's own copy.
          result.generation = generation;
          result.coalesced = batch.size() > 1;
        }
      }
      Deliver(r, std::move(result));
    }
  }

  // Resolves one request exactly once (without scheduler locks held).
  void Deliver(Request& req, ServeResult&& result) {
    if (req.admit_clock_nanos != 0) {
      const uint64_t latency = clock_->NowNanos() - req.admit_clock_nanos;
      if (result.status == ServeStatus::kOk) {
        histograms_.request_nanos.Record(latency);
      }
      if (latency >= options_.slow_query_nanos) LogSlowQuery(req, latency);
    }
    req.promise.set_value(std::move(result));
  }

  void LogSlowQuery(const Request& req, uint64_t latency_nanos) {
    char head[160];
    std::snprintf(head, sizeof(head),
                  "slow query: min_pts=%zu latency_ms=%.3f trace_id=%llu\n",
                  req.min_pts, static_cast<double>(latency_nanos) / 1e6,
                  static_cast<unsigned long long>(req.trace_id));
    std::string msg = head;
    if (req.trace_id != 0) {
      const std::vector<telemetry::SpanRecord> spans =
          telemetry::GlobalTraceRing().CollectTrace(req.trace_id);
      if (!spans.empty()) msg += telemetry::FormatSpanTree(spans);
    }
    if (options_.slow_query_sink) {
      options_.slow_query_sink(msg);
    } else {
      std::fputs(msg.c_str(), stderr);
    }
  }

  void ExecutorLoop() {
    for (;;) {
      std::vector<Request> expired;
      std::vector<Request> batch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
          ExtractExpiredLocked(expired);
          if (!expired.empty() || stopped_) break;
          if (!queue_.empty()) {
            ClaimBatchLocked(batch);
            break;
          }
          // Idle executors park only on an empty queue, so no queued
          // deadline can pass unseen; Admit and Shutdown notify.
          work_cv_.wait(lock);
        }
        if (stopped_ && expired.empty() && batch.empty()) return;
      }
      ResolveExpired(expired);
      if (!batch.empty()) ExecuteBatch(batch);
    }
  }

  EnginePool<D>& pool_;
  const ServingOptions options_;
  Clock* clock_;
  dbscan::PipelineStats own_stats_;
  dbscan::PipelineStats* stats_;
  ServingHistograms histograms_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool stopped_ = false;
  std::deque<Request> queue_;
  std::list<CacheKey> lru_;  // Front = most recently used.
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  uint64_t cache_generation_ = 0;  // Newest generation ever cached.
  std::vector<std::thread> executors_;
};

}  // namespace pdbscan::parallel

#endif  // PDBSCAN_PARALLEL_SERVING_SCHEDULER_H_
