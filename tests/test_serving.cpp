// Serving-scheduler contract, driven deterministically: every test that
// exercises a timing behavior (deadline expiry, queue overflow windows,
// coalescing batches) runs on a FakeClock in manual pump mode — the test
// IS the executor, time moves only when the test says so, and there is
// not a single real sleep in an assertion path. The threaded
// tests at the bottom (the TSan hammer) use the real clock with no
// deadlines, so they assert ordering-independent invariants only.
//
// The load-bearing property throughout: every kOk ServeResult is
// bit-identical to a solo EnginePool::Run / one-shot Dbscan at the
// generation the result reports — coalesced, cached, and raced responses
// included.
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dbscan/cell_index.h"
#include "dbscan/stats.h"
#include "parallel/engine_pool.h"
#include "parallel/scheduler.h"
#include "parallel/serving_clock.h"
#include "parallel/serving_scheduler.h"
#include "pdbscan/pdbscan.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

using parallel::FakeClock;
using parallel::MillisToNanos;
using parallel::kNeverNanos;
using pdbscan::testing::BlobPoints;
using pdbscan::testing::ExpectIdentical;

// The shared workload: small enough that a sweep is instant, structured
// enough that distinct min_pts give distinct clusterings.
std::vector<Point2> ServingPoints(uint64_t seed = 11) {
  return BlobPoints<2>(600, 4, 30.0, 1.0, seed);
}

constexpr double kEps = 1.3;
constexpr size_t kCap = 64;

// A manual-pump scheduler over a fresh pool, everything on one FakeClock.
struct Harness {
  explicit Harness(parallel::ServingOptions opts = {},
                   uint64_t points_seed = 11)
      : pts(ServingPoints(points_seed)),
        index(dbscan::CellIndex<2>::Build(pts, kEps, kCap)),
        pool(index) {
    opts.num_executors = 0;  // The test pumps.
    opts.clock = &clock;
    scheduler.emplace(pool, opts);
  }

  Clustering Expected(size_t min_pts) const {
    dbscan::PipelineStats sink;
    dbscan::QueryContext<2> ctx(&sink);
    return ctx.Run(*index, min_pts);
  }

  const dbscan::PipelineStats& stats() const {
    return scheduler->serving_stats();
  }

  std::vector<Point2> pts;
  std::shared_ptr<const dbscan::CellIndex<2>> index;
  FakeClock clock;
  EnginePool<2> pool;
  std::optional<ServingScheduler<2>> scheduler;
};

// --- Admission ---------------------------------------------------------------

TEST(ServingAdmission, RejectsNewWhenQueueFull) {
  parallel::ServingOptions opts;
  opts.queue_limit = 2;
  opts.cache_capacity = 0;
  Harness h(opts);

  auto f1 = h.scheduler->SubmitAsync(3);
  auto f2 = h.scheduler->SubmitAsync(5);
  auto f3 = h.scheduler->SubmitAsync(10);  // Queue full: refused on the spot.

  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ServeResult rejected = f3.get();
  EXPECT_EQ(rejected.status, ServeStatus::kRejected);
  EXPECT_EQ(rejected.min_pts, 10u);
  EXPECT_EQ(h.stats().requests_admitted.load(), 2u);
  EXPECT_EQ(h.stats().requests_rejected.load(), 1u);
  EXPECT_EQ(h.stats().queue_depth_peak.load(), 2u);

  EXPECT_EQ(h.scheduler->Pump(), 2u);
  const ServeResult r1 = f1.get();
  const ServeResult r2 = f2.get();
  ASSERT_EQ(r1.status, ServeStatus::kOk);
  ASSERT_EQ(r2.status, ServeStatus::kOk);
  ExpectIdentical(h.Expected(3), r1.clustering, "admitted min_pts=3");
  ExpectIdentical(h.Expected(5), r2.clustering, "admitted min_pts=5");
}

TEST(ServingAdmission, InvalidMinPtsThrowsInsteadOfQueueing) {
  Harness h;
  EXPECT_THROW(h.scheduler->SubmitAsync(0), std::invalid_argument);
  EXPECT_EQ(h.stats().requests_admitted.load(), 0u);
  EXPECT_EQ(h.stats().requests_rejected.load(), 0u);
}

// Nothing pumps a manual-pump scheduler behind a blocking Submit, so it
// refuses to wait instead of hanging the caller.
TEST(ServingAdmission, BlockingSubmitThrowsInManualPumpMode) {
  Harness h;
  EXPECT_THROW(h.scheduler->Submit(5), std::logic_error);
  EXPECT_THROW(h.scheduler->Submit(5, MillisToNanos(10)), std::logic_error);
  EXPECT_EQ(h.stats().requests_admitted.load(), 0u);
  EXPECT_EQ(h.scheduler->queue_depth(), 0u);
}

// --- Deadlines (all fake-clock; zero real waits) ----------------------------

TEST(ServingDeadlines, ExpiresWhileQueuedWithoutExecuting) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 0;
  Harness h(opts);

  auto f = h.scheduler->SubmitAsync(5, MillisToNanos(10));
  h.clock.AdvanceMillis(20);  // Deadline passes while the request queues.
  EXPECT_EQ(h.scheduler->Pump(), 1u);

  EXPECT_EQ(f.get().status, ServeStatus::kTimedOut);
  EXPECT_EQ(h.stats().requests_timed_out.load(), 1u);
  // The expiry happened at claim time: no query context was ever touched.
  EXPECT_EQ(h.pool.contexts_created(), 0u);
}

TEST(ServingDeadlines, ExpiresMidExecutionAfterTheWorkRan) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 0;
  // The seam: once the batch is claimed (deadline still ahead), time jumps
  // past it before delivery — the "slow execution" schedule, made exact.
  FakeClock* clock_ptr = nullptr;
  Harness h(opts);
  clock_ptr = &h.clock;
  // Rebuild the scheduler with the hook installed (options are captured at
  // construction).
  parallel::ServingOptions hooked = opts;
  hooked.num_executors = 0;
  hooked.clock = clock_ptr;
  hooked.on_batch_claimed = [clock_ptr](size_t) {
    clock_ptr->AdvanceMillis(50);
  };
  h.scheduler.emplace(h.pool, hooked);

  auto f = h.scheduler->SubmitAsync(5, MillisToNanos(10));
  EXPECT_EQ(h.scheduler->Pump(), 1u);

  EXPECT_EQ(f.get().status, ServeStatus::kTimedOut);
  EXPECT_EQ(h.stats().requests_timed_out.load(), 1u);
  // Unlike queued expiry, the sweep DID run — the deadline was only missed
  // at delivery time.
  EXPECT_EQ(h.pool.contexts_created(), 1u);
}

// A timeout too large to add to the clock's now saturates at "no
// deadline" instead of wrapping around to a deadline in the past.
TEST(ServingDeadlines, HugeTimeoutsSaturateInsteadOfWrapping) {
  EXPECT_EQ(MillisToNanos(UINT64_MAX), kNeverNanos);
  EXPECT_EQ(parallel::SecondsToNanos(UINT64_MAX), kNeverNanos);
  EXPECT_EQ(MillisToNanos(7), 7'000'000u);

  parallel::ServingOptions opts;
  opts.cache_capacity = 0;
  Harness h(opts);
  auto f = h.scheduler->SubmitAsync(5, kNeverNanos - 1);
  h.clock.AdvanceMillis(3'600'000);
  EXPECT_EQ(h.scheduler->Pump(), 1u);
  const ServeResult r = f.get();
  ASSERT_EQ(r.status, ServeStatus::kOk);
  ExpectIdentical(h.Expected(5), r.clustering, "huge timeout");
  EXPECT_EQ(h.stats().requests_timed_out.load(), 0u);
}

// --- Coalescing -------------------------------------------------------------

TEST(ServingCoalescing, OneBatchedSweepAnswersEveryWaiterBitIdentically) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 0;
  Harness h(opts);

  const std::vector<size_t> minpts = {3, 5, 5, 10, 3, 25};
  std::vector<std::future<ServeResult>> futures;
  for (const size_t m : minpts) futures.push_back(h.scheduler->SubmitAsync(m));

  // One pump, one lease, one Sweep over the 4 distinct settings.
  EXPECT_EQ(h.scheduler->Pump(), minpts.size());

  for (size_t i = 0; i < minpts.size(); ++i) {
    ServeResult r = futures[i].get();
    ASSERT_EQ(r.status, ServeStatus::kOk) << "request " << i;
    EXPECT_TRUE(r.coalesced);
    EXPECT_FALSE(r.from_cache);
    EXPECT_EQ(r.generation, 1u);
    EXPECT_EQ(r.min_pts, minpts[i]);
    ExpectIdentical(h.Expected(minpts[i]), r.clustering,
                    "coalesced min_pts=" + std::to_string(minpts[i]));
  }
  EXPECT_EQ(h.stats().requests_admitted.load(), minpts.size());
  EXPECT_EQ(h.stats().requests_coalesced.load(), minpts.size() - 1);
  // The whole batch consumed exactly one sweep through one context: the
  // shared saturated counts were loaded once, not once per client.
  dbscan::PipelineStats agg;
  h.pool.AggregateStats(agg);
  EXPECT_EQ(agg.counts_reused.load(), 1u);
  EXPECT_EQ(h.pool.contexts_created(), 1u);
}

TEST(ServingCoalescing, DisabledExecutesOneRequestPerPump) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 0;
  opts.coalescing = false;
  Harness h(opts);

  auto f1 = h.scheduler->SubmitAsync(3);
  auto f2 = h.scheduler->SubmitAsync(10);
  EXPECT_EQ(h.scheduler->Pump(), 1u);  // Only the front request.
  EXPECT_EQ(h.scheduler->Pump(), 1u);
  EXPECT_EQ(h.scheduler->Pump(), 0u);  // Queue drained.

  for (auto* f : {&f1, &f2}) {
    const ServeResult r = f->get();
    ASSERT_EQ(r.status, ServeStatus::kOk);
    EXPECT_FALSE(r.coalesced);
  }
  EXPECT_EQ(h.stats().requests_coalesced.load(), 0u);
  // Two separate executions paid two sweeps.
  dbscan::PipelineStats agg;
  h.pool.AggregateStats(agg);
  EXPECT_EQ(agg.counts_reused.load(), 2u);
}

// --- Result cache -----------------------------------------------------------

TEST(ServingCache, HitsAreImmediateAndInvalidatedByReplaceIndex) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 8;
  Harness h(opts);

  auto f1 = h.scheduler->SubmitAsync(5);
  EXPECT_EQ(h.stats().cache_misses.load(), 1u);
  EXPECT_EQ(h.scheduler->Pump(), 1u);
  const ServeResult first = f1.get();
  ASSERT_EQ(first.status, ServeStatus::kOk);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(first.generation, 1u);

  // Same (generation, eps, min_pts): answered at admission, no pump needed.
  auto f2 = h.scheduler->SubmitAsync(5);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ServeResult hit = f2.get();
  ASSERT_EQ(hit.status, ServeStatus::kOk);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.generation, 1u);
  ExpectIdentical(first.clustering, hit.clustering, "cache hit");
  EXPECT_EQ(h.stats().cache_hits.load(), 1u);

  // A new snapshot bumps the generation: the old entry can never answer
  // again (it stays in the LRU until a newer result is cached).
  const auto pts2 = ServingPoints(/*points_seed=*/99);
  auto index2 = dbscan::CellIndex<2>::Build(pts2, kEps, kCap);
  h.pool.ReplaceIndex(index2);
  EXPECT_EQ(h.pool.generation(), 2u);

  auto f3 = h.scheduler->SubmitAsync(5);
  ASSERT_NE(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(h.stats().cache_misses.load(), 2u);
  EXPECT_EQ(h.scheduler->Pump(), 1u);
  const ServeResult fresh = f3.get();
  ASSERT_EQ(fresh.status, ServeStatus::kOk);
  EXPECT_FALSE(fresh.from_cache);
  EXPECT_EQ(fresh.generation, 2u);
  dbscan::PipelineStats sink;
  dbscan::QueryContext<2> ctx(&sink);
  ExpectIdentical(ctx.Run(*index2, 5), fresh.clustering,
                  "post-replace result answers from the new snapshot");
}

TEST(ServingCache, LruEvictsBeyondCapacity) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 1;
  Harness h(opts);

  auto f1 = h.scheduler->SubmitAsync(3);
  h.scheduler->Pump();
  f1.get();
  auto f2 = h.scheduler->SubmitAsync(5);  // Evicts the min_pts=3 entry.
  h.scheduler->Pump();
  f2.get();

  auto f3 = h.scheduler->SubmitAsync(3);  // Miss again: it was evicted.
  ASSERT_NE(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(h.stats().cache_hits.load(), 0u);
  EXPECT_EQ(h.stats().cache_misses.load(), 3u);
  h.scheduler->Pump();
  EXPECT_EQ(f3.get().status, ServeStatus::kOk);
}

TEST(ServingCache, ANewerGenerationDropsRetiredEntries) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 8;
  Harness h(opts);
  for (size_t m : {3, 4, 5}) {
    auto f = h.scheduler->SubmitAsync(m);
    h.scheduler->Pump();
    ASSERT_EQ(f.get().status, ServeStatus::kOk);
  }
  EXPECT_EQ(h.scheduler->CachedGenerations(),
            (std::vector<uint64_t>{1, 1, 1}));

  h.pool.ReplaceIndex(
      dbscan::CellIndex<2>::Build(ServingPoints(/*points_seed=*/99), kEps,
                                  kCap));
  h.clock.Advance(MillisToNanos(1));
  auto miss = h.scheduler->SubmitAsync(4);
  h.scheduler->Pump();
  const ServeResult r = miss.get();
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_EQ(r.generation, 2u);
  EXPECT_EQ(h.scheduler->CachedGenerations(), (std::vector<uint64_t>{2}));
  EXPECT_EQ(h.stats().cache_misses.load(), 4u);
}

// Hand-built so every membership shape appears: noise, core, a border point
// in one cluster, border points in two and three clusters, and a border
// point whose primary label is not its first membership (not produced by
// the pipeline, but the encoding must not assume it away).
Clustering MixedMembershipClustering() {
  Clustering c;
  c.num_clusters = 4;
  c.cluster = {Clustering::kNoise, 0, 0, 1, 2, 3, 1, Clustering::kNoise};
  c.is_core = {0, 1, 0, 0, 1, 0, 0, 0};
  const std::vector<std::vector<int64_t>> lists = {
      {}, {0}, {0}, {1, 2}, {2}, {0, 1, 3}, {0, 1}, {}};
  c.membership_offsets.push_back(0);
  for (const auto& list : lists) {
    c.membership_ids.insert(c.membership_ids.end(), list.begin(), list.end());
    c.membership_offsets.push_back(c.membership_ids.size());
  }
  return c;
}

TEST(ServingCache, CompactEntriesExpandBitIdentically) {
  const Clustering mixed = MixedMembershipClustering();
  auto compact = parallel::CompactClustering::Compress(mixed);
  ASSERT_TRUE(compact.has_value());
  EXPECT_EQ(compact->extra_points, (std::vector<uint32_t>{3, 5, 6}));
  ExpectIdentical(mixed, compact->Expand(), "mixed memberships");

  // Pipeline clusterings: the serving workload, and two dense clusters
  // joined by one border point within eps of exactly one core of each.
  Harness h;
  for (size_t m : {2, 5, 9, 20}) {
    const Clustering real = h.Expected(m);
    auto c = parallel::CompactClustering::Compress(real);
    ASSERT_TRUE(c.has_value());
    ExpectIdentical(real, c->Expand(), "serving clustering");
  }
  std::vector<Point2> bridge;
  for (double side : {-1.0, 1.0}) {
    const double cx = side < 0 ? 0.0 : 1.8;
    for (auto [dx, dy] : {std::pair{0.0, 0.0}, {0.2, 0.0}, {0.1, 0.05},
                          {0.1, -0.05}, {0.15, 0.0}}) {
      bridge.push_back(Point2{{cx + side * dx, dy}});
    }
  }
  bridge.push_back(Point2{{0.9, 0.0}});  // 0.9 from (0, 0) and (1.8, 0).
  bridge.push_back(Point2{{9.0, 9.0}});  // Noise.
  dbscan::PipelineStats sink;
  dbscan::QueryContext<2> ctx(&sink);
  const Clustering joined =
      ctx.Run(*dbscan::CellIndex<2>::Build(bridge, 1.0, kCap), 4);
  ASSERT_EQ(joined.num_clusters, 2u);
  ASSERT_EQ(joined.memberships(10).size(), 2u);
  EXPECT_EQ(joined.cluster[11], Clustering::kNoise);
  auto compact_joined = parallel::CompactClustering::Compress(joined);
  ASSERT_TRUE(compact_joined.has_value());
  EXPECT_EQ(compact_joined->extra_points, (std::vector<uint32_t>{10}));
  ExpectIdentical(joined, compact_joined->Expand(), "bridge clustering");

  // The empty clustering the pipeline returns for zero points.
  const Clustering empty =
      ctx.Run(*dbscan::CellIndex<2>::Build(std::vector<Point2>{}, 1.0, kCap),
              4);
  ASSERT_EQ(empty.membership_offsets.size(), 1u);
  auto compact_empty = parallel::CompactClustering::Compress(empty);
  ASSERT_TRUE(compact_empty.has_value());
  ExpectIdentical(empty, compact_empty->Expand(), "zero points");

  // Not stored compactly (and so not cached): labels beyond int32, and
  // shapes the pipeline never returns.
  Clustering wide = mixed;
  wide.cluster[1] = int64_t{1} << 31;
  EXPECT_FALSE(parallel::CompactClustering::Compress(wide).has_value());
  EXPECT_FALSE(parallel::CompactClustering::Compress(Clustering{}).has_value());
}

// --- Shutdown ---------------------------------------------------------------

TEST(ServingShutdown, FailsPendingAndRefusesNewRequests) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 0;
  Harness h(opts);

  auto f1 = h.scheduler->SubmitAsync(3);
  auto f2 = h.scheduler->SubmitAsync(5);
  h.scheduler->Shutdown();

  EXPECT_EQ(f1.get().status, ServeStatus::kShutdown);
  EXPECT_EQ(f2.get().status, ServeStatus::kShutdown);

  auto f3 = h.scheduler->SubmitAsync(10);
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().status, ServeStatus::kShutdown);
  EXPECT_EQ(h.scheduler->Pump(), 0u);  // Nothing left, nothing claimed.
}

// --- Threaded hammer (real clock, no deadlines, TSan-checked) ---------------

// 8 clients mixing sync and async submits, a writer swapping snapshots
// underneath, executors coalescing across all of them: every kOk response
// must be bit-identical to a solo run against the generation it reports,
// and the admission counters must sum exactly. Runs under TSan in CI.
TEST(ServingHammer, MixedClientsWithConcurrentWriterStayBitIdentical) {
  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 6;
  constexpr size_t kGenerations = 4;
  const std::vector<size_t> minpts_list = {3, 5, 10, 25};

  // Precompute every (generation, min_pts) truth serially.
  std::vector<std::shared_ptr<const dbscan::CellIndex<2>>> indexes;
  std::map<uint64_t, std::map<size_t, Clustering>> truth;
  for (size_t g = 0; g < kGenerations; ++g) {
    const auto pts = ServingPoints(/*points_seed=*/100 + g);
    indexes.push_back(dbscan::CellIndex<2>::Build(pts, kEps, kCap));
    dbscan::PipelineStats sink;
    dbscan::QueryContext<2> ctx(&sink);
    for (const size_t m : minpts_list) {
      truth[g + 1][m] = ctx.Run(*indexes[g], m);
    }
  }

  EnginePool<2> pool(indexes[0]);
  parallel::ServingOptions opts;
  opts.queue_limit = 10000;                  // Never overloads.
  opts.default_timeout_nanos = kNeverNanos;  // Never expires.
  opts.cache_capacity = 32;
  opts.num_executors = 2;
  ServingScheduler<2> scheduler(pool, opts);

  std::atomic<size_t> ok_count{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      std::mt19937_64 rng(t);
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t m = minpts_list[rng() % minpts_list.size()];
        ServeResult result = (t + r) % 2 == 0
                                 ? scheduler.Submit(m)
                                 : scheduler.SubmitAsync(m).get();
        ASSERT_EQ(result.status, ServeStatus::kOk);
        ASSERT_GE(result.generation, 1u);
        ASSERT_LE(result.generation, kGenerations);
        ExpectIdentical(truth.at(result.generation).at(m), result.clustering,
                        "client " + std::to_string(t) + " gen " +
                            std::to_string(result.generation) + " min_pts " +
                            std::to_string(m));
        ok_count.fetch_add(1);
      }
    });
  }
  std::thread writer([&]() {
    for (size_t g = 1; g < kGenerations; ++g) {
      pool.ReplaceIndex(indexes[g]);
      std::this_thread::yield();  // Pacing only; no assertion depends on it.
    }
  });
  for (auto& c : clients) c.join();
  writer.join();
  scheduler.Shutdown();

  // Exact sums: every submit was admitted and served; cache lookups cover
  // every admission decision.
  const auto& s = scheduler.serving_stats();
  EXPECT_EQ(ok_count.load(), kClients * kRounds);
  EXPECT_EQ(s.requests_admitted.load(), kClients * kRounds);
  EXPECT_EQ(s.requests_rejected.load(), 0u);
  EXPECT_EQ(s.requests_timed_out.load(), 0u);
  EXPECT_EQ(s.cache_hits.load() + s.cache_misses.load(), kClients * kRounds);
  EXPECT_LE(s.requests_coalesced.load(), kClients * kRounds);
  EXPECT_LE(s.queue_depth_peak.load(), kClients);
}

// Overload on the real clock: a 4-deep queue, a real 200 ms deadline and one
// executor behind 8 clients, so rejections and timeouts may fire. Every
// submit resolves as exactly one of ok / rejected / timed out, the counters
// agree with what the clients saw, and every kOk response is bit-identical
// to the solo EnginePool::Run reference. Runs under TSan in CI.
TEST(ServingHammer, OverloadedQueueAccountsForEverySubmit) {
  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 12;
  const std::vector<size_t> minpts_list = {3, 5, 10, 25};

  const auto pts = ServingPoints();
  EnginePool<2> pool(dbscan::CellIndex<2>::Build(pts, kEps, kCap));
  std::map<size_t, Clustering> truth;
  for (const size_t m : minpts_list) truth[m] = pool.Run(m);

  parallel::ServingOptions opts;
  opts.queue_limit = 4;
  opts.default_timeout_nanos = MillisToNanos(200);
  opts.cache_capacity = 0;  // Every admitted request executes.
  opts.num_executors = 1;
  ServingScheduler<2> scheduler(pool, opts);

  std::atomic<size_t> ok{0}, rejected{0}, timed_out{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t m = minpts_list[(t + r) % minpts_list.size()];
        const ServeResult result = scheduler.Submit(m);
        switch (result.status) {
          case ServeStatus::kOk:
            ExpectIdentical(truth.at(m), result.clustering,
                            "client " + std::to_string(t) + " min_pts " +
                                std::to_string(m));
            ok.fetch_add(1);
            break;
          case ServeStatus::kRejected:
            rejected.fetch_add(1);
            break;
          case ServeStatus::kTimedOut:
            timed_out.fetch_add(1);
            break;
          case ServeStatus::kShutdown:
            ADD_FAILURE() << "shutdown before the clients finished";
            break;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  scheduler.Shutdown();

  const auto& s = scheduler.serving_stats();
  // With the cache off every admitted request resolves kOk or kTimedOut.
  EXPECT_EQ(s.requests_admitted.load(), ok.load() + timed_out.load());
  EXPECT_EQ(s.requests_admitted.load() + s.requests_rejected.load(),
            kClients * kRounds);
  EXPECT_EQ(s.requests_rejected.load(), rejected.load());
  EXPECT_EQ(s.requests_timed_out.load(), timed_out.load());
  EXPECT_LE(s.queue_depth_peak.load(), opts.queue_limit);
}

}  // namespace
}  // namespace pdbscan
