// Concurrent serving contract: N client threads hammering one frozen
// CellIndex through an EnginePool produce clusterings bit-identical to
// serial one-shot Dbscan calls, per-context stats aggregate to exact sums,
// and a streaming writer swapping snapshots under live readers never tears
// a result. Runs under -DPDBSCAN_SANITIZE=thread in CI (the tsan job),
// which is what actually enforces "immutable index + private workspaces =
// no races".
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dbscan/cell_index.h"
#include "dbscan/stats.h"
#include "parallel/engine_pool.h"
#include "parallel/scheduler.h"
#include "pdbscan/pdbscan.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

using geometry::Point;
using pdbscan::testing::BlobPoints;
using pdbscan::testing::ExpectIdentical;
using pdbscan::testing::Identical;

constexpr size_t kClients = 8;
constexpr size_t kRoundsPerClient = 3;

// --- Bit-identical results under concurrent clients ------------------------

TEST(ConcurrentPool, ClientsMatchSerialDbscanBitForBit) {
  const auto pts = BlobPoints<2>(2500, 5, 40.0, 1.0, 7);
  const double eps = 1.2;
  const std::vector<size_t> minpts_list = {3, 5, 10, 25, 60};
  const size_t cap = 60;
  // Cover the scan and quadtree range-count paths plus the box cell source.
  for (const auto& options :
       {Our2dGridBcp(), Our2dBoxBcp(), OurExactQt(),
        WithBucketing(Our2dGridUsec())}) {
    // Expected results, computed serially before any concurrency.
    std::vector<Clustering> expected;
    for (const size_t m : minpts_list) {
      expected.push_back(Dbscan<2>(pts, eps, m, options));
    }

    auto index = CellIndex<2>::Build(pts, eps, cap, options);
    EnginePool<2> pool(index);
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t]() {
        for (size_t r = 0; r < kRoundsPerClient; ++r) {
          const size_t which = (t + r) % minpts_list.size();
          const Clustering got = pool.Run(minpts_list[which]);
          ExpectIdentical(expected[which], got,
                          options.Name() + " client=" + std::to_string(t) +
                              " minpts=" +
                              std::to_string(minpts_list[which]));
        }
      });
    }
    for (auto& c : clients) c.join();
  }
}

TEST(ConcurrentPool, InnerParallelismComposesWithClientConcurrency) {
  // 2 scheduler workers + concurrent clients: queries submit parallel work
  // to the shared scheduler from many threads at once.
  parallel::ScopedNumWorkers scoped(2);
  const auto pts = BlobPoints<2>(2000, 4, 30.0, 1.0, 13);
  const double eps = 1.0;
  const std::vector<size_t> minpts_list = {4, 8, 20};
  std::vector<Clustering> expected;
  for (const size_t m : minpts_list) {
    expected.push_back(Dbscan<2>(pts, eps, m));
  }
  EnginePool<2> pool(std::span<const Point2>(pts), eps, /*counts_cap=*/20);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (size_t r = 0; r < kRoundsPerClient; ++r) {
        const size_t which = (t * kRoundsPerClient + r) % minpts_list.size();
        ExpectIdentical(expected[which], pool.Run(minpts_list[which]),
                        "workers=2 client=" + std::to_string(t));
      }
    });
  }
  for (auto& c : clients) c.join();
}

TEST(ConcurrentPool, ConcurrentSweepsMatchSerial) {
  const auto pts = BlobPoints<2>(1500, 4, 25.0, 1.0, 17);
  const double eps = 1.1;
  const std::vector<size_t> minpts_list = {3, 6, 12};
  std::vector<Clustering> expected;
  for (const size_t m : minpts_list) {
    expected.push_back(Dbscan<2>(pts, eps, m));
  }
  EnginePool<2> pool(std::span<const Point2>(pts), eps, /*counts_cap=*/12);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&]() {
      const auto sweep = pool.Sweep(minpts_list);
      ASSERT_EQ(sweep.size(), minpts_list.size());
      for (size_t i = 0; i < sweep.size(); ++i) {
        ExpectIdentical(expected[i], sweep[i], "concurrent sweep");
      }
    });
  }
  for (auto& c : clients) c.join();
}

// --- Stats aggregation ------------------------------------------------------

TEST(ConcurrentPool, StatsSumExactlyAcrossContexts) {
  const auto pts = BlobPoints<2>(1200, 3, 20.0, 1.0, 19);
  EnginePool<2> pool(std::span<const Point2>(pts), /*epsilon=*/1.0,
                     /*counts_cap=*/30);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&]() {
      for (size_t r = 0; r < kRoundsPerClient; ++r) {
        (void)pool.Run(5 + r);
      }
    });
  }
  for (auto& c : clients) c.join();

  dbscan::PipelineStats agg;
  pool.AggregateStats(agg);
  // The pool built its index exactly once, no matter how many clients ran.
  EXPECT_EQ(agg.cells_built.load(), 1u);
  EXPECT_EQ(agg.counts_built.load(), 1u);  // The index build's MarkCore pass.
  // Every query was answered from the shared saturated counts.
  EXPECT_EQ(agg.counts_reused.load(), kClients * kRoundsPerClient);
  EXPECT_EQ(agg.cells_reused.load(), 0u);
  // Contexts only multiply up to observed concurrency, never per query.
  EXPECT_GE(pool.contexts_created(), 1u);
  EXPECT_LE(pool.contexts_created(), kClients);
  // Aggregation is a sum, not a snapshot of one context: re-aggregating
  // doubles the counters in the caller's sink.
  pool.AggregateStats(agg);
  EXPECT_EQ(agg.counts_reused.load(), 2 * kClients * kRoundsPerClient);
}

// The serving scheduler's admission counters obey their stated invariants
// EXACTLY once traffic quiesces — not approximately, not "eventually":
// admitted + rejected == submits, cache lookups cover every admission
// decision, and every admitted request resolved kOk here (no deadlines, no
// overload). Runs under TSan in CI like the rest of this suite.
TEST(ConcurrentPool, ServingStatsSumExactly) {
  const auto pts = BlobPoints<2>(1200, 3, 20.0, 1.0, 19);
  EnginePool<2> pool(std::span<const Point2>(pts), /*epsilon=*/1.0,
                     /*counts_cap=*/30);
  parallel::ServingOptions opts;
  opts.queue_limit = 10000;
  opts.default_timeout_nanos = parallel::kNeverNanos;
  opts.cache_capacity = 16;
  opts.num_executors = 2;
  ServingScheduler<2> scheduler(pool, opts);

  std::atomic<size_t> ok{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (size_t r = 0; r < kRoundsPerClient; ++r) {
        if (scheduler.Submit(5 + (t + r) % 3).status == ServeStatus::kOk) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  scheduler.Shutdown();

  const auto& s = scheduler.serving_stats();
  const size_t submits = kClients * kRoundsPerClient;
  EXPECT_EQ(ok.load(), submits);
  EXPECT_EQ(s.requests_admitted.load() + s.requests_rejected.load(), submits);
  EXPECT_EQ(s.requests_rejected.load(), 0u);
  EXPECT_EQ(s.requests_timed_out.load(), 0u);
  EXPECT_EQ(s.cache_hits.load() + s.cache_misses.load(), submits);
  EXPECT_LE(s.requests_coalesced.load(), submits);
  EXPECT_LE(s.queue_depth_peak.load(), kClients);

  // AggregateStats stacks the scheduler's counters on the pool's (build +
  // per-context): the serving sums survive aggregation unchanged.
  dbscan::PipelineStats agg;
  scheduler.AggregateStats(agg);
  EXPECT_EQ(agg.requests_admitted.load(), s.requests_admitted.load());
  EXPECT_EQ(agg.cells_built.load(), 1u);
  // Executions = cache misses that reached a sweep; with coalescing each
  // batch pays exactly one counts load, so the pool-side counter can never
  // exceed the miss count.
  EXPECT_LE(agg.counts_reused.load(), s.cache_misses.load());
}

TEST(ConcurrentPool, OverCapQueriesRecountPrivatelyAndStayIdentical) {
  const auto pts = BlobPoints<2>(1000, 3, 18.0, 1.0, 23);
  const double eps = 1.0;
  const size_t cap = 8;
  const size_t over_cap_minpts = 25;  // > cap: forces a per-context recount.
  const Clustering expected = Dbscan<2>(pts, eps, over_cap_minpts);
  const Clustering expected_under = Dbscan<2>(pts, eps, 4);

  EnginePool<2> pool(std::span<const Point2>(pts), eps, cap);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      if (t % 2 == 0) {
        ExpectIdentical(expected, pool.Run(over_cap_minpts), "over cap");
      } else {
        ExpectIdentical(expected_under, pool.Run(4), "under cap");
      }
    });
  }
  for (auto& c : clients) c.join();

  dbscan::PipelineStats agg;
  pool.AggregateStats(agg);
  // The index build counted once; every over-cap query recounted privately,
  // and every under-cap query read the shared counts.
  EXPECT_EQ(agg.counts_built.load(), 1u + kClients / 2);
  EXPECT_EQ(agg.counts_reused.load(), kClients / 2);
}

TEST(ConcurrentPool, EveryOverCapQueryRecounts) {
  const auto pts = BlobPoints<2>(800, 3, 16.0, 1.0, 37);
  const double eps = 1.0;
  auto index = CellIndex<2>::Build(pts, eps, /*counts_cap=*/5);
  const Clustering expected = Dbscan<2>(pts, eps, 20);
  dbscan::PipelineStats stats;
  QueryContext<2> ctx(&stats);
  // A context keeps no recount across calls: the same over-cap setting
  // twice, then a lower one still above the cap, recount each time.
  ExpectIdentical(expected, ctx.Run(*index, 20), "first over-cap");
  ExpectIdentical(expected, ctx.Run(*index, 20), "second over-cap");
  EXPECT_EQ(stats.counts_built.load(), 2u);
  ExpectIdentical(Dbscan<2>(pts, eps, 10), ctx.Run(*index, 10),
                  "lower over-cap");
  EXPECT_EQ(stats.counts_built.load(), 3u);
  EXPECT_EQ(stats.counts_reused.load(), 0u);
  // In-cap queries between them read the index's counts.
  ExpectIdentical(Dbscan<2>(pts, eps, 5), ctx.Run(*index, 5), "in cap");
  EXPECT_EQ(stats.counts_built.load(), 3u);
  EXPECT_EQ(stats.counts_reused.load(), 1u);
  // A sweep with settings above the cap recounts once, at its maximum.
  const std::vector<Clustering> swept = ctx.Sweep(*index, {20, 3, 10});
  ExpectIdentical(expected, swept[0], "sweep over-cap");
  EXPECT_EQ(stats.counts_built.load(), 4u);

  // Through a pool, one context serves both queries and recounts twice.
  EnginePool<2> pool(index);
  ExpectIdentical(expected, pool.Run(20), "pool over-cap");
  ExpectIdentical(expected, pool.Run(20), "pool over-cap again");
  dbscan::PipelineStats agg;
  pool.AggregateStats(agg);
  EXPECT_EQ(pool.contexts_created(), 1u);
  EXPECT_EQ(agg.counts_built.load(), 2u);
  EXPECT_EQ(agg.counts_reused.load(), 0u);
}

// A retired snapshot lives exactly as long as the leases that pin it: no
// context keeps a reference to an index across queries.
TEST(ConcurrentPool, RetiredSnapshotIsFreedOnceNoLeasePinsIt) {
  const auto pts = BlobPoints<2>(600, 3, 16.0, 1.0, 41);
  const double eps = 1.0;
  auto v1 = CellIndex<2>::Build(pts, eps, /*counts_cap=*/5);
  const std::weak_ptr<const CellIndex<2>> weak_v1 = v1;
  EnginePool<2> pool(v1);
  ExpectIdentical(Dbscan<2>(pts, eps, 4), pool.Run(4), "in cap on v1");
  ExpectIdentical(Dbscan<2>(pts, eps, 12), pool.Run(12), "over cap on v1");

  {
    EnginePool<2>::Lease lease = pool.AcquireLease();
    ASSERT_EQ(lease.index(), v1);
    pool.ReplaceIndex(CellIndex<2>::Build(pts, eps * 2, /*counts_cap=*/5));
    v1.reset();
    EXPECT_FALSE(weak_v1.expired());  // The lease still pins v1.
    ExpectIdentical(Dbscan<2>(pts, eps, 12), lease.Run(12),
                    "over cap through the pinned lease");
  }
  EXPECT_TRUE(weak_v1.expired());
  EXPECT_EQ(pool.contexts_created(), 1u);
  ExpectIdentical(Dbscan<2>(pts, eps * 2, 12), pool.Run(12), "over cap on v2");
}

// --- QueryContext against shared indexes, without a pool -------------------

TEST(ConcurrentPool, BareQueryContextsShareIndexes) {
  const auto pts = BlobPoints<2>(1200, 4, 22.0, 1.0, 29);
  const Clustering expected_a = Dbscan<2>(pts, 0.8, 6);
  const Clustering expected_b = Dbscan<2>(pts, 1.6, 6);
  auto index_a = CellIndex<2>::Build(pts, 0.8, /*counts_cap=*/6);
  auto index_b = CellIndex<2>::Build(pts, 1.6, /*counts_cap=*/6);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t]() {
      // One private context per thread; both epsilon indexes served from it.
      dbscan::PipelineStats stats;
      QueryContext<2> ctx(&stats);
      ExpectIdentical(expected_a, ctx.Run(*index_a, 6),
                      "index_a t=" + std::to_string(t));
      ExpectIdentical(expected_b, ctx.Run(*index_b, 6),
                      "index_b t=" + std::to_string(t));
      EXPECT_EQ(stats.counts_reused.load(), 2u);
    });
  }
  for (auto& c : clients) c.join();
}

// --- Streaming writer under concurrent readers ------------------------------

// One writer thread applies a deterministic sequence of insert/erase
// batches to a StreamingClusterer while kClients reader threads hammer
// leased contexts. Every reader result must be bit-identical to the
// expected clustering of SOME published version (snapshots are atomic:
// batch boundaries only, never a torn state), and the per-context stats
// must sum exactly afterwards. TSan enforces the no-races half.
TEST(ConcurrentPool, StreamingWriterWithConcurrentReaders) {
  const double eps = 1.1;
  const size_t cap = 30;
  const std::vector<size_t> minpts_rotation = {4, 9, 16};
  const size_t kBatches = 6;

  // The batch at step b inserts a fresh 400-point blob chunk and erases the
  // oldest quarter of the live ids (always a prefix, so live ids stay
  // contiguous and the replay below needs no bookkeeping).
  const auto batch_inserts = [&](size_t b) {
    return BlobPoints<2>(400, 3, 20.0, 0.9, 100 + b);
  };

  // Precompute every version's expected answers, serially, via from-scratch
  // one-shot runs on the version's live points.
  std::vector<std::vector<Point<2>>> version_pts;
  {
    StreamingClusterer<2> scratch(eps, cap);
    version_pts.push_back(scratch.LivePoints());
    uint64_t erase_from = 0;
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<uint64_t> del;
      for (uint64_t id = erase_from;
           id < erase_from + scratch.num_points() / 4; ++id) {
        del.push_back(id);
      }
      erase_from += scratch.num_points() / 4;
      scratch.ApplyUpdates(batch_inserts(b), del);
      version_pts.push_back(scratch.LivePoints());
    }
  }
  std::vector<std::vector<Clustering>> expected(version_pts.size());
  for (size_t v = 0; v < version_pts.size(); ++v) {
    for (const size_t m : minpts_rotation) {
      expected[v].push_back(Dbscan<2>(version_pts[v], eps, m));
    }
  }

  StreamingClusterer<2> stream(eps, cap);
  std::thread writer([&]() {
    uint64_t erase_from = 0;
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<uint64_t> del;
      for (uint64_t id = erase_from;
           id < erase_from + stream.num_points() / 4; ++id) {
        del.push_back(id);
      }
      erase_from += stream.num_points() / 4;
      stream.ApplyUpdates(batch_inserts(b), del);
    }
  });

  constexpr size_t kReaderRounds = 6;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (size_t r = 0; r < kReaderRounds; ++r) {
        const size_t which = (t + r) % minpts_rotation.size();
        const Clustering got = stream.Run(minpts_rotation[which]);
        bool matched = false;
        for (size_t v = 0; v < expected.size() && !matched; ++v) {
          matched = Identical(expected[v][which], got);
        }
        EXPECT_TRUE(matched)
            << "reader " << t << " round " << r << " minpts="
            << minpts_rotation[which] << " matched no published version (n="
            << got.size() << ")";
      }
    });
  }
  writer.join();
  for (auto& c : clients) c.join();

  // Final state serves the last version, and the stats sum exactly: every
  // reader query was answered from some snapshot's shared counts.
  ExpectIdentical(expected.back()[0], stream.Run(minpts_rotation[0]),
                  "final version");
  dbscan::PipelineStats agg;
  stream.AggregateStats(agg);
  EXPECT_EQ(agg.counts_reused.load(), kClients * kReaderRounds + 1);
  EXPECT_EQ(agg.counts_built.load(), 0u);  // No over-cap queries.
  EXPECT_EQ(agg.snapshots_published.load(), 1 + kBatches);
  EXPECT_GT(agg.cells_retained.load(), 0u);
}

// --- Validation -------------------------------------------------------------

TEST(ConcurrentPool, InvalidArgumentsThrow) {
  const auto pts = BlobPoints<2>(200, 2, 10.0, 1.0, 31);
  EXPECT_THROW(CellIndex<2>::Build(pts, -1.0, 10), std::invalid_argument);
  EXPECT_THROW(CellIndex<2>::Build(pts, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(EnginePool<2>(nullptr), std::invalid_argument);
  EnginePool<2> pool(std::span<const Point2>(pts), 1.0, 10);
  EXPECT_THROW(pool.Run(0), std::invalid_argument);
  EXPECT_THROW(pool.Sweep({3, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace pdbscan
