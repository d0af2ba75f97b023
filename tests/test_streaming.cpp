// Streaming contract: a DynamicCellIndex maintained through insert/erase
// batches publishes snapshots whose clusterings are SameClustering-equal to
// from-scratch runs on the mutated dataset (with the brute-force oracle as
// final arbiter), rebuilds only the dirty eps-neighborhood of each batch,
// and hands snapshots over to the serving layer without disturbing readers.
#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dbscan/verify.h"
#include "pdbscan/pdbscan.h"
#include "streaming/dynamic_cell_index.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

using dbscan::BruteForceDbscan;
using dbscan::SameClustering;
using geometry::Point;
using pdbscan::testing::BlobPoints;
using pdbscan::testing::ExpectIdentical;
using pdbscan::testing::GenerateShape;
using pdbscan::testing::Shape;

// --- Basic lifecycle --------------------------------------------------------

TEST(Streaming, EmptyIndexServesEmptyClustering) {
  StreamingClusterer<2> stream(1.0, 10);
  const Clustering c = stream.Run(3);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.num_clusters, 0u);
  EXPECT_EQ(stream.num_points(), 0u);
  // Erase-to-empty round-trips back to the empty snapshot.
  const auto pts = GenerateShape<2>(Shape::kBlobs, 120, 7);
  const uint64_t first = stream.Insert(pts);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(stream.num_points(), 120u);
  std::vector<uint64_t> all(pts.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = first + i;
  stream.Erase(all);
  EXPECT_EQ(stream.num_points(), 0u);
  EXPECT_EQ(stream.Run(3).size(), 0u);
}

TEST(Streaming, IdsAreConsecutiveAndStable) {
  StreamingClusterer<2> stream(1.0, 10);
  const auto a = GenerateShape<2>(Shape::kUniform, 40, 1);
  const auto b = GenerateShape<2>(Shape::kUniform, 25, 2);
  const uint64_t first_a = stream.Insert(a);
  const uint64_t first_b = stream.Insert(b);
  EXPECT_EQ(first_a, 0u);
  EXPECT_EQ(first_b, 40u);
  // Erasing from the middle keeps the remaining ids and dataset order.
  stream.Erase(std::vector<uint64_t>{3, 10, 41});
  const auto& ids = stream.LiveIds();
  EXPECT_EQ(ids.size(), 62u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 3u), 0);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 41u), 0);
  // LivePoints follows id order: position of id 4 is 3 (0,1,2,4,...).
  const auto pts = stream.LivePoints();
  EXPECT_EQ(pts[3].x, a[4].x);
}

// --- Incremental vs. from-scratch equivalence -------------------------------

// Randomized batches; every published snapshot must cluster exactly like a
// from-scratch run on the live dataset, with the oracle arbitrating.
TEST(Streaming, RandomizedBatchesMatchRebuildAndOracle) {
  const double eps = 0.9;
  std::mt19937_64 rng(99);
  StreamingClusterer<2> stream(eps, /*counts_cap=*/20);
  std::vector<uint64_t> live;
  const size_t rounds = 8 * pdbscan::testing::SweepBudget();
  for (size_t round = 0; round < rounds; ++round) {
    const auto ins = GenerateShape<2>(
        pdbscan::testing::kAllShapes[round % 5], 40 + rng() % 80, rng());
    std::shuffle(live.begin(), live.end(), rng);
    const size_t erase_n = live.empty() ? 0 : rng() % (2 * live.size() / 3 + 1);
    std::vector<uint64_t> del(live.begin(),
                              live.begin() + static_cast<ptrdiff_t>(erase_n));
    live.erase(live.begin(), live.begin() + static_cast<ptrdiff_t>(erase_n));
    const uint64_t first = stream.ApplyUpdates(ins, del);
    for (size_t i = 0; i < ins.size(); ++i) live.push_back(first + i);

    const auto pts = stream.LivePoints();
    for (const size_t min_pts : {1u, 5u, 12u, 30u}) {  // 30 is over-cap.
      const auto got = stream.Run(min_pts);
      ASSERT_TRUE(SameClustering(Dbscan<2>(pts, eps, min_pts), got))
          << "round=" << round << " minpts=" << min_pts << " n=" << pts.size();
      const auto oracle = BruteForceDbscan<2>(
          std::span<const Point<2>>(pts), eps, min_pts);
      ASSERT_TRUE(SameClustering(oracle, got))
          << "oracle round=" << round << " minpts=" << min_pts;
    }
  }
}

// Pure insert growth and pure erase shrinkage, no mixing.
TEST(Streaming, InsertOnlyAndEraseOnlyPhases) {
  const double eps = 1.2;
  StreamingClusterer<2> stream(eps, 15);
  const auto pts = BlobPoints<2>(600, 4, 25.0, 1.0, 11);
  for (size_t chunk = 0; chunk < 6; ++chunk) {
    stream.Insert(std::span<const Point<2>>(pts.data() + chunk * 100, 100));
    const auto live = stream.LivePoints();
    ASSERT_TRUE(SameClustering(Dbscan<2>(live, eps, 8), stream.Run(8)))
        << "insert chunk=" << chunk;
  }
  for (size_t chunk = 0; chunk < 5; ++chunk) {
    std::vector<uint64_t> del(100);
    for (size_t i = 0; i < 100; ++i) del[i] = chunk * 100 + i;
    stream.Erase(del);
    const auto live = stream.LivePoints();
    ASSERT_TRUE(SameClustering(Dbscan<2>(live, eps, 8), stream.Run(8)))
        << "erase chunk=" << chunk;
  }
  EXPECT_EQ(stream.num_points(), 100u);
}

// A min_pts sweep against a streamed snapshot equals engine sweeps on the
// same data, setting by setting.
TEST(Streaming, SweepMatchesRebuildSweep) {
  const double eps = 1.0;
  StreamingClusterer<2> stream(eps, 40);
  stream.Insert(BlobPoints<2>(900, 5, 22.0, 0.9, 17));
  stream.Erase(std::vector<uint64_t>{5, 50, 500, 899});
  const auto live = stream.LivePoints();
  const std::vector<size_t> settings = {2, 6, 18, 40};
  const auto sweep = stream.Sweep(std::span<const size_t>(settings));
  ASSERT_EQ(sweep.size(), settings.size());
  for (size_t i = 0; i < settings.size(); ++i) {
    ASSERT_TRUE(SameClustering(Dbscan<2>(live, eps, settings[i]), sweep[i]))
        << "sweep minpts=" << settings[i];
  }
}

// --- The dirty-cell invariant ----------------------------------------------

// A small batch into a large dataset must rebuild only the batch's
// eps-neighborhood, retaining (and positionally copying) everything else.
TEST(Streaming, SmallBatchRebuildsOnlyDirtyNeighborhood) {
  const double eps = 0.8;
  StreamingClusterer<2> stream(eps, 20);
  stream.Insert(BlobPoints<2>(4000, 6, 60.0, 1.2, 23));
  const size_t total_cells = stream.num_cells();
  ASSERT_GT(total_cells, 200u);

  // One new point: its cell + eps-neighbors rebuild; in 2D (side =
  // eps/sqrt(2)) the neighborhood is at most the 5x5 block minus the
  // center — 24 cells, corner offsets sit exactly at distance eps — so a
  // one-point batch rebuilds at most 25 cells regardless of dataset size.
  std::vector<Point<2>> one = {{{30.0, 30.0}}};
  stream.Insert(one);
  const auto& after_insert = stream.last_update();
  EXPECT_LE(after_insert.cells_rebuilt, 25u);
  EXPECT_GE(after_insert.cells_retained, total_cells - 25u);
  ASSERT_TRUE(SameClustering(Dbscan<2>(stream.LivePoints(), eps, 10),
                             stream.Run(10)));

  // One erase likewise.
  stream.Erase(std::vector<uint64_t>{0});
  const auto& after_erase = stream.last_update();
  EXPECT_LE(after_erase.cells_rebuilt, 25u);
  ASSERT_TRUE(SameClustering(Dbscan<2>(stream.LivePoints(), eps, 10),
                             stream.Run(10)));

  // Cumulative counters land in the writer's stats sink.
  EXPECT_EQ(stream.update_stats().snapshots_published.load(), 4u);
  EXPECT_GT(stream.update_stats().cells_retained.load(), 0u);

  // Insert B jittered copies and erase the B oldest points, B growing 10x
  // per step: the rebuilt cells track the batch footprint, so they never
  // shrink as B grows and the smallest batch stays well under the total.
  // Every snapshot clusters bit-identically to a from-scratch run.
  std::mt19937_64 rng(7);
  const auto base = stream.LivePoints();
  uint64_t erase_cursor = 1;  // Id 0 is already erased above.
  size_t prev_rebuilt = 0;
  for (const size_t batch : {4u, 40u, 400u}) {
    std::vector<Point<2>> ins(batch);
    for (auto& p : ins) {
      const auto& b = base[rng() % base.size()];
      p = {{b[0] + double(rng() % 100) / 1000.0,
            b[1] + double(rng() % 100) / 1000.0}};
    }
    std::vector<uint64_t> del(batch);
    for (auto& id : del) id = erase_cursor++;
    stream.ApplyUpdates(ins, del);
    const size_t rebuilt = stream.last_update().cells_rebuilt;
    if (batch == 4) EXPECT_LT(rebuilt * 2, total_cells);
    EXPECT_GE(rebuilt, prev_rebuilt) << "batch " << batch;
    prev_rebuilt = rebuilt;
    ExpectIdentical(Dbscan<2>(stream.LivePoints(), eps, 10), stream.Run(10),
                    "batch " + std::to_string(batch));
  }
}

// Emptying a cell entirely must recount the cells that used to neighbor it
// (their eps-neighborhood lost points) — the vanished-cell edge of the
// dirty invariant.
TEST(Streaming, VanishedCellRecountsItsOldNeighbors) {
  const double eps = 1.0;
  // Two adjacent dense columns; erasing one whole column must demote core
  // points in the surviving column.
  std::vector<Point<2>> left, right;
  for (int i = 0; i < 12; ++i) {
    left.push_back({{0.05, 0.05 + i * 0.01}});
    right.push_back({{0.75, 0.05 + i * 0.01}});
  }
  StreamingClusterer<2> stream(eps, 30);
  const uint64_t first_left = stream.Insert(left);
  const uint64_t first_right = stream.Insert(right);
  ASSERT_TRUE(SameClustering(Dbscan<2>(stream.LivePoints(), eps, 20),
                             stream.Run(20)));
  // Erase the whole right-hand cell.
  std::vector<uint64_t> del(right.size());
  for (size_t i = 0; i < del.size(); ++i) del[i] = first_right + i;
  stream.Erase(del);
  (void)first_left;
  const auto live = stream.LivePoints();
  ASSERT_EQ(live.size(), left.size());
  // From-scratch agreement is exactly what fails if the vanished cell's old
  // neighbors kept their stale counts (12 + 12 >= 20 but 12 < 20).
  ASSERT_TRUE(SameClustering(Dbscan<2>(live, eps, 20), stream.Run(20)));
  EXPECT_EQ(stream.Run(20).num_clusters, 0u);
}

// --- Snapshot hand-over ----------------------------------------------------

// Old snapshots stay valid and immutable after further updates: a reader
// holding a pinned snapshot sees its version forever, allocator trims
// included.
TEST(Streaming, PinnedSnapshotsSurviveLaterUpdates) {
  const double eps = 1.0;
  StreamingClusterer<2> stream(eps, 15);
  stream.Insert(BlobPoints<2>(500, 3, 18.0, 0.8, 31));
  const auto snap_v1 = stream.snapshot();
  const auto pts_v1 = stream.LivePoints();
  dbscan::PipelineStats stats;
  dbscan::QueryContext<2> ctx(&stats);
  const Clustering before = ctx.Run(*snap_v1, 6);

  stream.Insert(BlobPoints<2>(300, 2, 18.0, 0.8, 37));
  stream.Erase(std::vector<uint64_t>{1, 2, 3});
  // Enough further batches that the writer trims the allocator twice.
  const uint64_t trims = 2 * streaming::DynamicCellIndex<2>::kTrimEvery;
  for (uint64_t id = 4; id < 4 + trims; ++id) {
    stream.Erase(std::vector<uint64_t>{id});
  }
  // The pinned snapshot still answers identically…
  ExpectIdentical(before, ctx.Run(*snap_v1, 6), "pinned snapshot");
  ASSERT_TRUE(SameClustering(Dbscan<2>(pts_v1, eps, 6), before));
  // …while the stream serves the new state.
  ASSERT_TRUE(SameClustering(Dbscan<2>(stream.LivePoints(), eps, 6),
                             stream.Run(6)));
}

// DynamicCellIndex snapshots plug into a standalone EnginePool via
// ReplaceIndex, and queries via the pool match queries via the stream.
TEST(Streaming, EnginePoolHandOver) {
  const double eps = 1.1;
  streaming::DynamicCellIndex<2> index(eps, 12);
  parallel::EnginePool<2> pool(index.snapshot());
  EXPECT_EQ(pool.Run(3).size(), 0u);

  const auto pts = BlobPoints<2>(800, 4, 20.0, 0.9, 41);
  index.ApplyUpdates(pts, {});
  pool.ReplaceIndex(index.snapshot());
  ExpectIdentical(pool.Run(7), Dbscan<2>(index.LivePoints(), eps, 7),
                  "pool after hand-over (same grid anchoring)");
}

// --- Validation -------------------------------------------------------------

TEST(Streaming, InvalidArgumentsThrow) {
  EXPECT_THROW(StreamingClusterer<2>(-1.0, 10), std::invalid_argument);
  EXPECT_THROW(StreamingClusterer<2>(1.0, 0), std::invalid_argument);
  // Box cells and quadtree range counting are inherently non-incremental.
  EXPECT_THROW(StreamingClusterer<2>(1.0, 10, Our2dBoxBcp()),
               std::invalid_argument);
  EXPECT_THROW(StreamingClusterer<2>(1.0, 10, OurExactQt()),
               std::invalid_argument);

  StreamingClusterer<2> stream(1.0, 10);
  const auto pts = GenerateShape<2>(Shape::kUniform, 20, 3);
  stream.Insert(pts);
  // Unknown and duplicate erase ids reject the whole batch atomically.
  EXPECT_THROW(stream.Erase(std::vector<uint64_t>{99}),
               std::invalid_argument);
  EXPECT_THROW(stream.Erase(std::vector<uint64_t>{1, 1}),
               std::invalid_argument);
  EXPECT_EQ(stream.num_points(), 20u);
  ASSERT_TRUE(SameClustering(Dbscan<2>(stream.LivePoints(), 1.0, 3),
                             stream.Run(3)));
  EXPECT_THROW(stream.Run(0), std::invalid_argument);
}

// The adopted-snapshot constructor rejects mismatched artifacts.
TEST(Streaming, AdoptionConstructorValidates) {
  const auto pts = GenerateShape<2>(Shape::kUniform, 50, 5);
  const auto cells_for = [&](Metric metric) {
    return dbscan::BuildCells<2>(std::span<const Point<2>>(pts), 1.0,
                                 CellMethod::kGrid, metric);
  };
  const auto adopt = [](dbscan::CellStructure<2> cells, size_t num_counts,
                        size_t counts_cap) {
    dbscan::CellIndex<2> index(std::move(cells),
                               std::vector<uint32_t>(num_counts, 1),
                               counts_cap);
  };
  const size_t n = pts.size();
  // Matching artifacts are accepted.
  EXPECT_NO_THROW(adopt(cells_for(Metric::kL2), n, 5));
  // Counts that miss a point.
  EXPECT_THROW(adopt(cells_for(Metric::kL2), n - 1, 5), std::invalid_argument);
  // Cells built for another metric than options.metric (L2 by default).
  EXPECT_THROW(adopt(cells_for(Metric::kL1), n, 5), std::invalid_argument);
  // A zero counts cap answers no min_pts.
  EXPECT_THROW(adopt(cells_for(Metric::kL2), n, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pdbscan
