// Sharded clustering: the ShardPlanner's grid-aligned partition, the
// ShardedCellIndex boundary merge, and the ShardedClusterer serving facade.
// The central contract — sharded builds produce labels bit-identical to
// unsharded runs — is exercised here on adversarial seam geometries
// (clusters spanning 3+ shards, empty shards, all-noise shards, slabs
// thinner than the halo) and across the property-shape generators; the
// broad randomized sweep lives in tests/test_property_sweep.cpp. This
// suite also runs under ThreadSanitizer in CI (concurrent serving against
// a sharded index).
#include <atomic>
#include <cstddef>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/seed_spreader.h"
#include "dbscan/verify.h"
#include "pdbscan/pdbscan.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

using dbscan::BruteForceDbscan;
using dbscan::SameClustering;
using geometry::Point;
using pdbscan::testing::BlobPoints;
using pdbscan::testing::ExpectIdentical;
using pdbscan::testing::GenerateShape;
using pdbscan::testing::Identical;
using pdbscan::testing::Shape;
using sharding::ShardBuildInfo;
using sharding::ShardedCellIndex;
using sharding::ShardPlanner;

// --- ShardPlanner ----------------------------------------------------------

TEST(ShardPlanner, CutsAreLatticeAlignedAndCoverTheDomain) {
  const auto pts = BlobPoints<2>(500, 4, 40.0, 1.0, 7);
  const auto plan = ShardPlanner::Plan<2>(
      std::span<const Point<2>>(pts), /*epsilon=*/1.0, /*shards=*/4);
  ASSERT_EQ(plan.num_shards(), 4u);
  EXPECT_EQ(plan.cuts.front(), 0);
  for (size_t s = 0; s + 1 < plan.cuts.size(); ++s) {
    EXPECT_LT(plan.cuts[s], plan.cuts[s + 1]);  // Every slab >= 1 column.
  }
  // Every point's column falls into the planned range and its shard.
  for (const auto& p : pts) {
    const int64_t col = plan.ColumnOf(p);
    EXPECT_GE(col, plan.cuts.front());
    EXPECT_LT(col, plan.cuts.back());
    const size_t s = plan.ShardOf(col);
    EXPECT_GE(col, plan.cuts[s]);
    EXPECT_LT(col, plan.cuts[s + 1]);
  }
  EXPECT_EQ(plan.halo, 2);  // 1 + floor(sqrt(2)).
}

TEST(ShardPlanner, ClampsShardCountToLatticeColumns) {
  // All points inside a couple of columns: a request for 64 shards must
  // clamp rather than produce empty slab ranges.
  std::vector<Point<2>> pts;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(0.0, 2.0);
  for (int i = 0; i < 100; ++i) pts.push_back({{u(rng), u(rng)}});
  const auto plan = ShardPlanner::Plan<2>(
      std::span<const Point<2>>(pts), /*epsilon=*/1.0, /*shards=*/64);
  EXPECT_GE(plan.num_shards(), 1u);
  EXPECT_LE(plan.num_shards(), 64u);
  for (size_t s = 0; s + 1 < plan.cuts.size(); ++s) {
    EXPECT_LT(plan.cuts[s], plan.cuts[s + 1]);
  }
}

TEST(ShardPlanner, SplitsTheWidestAxis) {
  // 100x wider in y than x: the plan must split along axis 1.
  std::vector<Point<2>> pts;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> narrow(0.0, 1.0), wide(0.0, 100.0);
  for (int i = 0; i < 200; ++i) pts.push_back({{narrow(rng), wide(rng)}});
  const auto plan = ShardPlanner::Plan<2>(
      std::span<const Point<2>>(pts), /*epsilon=*/1.0, /*shards=*/4);
  EXPECT_EQ(plan.axis, 1);
}

TEST(ShardPlanner, RejectsInvalidArguments) {
  const std::vector<Point<2>> pts = {{{0, 0}}, {{1, 1}}};
  EXPECT_THROW(ShardPlanner::Plan<2>(std::span<const Point<2>>(pts), 0.0, 2),
               std::invalid_argument);
  EXPECT_THROW(ShardPlanner::Plan<2>(std::span<const Point<2>>(pts), 1.0, 0),
               std::invalid_argument);
}

// --- ShardedCellIndex: construction contracts ------------------------------

TEST(ShardedCellIndex, RejectsUnsupportedConfigurations) {
  const auto pts = BlobPoints<2>(100, 2, 10.0, 1.0, 5);
  EXPECT_THROW(ShardedCellIndex<2>(pts, 1.0, 10, 2, Our2dBoxBcp()),
               std::invalid_argument);
  EXPECT_THROW(ShardedCellIndex<2>(pts, 1.0, 10, 2, OurExactQt()),
               std::invalid_argument);
  EXPECT_THROW(ShardedCellIndex<2>(pts, 0.0, 10, 2), std::invalid_argument);
  EXPECT_THROW(ShardedCellIndex<2>(pts, 1.0, 0, 2), std::invalid_argument);
  EXPECT_THROW(ShardedCellIndex<2>(pts, 1.0, 10, 0), std::invalid_argument);
}

TEST(ShardedCellIndex, EmptyAndTinyInputs) {
  const std::vector<Point<2>> empty;
  ShardedCellIndex<2> none(empty, 1.0, 10, 4);
  EXPECT_EQ(none.num_points(), 0u);
  EXPECT_EQ(none.num_cells(), 0u);
  dbscan::QueryContext<2> ctx;
  EXPECT_EQ(ctx.Run(*none.index(), 3).size(), 0u);

  const std::vector<Point<2>> one = {{{2.5, 3.5}}};
  ShardedCellIndex<2> single(one, 1.0, 10, 4);
  EXPECT_EQ(single.num_points(), 1u);
  const Clustering c = ctx.Run(*single.index(), 1);
  EXPECT_EQ(c.num_clusters, 1u);  // min_pts = 1: everything is core.
}

TEST(ShardedCellIndex, EveryCellIsInteriorOrBoundaryExactlyOnce) {
  const auto pts = BlobPoints<2>(2000, 6, 60.0, 1.2, 17);
  dbscan::PipelineStats stats;
  ShardedCellIndex<2> sharded(pts, 1.0, 20, 5, Options(), &stats);
  const ShardBuildInfo& info = sharded.build_info();
  EXPECT_EQ(info.interior_cells + info.boundary_cells, sharded.num_cells());
  EXPECT_EQ(stats.shard_interior_cells.load(), info.interior_cells);
  EXPECT_EQ(stats.shard_boundary_cells.load(), info.boundary_cells);
  EXPECT_EQ(stats.shards_built.load(), sharded.num_shards());
  EXPECT_EQ(stats.shard_seam_links.load(), info.seam_links);
  // The boundary set is exactly the cells the plan marks seam-adjacent.
  size_t expected_boundary = 0;
  const auto& cells = sharded.index()->cells();
  for (size_t c = 0; c < cells.num_cells(); ++c) {
    if (sharded.plan().IsBoundary(cells.coords[c][sharded.plan().axis])) {
      ++expected_boundary;
    }
  }
  EXPECT_EQ(info.boundary_cells, expected_boundary);
  // Per-shard sizes sum to the totals.
  size_t sum_points = 0, sum_cells = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    sum_points += info.shard_points[s];
    sum_cells += info.shard_cells[s];
  }
  EXPECT_EQ(sum_points, sharded.num_points());
  EXPECT_EQ(sum_cells, sharded.num_cells());
}

// The merge recounts only the seam: at every shard count the boundary cells
// stay a minority of all cells, and more seams never mean fewer of them.
// 2D SS-varden at eps 300 spans ~450 lattice columns, so even 16 slabs are
// far wider than the halo.
TEST(ShardedCellIndex, SeamStaysSmallAndGrowsWithShardCount) {
  const auto pts = data::SsVarden<2>(5000);
  size_t prev_boundary = 0;
  for (const size_t shards : {1u, 2u, 4u, 8u, 16u}) {
    ShardedCellIndex<2> sharded(pts, 300.0, 100, shards);
    const ShardBuildInfo& info = sharded.build_info();
    EXPECT_LT(info.boundary_cells * 2, sharded.num_cells())
        << shards << " shards";
    EXPECT_GE(info.boundary_cells, prev_boundary) << shards << " shards";
    prev_boundary = info.boundary_cells;
  }
  EXPECT_GT(prev_boundary, 0u);  // The cuts cross populated space.
}

// --- Bit-identity on seam-adversarial geometries ---------------------------

// Builds sharded at `num_shards`, queries at `min_pts`, and expects the
// full result contract to match a one-shot Dbscan run bit for bit.
template <int D>
void ExpectShardedIdentical(const std::vector<Point<D>>& pts, double epsilon,
                            size_t counts_cap, size_t num_shards,
                            size_t min_pts, const std::string& context) {
  const Clustering expected = Dbscan<D>(pts, epsilon, min_pts);
  ShardedCellIndex<D> sharded(pts, epsilon, counts_cap, num_shards);
  dbscan::QueryContext<D> ctx;
  ExpectIdentical(expected, ctx.Run(*sharded.index(), min_pts), context);
}

TEST(ShardedDbscan, ClusterSpanningManyShards) {
  // One dense polyline along x crossing every seam: the cluster must be
  // stitched back together across 6 shards by the boundary merge alone.
  std::vector<Point<2>> pts;
  std::mt19937_64 rng(23);
  std::normal_distribution<double> jitter(0.0, 0.05);
  for (int i = 0; i < 600; ++i) {
    pts.push_back({{i * 0.1, 5.0 + jitter(rng)}});
  }
  // Plus background noise so not everything is one cell row.
  std::uniform_real_distribution<double> u(0.0, 60.0);
  for (int i = 0; i < 200; ++i) pts.push_back({{u(rng), u(rng) / 6}});
  const Clustering expected = Dbscan<2>(pts, 0.5, 4);
  ShardedCellIndex<2> sharded(pts, 0.5, 16, 6);
  ASSERT_GE(sharded.num_shards(), 3u);
  EXPECT_GT(sharded.build_info().seam_links, 0u);
  dbscan::QueryContext<2> ctx;
  const Clustering got = ctx.Run(*sharded.index(), 4);
  ExpectIdentical(expected, got, "spanning cluster");
  // The polyline really is one cluster (sanity of the construction).
  EXPECT_EQ(got.cluster[0], got.cluster[599]);
}

TEST(ShardedDbscan, EmptyShardSlab) {
  // Two far-apart blobs: middle slabs own zero points. The merge must cope
  // with zero-cell shard structures.
  std::vector<Point<2>> pts;
  std::mt19937_64 rng(29);
  std::normal_distribution<double> g(0.0, 0.8);
  for (int i = 0; i < 300; ++i) pts.push_back({{2.0 + g(rng), 2.0 + g(rng)}});
  for (int i = 0; i < 300; ++i) {
    pts.push_back({{58.0 + g(rng), 2.0 + g(rng)}});
  }
  ShardedCellIndex<2> probe(pts, 1.0, 16, 8);
  bool some_shard_empty = false;
  for (const size_t sp : probe.build_info().shard_points) {
    some_shard_empty = some_shard_empty || sp == 0;
  }
  EXPECT_TRUE(some_shard_empty);
  ExpectShardedIdentical<2>(pts, 1.0, 16, 8, 5, "empty shard");
}

TEST(ShardedDbscan, AllNoiseShard) {
  // A dense blob in the first slab, pure sparse noise in the rest: shards
  // whose every point is noise must not perturb the labels.
  std::vector<Point<2>> pts;
  std::mt19937_64 rng(31);
  std::normal_distribution<double> g(0.0, 0.5);
  std::uniform_real_distribution<double> u(20.0, 80.0);
  for (int i = 0; i < 400; ++i) pts.push_back({{3.0 + g(rng), 3.0 + g(rng)}});
  for (int i = 0; i < 60; ++i) pts.push_back({{u(rng), u(rng)}});
  ExpectShardedIdentical<2>(pts, 1.0, 16, 6, 8, "all-noise shard");
}

TEST(ShardedDbscan, SlabsThinnerThanTheHalo) {
  // Many shards over few columns: every cell is a boundary cell and some
  // neighbors live two shards away. Exactness must come entirely from the
  // merged recount.
  const auto pts = BlobPoints<2>(800, 3, 12.0, 0.8, 37);
  ShardedCellIndex<2> probe(pts, 2.0, 16, 6);
  // The halo swallows (nearly) every slab: boundary dominates interior.
  EXPECT_GT(probe.build_info().boundary_cells,
            probe.build_info().interior_cells);
  ExpectShardedIdentical<2>(pts, 2.0, 16, 6, 6, "thin slabs");
}

TEST(ShardedDbscan, OneShardEqualsPlainBuild) {
  const auto pts = BlobPoints<2>(600, 4, 30.0, 1.0, 41);
  const Clustering expected = Dbscan<2>(pts, 1.0, 10);
  ShardedCellIndex<2> sharded(pts, 1.0, 16, 1);
  EXPECT_EQ(sharded.num_shards(), 1u);
  EXPECT_EQ(sharded.build_info().boundary_cells, 0u);
  EXPECT_EQ(sharded.build_info().seam_links, 0u);
  dbscan::QueryContext<2> ctx;
  ExpectIdentical(expected, ctx.Run(*sharded.index(), 10), "one shard");
}

TEST(ShardedDbscan, MinPtsAboveCountsCapRecountsExactly) {
  const auto pts = BlobPoints<2>(700, 3, 25.0, 1.0, 43);
  // counts_cap 4 but min_pts 20: the context's private recount runs over
  // the merged structure (cross-seam adjacency included).
  ExpectShardedIdentical<2>(pts, 1.0, 4, 5, 20, "over-cap recount");
}

TEST(ShardedDbscan, HigherDimensions) {
  {
    const auto pts = BlobPoints<3>(500, 3, 15.0, 0.9, 47);
    ExpectShardedIdentical<3>(pts, 2.0, 16, 4, 6, "3d");
  }
  {
    // d = 5 runs the cross-seam discovery walk over four prefix axes.
    const auto pts = BlobPoints<5>(400, 3, 12.0, 0.9, 53);
    ExpectShardedIdentical<5>(pts, 4.0, 16, 3, 5, "5d");
  }
}

TEST(ShardedDbscan, AllShapesAtRandomShardCounts) {
  std::mt19937_64 rng(59);
  for (const Shape shape : pdbscan::testing::kAllShapes) {
    const auto pts = GenerateShape<2>(shape, 300, rng());
    const size_t shards = 2 + rng() % 6;
    const size_t min_pts = 1 + rng() % 12;
    ExpectShardedIdentical<2>(pts, 1.1, 16, shards, min_pts,
                              "shape=" + std::to_string(int(shape)) +
                                  " shards=" + std::to_string(shards));
  }
}

TEST(ShardedDbscan, MatchesBruteForceOracle) {
  const auto pts = BlobPoints<2>(300, 3, 15.0, 0.8, 61);
  const auto oracle =
      BruteForceDbscan<2>(std::span<const Point<2>>(pts), 1.0, 6);
  ShardedCellIndex<2> sharded(pts, 1.0, 16, 4);
  dbscan::QueryContext<2> ctx;
  EXPECT_TRUE(SameClustering(oracle, ctx.Run(*sharded.index(), 6)));
}

// --- Serving: EnginePool lease + ShardedClusterer facade -------------------

TEST(ShardedServing, EnginePoolLeasesAgainstShardedIndex) {
  const auto pts = BlobPoints<2>(800, 4, 30.0, 1.0, 67);
  const Clustering expected = Dbscan<2>(pts, 1.0, 10);
  ShardedCellIndex<2> sharded(pts, 1.0, 100, 4);
  parallel::EnginePool<2> pool(sharded);  // The sharded-lease constructor.
  ExpectIdentical(expected, pool.Run(10), "pool over sharded index");
  const auto sweep = pool.Sweep({5, 10, 50});
  ASSERT_EQ(sweep.size(), 3u);
  ExpectIdentical(Dbscan<2>(pts, 1.0, 5), sweep[0], "sweep[0]");
  ExpectIdentical(expected, sweep[1], "sweep[1]");
  ExpectIdentical(Dbscan<2>(pts, 1.0, 50), sweep[2], "sweep[2]");
}

TEST(ShardedServing, FacadeRunAndSweepMatchEngine) {
  const auto pts = BlobPoints<2>(700, 4, 25.0, 1.0, 71);
  ShardedClusterer<2> sharded(pts, 1.0, 100, 5);
  dbscan::DbscanEngine<2> engine;
  engine.SetPoints(pts);
  const auto want = engine.Sweep(1.0, {4, 12, 40});
  const auto got = sharded.Sweep({4, 12, 40});
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectIdentical(want[i], got[i], "facade sweep " + std::to_string(i));
  }
  dbscan::PipelineStats agg;
  sharded.AggregateStats(agg);
  EXPECT_EQ(agg.shards_built.load(), sharded.num_shards());
  EXPECT_EQ(agg.cells_built.load(), 1u);  // One merged build, ever.
}

TEST(ShardedServing, ConcurrentClientsBitIdentical) {
  const auto pts = BlobPoints<2>(1200, 5, 40.0, 1.0, 73);
  ShardedClusterer<2> sharded(pts, 1.0, 50, 4);
  const Clustering expected = Dbscan<2>(pts, 1.0, 10);
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&]() {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        if (!Identical(expected, sharded.Run(10))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace pdbscan
