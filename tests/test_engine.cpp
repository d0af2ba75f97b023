// DbscanEngine reuse contract: warm-engine runs after parameter changes
// produce labels bit-identical to fresh one-shot Dbscan calls, across
// worker counts and across the grid/box/quadtree variants, and a min_pts
// sweep builds the cell structure exactly once.
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dbscan/engine.h"
#include "dbscan/stats.h"
#include "parallel/scheduler.h"
#include "pdbscan/pdbscan.h"

namespace pdbscan {
namespace {

using geometry::Point;

template <int D>
std::vector<Point<D>> BlobPoints(size_t n, size_t blobs, double side,
                                 double sigma, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, side);
  std::normal_distribution<double> gauss(0.0, sigma);
  std::vector<Point<D>> centers(blobs);
  for (auto& c : centers) {
    for (int k = 0; k < D; ++k) c[k] = coord(rng);
  }
  std::vector<Point<D>> pts(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 10 == 9) {  // 10% noise.
      for (int k = 0; k < D; ++k) pts[i][k] = coord(rng);
    } else {
      const auto& c = centers[i % blobs];
      for (int k = 0; k < D; ++k) pts[i][k] = c[k] + gauss(rng);
    }
  }
  return pts;
}

// Bit-identical comparison of the full result contract (not just the
// partition): cluster ids, core flags, and membership lists.
void ExpectIdentical(const Clustering& expected, const Clustering& got,
                     const std::string& context) {
  EXPECT_EQ(expected.num_clusters, got.num_clusters) << context;
  EXPECT_EQ(expected.cluster, got.cluster) << context;
  EXPECT_EQ(expected.is_core, got.is_core) << context;
  EXPECT_EQ(expected.membership_offsets, got.membership_offsets) << context;
  EXPECT_EQ(expected.membership_ids, got.membership_ids) << context;
}

// The variants exercising each cell source / range-count path: grid cells,
// box cells, and the quadtree range-count + connector path.
std::vector<Options> ReuseVariants() {
  return {Our2dGridBcp(), Our2dBoxBcp(), OurExactQt(),
          WithBucketing(Our2dGridUsec())};
}

// --- Sweep: cells built once, labels identical to one-shot ----------------

TEST(EngineSweep, BuildsCellsOnceAndMatchesOneShot) {
  const auto pts = BlobPoints<2>(2000, 5, 40.0, 1.0, 7);
  const double eps = 1.2;
  const std::vector<size_t> minpts_list = {3, 5, 10, 25, 60};
  for (const auto& options : ReuseVariants()) {
    DbscanEngine<2> engine(options);
    engine.SetPoints(pts);
    auto& stats = dbscan::GlobalStats();
    stats.Reset();
    const auto sweep = engine.Sweep(eps, minpts_list);
    EXPECT_EQ(stats.cells_built.load(), 1u) << options.Name();
    EXPECT_EQ(stats.counts_built.load(), 1u) << options.Name();
    ASSERT_EQ(sweep.size(), minpts_list.size());
    for (size_t i = 0; i < minpts_list.size(); ++i) {
      const auto oneshot = Dbscan<2>(pts, eps, minpts_list[i], options);
      ExpectIdentical(oneshot, sweep[i],
                      options.Name() + " minpts=" +
                          std::to_string(minpts_list[i]));
    }
  }
}

TEST(EngineSweep, HighDimSweepMatchesOneShot) {
  const auto pts = BlobPoints<3>(800, 4, 20.0, 1.0, 11);
  const double eps = 1.5;
  const std::vector<size_t> minpts_list = {4, 8, 16};
  for (const auto& options : {OurExact(), OurExactQt()}) {
    DbscanEngine<3> engine(options);
    engine.SetPoints(pts);
    dbscan::GlobalStats().Reset();
    const auto sweep = engine.Sweep(eps, minpts_list);
    EXPECT_EQ(dbscan::GlobalStats().cells_built.load(), 1u) << options.Name();
    for (size_t i = 0; i < minpts_list.size(); ++i) {
      ExpectIdentical(Dbscan<3>(pts, eps, minpts_list[i], options), sweep[i],
                      options.Name());
    }
  }
}

// --- Warm engine after parameter changes ----------------------------------

TEST(EngineReuse, WarmRunsMatchFreshOneShotAcrossThreadsAndVariants) {
  const auto pts = BlobPoints<2>(1500, 6, 30.0, 1.0, 13);
  struct Step {
    double eps;
    size_t min_pts;
  };
  // Epsilon changes, min_pts changes (down and up), and a revisit.
  const std::vector<Step> steps = {{1.0, 8}, {1.0, 4},  {2.0, 4},
                                   {2.0, 30}, {0.7, 8}, {1.0, 8}};
  for (const int workers : {1, 2, 4}) {
    parallel::ScopedNumWorkers scoped(workers);
    for (const auto& options : ReuseVariants()) {
      DbscanEngine<2> engine(options);
      engine.SetPoints(pts);
      for (const auto& step : steps) {
        const auto warm = engine.Run(step.eps, step.min_pts);
        const auto fresh = Dbscan<2>(pts, step.eps, step.min_pts, options);
        ExpectIdentical(fresh, warm,
                        options.Name() + " workers=" + std::to_string(workers) +
                            " eps=" + std::to_string(step.eps) +
                            " minpts=" + std::to_string(step.min_pts));
      }
    }
  }
}

TEST(EngineReuse, CellCacheKeyedOnEpsilon) {
  const auto pts = BlobPoints<2>(1000, 4, 25.0, 1.0, 17);
  DbscanEngine<2> engine;
  engine.SetPoints(pts);
  auto& stats = dbscan::GlobalStats();
  stats.Reset();
  (void)engine.Run(1.0, 5);
  EXPECT_EQ(stats.cells_built.load(), 1u);
  EXPECT_TRUE(engine.has_cells_for(1.0));
  (void)engine.Run(1.0, 10);  // Same epsilon: reuse cells and counts? No —
  // counts cap was 5; cells reused, counts recomputed at the higher cap.
  EXPECT_EQ(stats.cells_built.load(), 1u);
  EXPECT_GE(stats.cells_reused.load(), 1u);
  (void)engine.Run(1.0, 7);  // Still above the cap of 5: recounted again.
  // counts_reused ticks only for queries served from the index's counts
  // (the first Run); the index build and each over-cap query count.
  EXPECT_EQ(stats.counts_reused.load(), 1u);
  EXPECT_EQ(stats.counts_built.load(), 3u);
  (void)engine.Run(2.0, 5);  // New epsilon: rebuild.
  EXPECT_EQ(stats.cells_built.load(), 2u);
  EXPECT_FALSE(engine.has_cells_for(1.0));
}

TEST(EngineReuse, SetPointsInvalidatesCaches) {
  const auto pts_a = BlobPoints<2>(800, 3, 20.0, 1.0, 19);
  const auto pts_b = BlobPoints<2>(900, 5, 20.0, 1.0, 23);
  DbscanEngine<2> engine;
  engine.SetPoints(pts_a);
  (void)engine.Run(1.0, 5);
  engine.SetPoints(pts_b);
  const auto warm = engine.Run(1.0, 5);
  ExpectIdentical(Dbscan<2>(pts_b, 1.0, 5), warm, "after SetPoints");
}

// --- Runtime-dimension entry points ---------------------------------------

TEST(EngineRuntimeDim, StridedMatchesTypedAndValidatesDimFirst) {
  const auto pts = BlobPoints<3>(400, 3, 15.0, 1.0, 29);
  std::vector<double> flat;
  for (const auto& p : pts) {
    flat.push_back(p[0]);
    flat.push_back(p[1]);
    flat.push_back(p[2]);
  }
  DbscanEngine<3> engine;
  engine.SetPointsStrided(flat.data(), pts.size(), 3);
  ExpectIdentical(Dbscan<3>(pts, 1.5, 5), engine.Run(1.5, 5), "strided");
  // Unsupported dimensions are rejected up front (no data is read: nullptr
  // would crash otherwise).
  EXPECT_THROW(Dbscan(nullptr, 100, 6, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(Dbscan(nullptr, 100, 0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(Dbscan(nullptr, 100, -1, 1.0, 3), std::invalid_argument);
}

// --- Validation ------------------------------------------------------------

TEST(EngineValidation, InvalidArgumentsThrow) {
  const auto pts = BlobPoints<2>(100, 2, 10.0, 1.0, 31);
  DbscanEngine<2> engine;
  engine.SetPoints(pts);
  EXPECT_THROW(engine.Run(-1.0, 3), std::invalid_argument);
  EXPECT_THROW(engine.Run(0.0, 3), std::invalid_argument);
  EXPECT_THROW(engine.Run(1.0, 0), std::invalid_argument);
  EXPECT_THROW(engine.Sweep(1.0, {3, 0, 5}), std::invalid_argument);
  Options box_in_3d;
  box_in_3d.cell_method = CellMethod::kBox;
  DbscanEngine<3> engine3(box_in_3d);
  std::vector<Point<3>> pts3 = {Point<3>{{0, 0, 0}}};
  engine3.SetPoints(pts3);
  EXPECT_THROW(engine3.Run(1.0, 3), std::invalid_argument);
}

// `epsilon <= 0` lets NaN through; every build surface must reject it.
TEST(EngineValidation, NanEpsilonThrowsOnEverySurface) {
  std::vector<Point<2>> lattice;
  for (int x = 0; x < 37; ++x) {
    for (int y = 0; y < 27; ++y) {
      lattice.push_back(Point<2>{{double(x), double(y)}});
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Dbscan<2>(lattice, nan, 5), std::invalid_argument);
  EXPECT_THROW(CellIndex<2>::Build(lattice, nan, 5), std::invalid_argument);
  DbscanEngine<2> engine;
  engine.SetPoints(lattice);
  EXPECT_THROW(engine.Run(nan, 5), std::invalid_argument);
  EXPECT_THROW(engine.Sweep(nan, {5}), std::invalid_argument);
  EXPECT_THROW(StreamingClusterer<2>(nan, 5), std::invalid_argument);
  // Infinity stays valid: every point is every other point's neighbor.
  EXPECT_EQ(Dbscan<2>(lattice, std::numeric_limits<double>::infinity(), 5)
                .num_clusters,
            1u);
}

// A tiny epsilon over a wide extent puts cell coordinates past 2^62 (and a
// NaN coordinate has none): every build surface must reject the points
// rather than cast them into one cell and merge far-apart points.
TEST(EngineValidation, OutOfRangeCellCoordinatesThrowOnEverySurface) {
  const std::vector<Point<2>> wide = {
      Point<2>{{0, 0}}, Point<2>{{100000, 0}}, Point<2>{{200000, 0}}};
  const double tiny = 1e-14;
  EXPECT_THROW(Dbscan<2>(wide, tiny, 2), std::invalid_argument);
  EXPECT_THROW(CellIndex<2>::Build(wide, tiny, 2), std::invalid_argument);
  DbscanEngine<2> engine;
  engine.SetPoints(wide);
  EXPECT_THROW(engine.Run(tiny, 2), std::invalid_argument);
  EXPECT_THROW(engine.Sweep(tiny, {2}), std::invalid_argument);
  // In range, the three points are what they are: noise.
  const Clustering fine = Dbscan<2>(wide, 1e-9, 2);
  EXPECT_EQ(fine.cluster, (std::vector<int64_t>{-1, -1, -1}));
  std::vector<Point<2>> with_nan = wide;
  with_nan[1][1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Dbscan<2>(with_nan, 1.0, 2), std::invalid_argument);

  // The streaming writer rejects the batch before journaling or mutating
  // anything, erases included: the published snapshot stays as it was.
  StreamingClusterer<2> stream(tiny, 2);
  const std::vector<Point<2>> origin = {Point<2>{{0, 0}}};
  const uint64_t id = stream.Insert(origin);
  const auto before = stream.snapshot();
  const uint64_t generation = stream.generation();
  const std::vector<uint64_t> erase = {id};
  EXPECT_THROW(stream.ApplyUpdates(wide, erase), std::invalid_argument);
  EXPECT_EQ(stream.snapshot(), before);
  EXPECT_EQ(stream.generation(), generation);
  EXPECT_EQ(stream.num_points(), 1u);
  EXPECT_EQ(stream.LiveIds(), erase);
  EXPECT_EQ(stream.Run(1).cluster, (std::vector<int64_t>{0}));
}

TEST(EngineEdge, EmptyAndSweepOfOne) {
  DbscanEngine<2> engine;
  engine.SetPoints(std::vector<Point<2>>{});
  const auto empty = engine.Run(1.0, 3);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.num_clusters, 0u);
  const auto pts = BlobPoints<2>(200, 2, 10.0, 1.0, 37);
  engine.SetPoints(pts);
  const auto sweep = engine.Sweep(1.0, {4});
  ASSERT_EQ(sweep.size(), 1u);
  ExpectIdentical(Dbscan<2>(pts, 1.0, 4), sweep[0], "sweep of one");
  EXPECT_TRUE(engine.Sweep(1.0, std::vector<size_t>{}).empty());
}

}  // namespace
}  // namespace pdbscan
