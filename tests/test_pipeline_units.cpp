// Unit tests for the pipeline stages in isolation: MarkCore (Algorithm 2),
// CoreIndex, the connectivity strategies of ClusterCore (Algorithm 3), the
// border pass (Algorithm 4), the first-appearance relabel, pipeline
// statistics, option naming, and the DBSCAN* extension.
#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "containers/union_find.h"
#include "dbscan/cluster_border.h"
#include "dbscan/cluster_core.h"
#include "dbscan/grid.h"
#include "dbscan/mark_core.h"
#include "dbscan/query.h"
#include "dbscan/stats.h"
#include "dbscan/verify.h"
#include "dbscan/workspace.h"
#include "data/seed_spreader.h"
#include "kernels/kernel_api.h"
#include "parallel/scheduler.h"
#include "pdbscan/pdbscan.h"

namespace pdbscan {
namespace {

using dbscan::BuildCoreIndex;
using dbscan::BuildGrid;
using dbscan::CellStructure;
using dbscan::CoreIndex;
using dbscan::MarkCore;
using geometry::Point;

template <int D>
std::vector<Point<D>> RandomPoints(size_t n, double side, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, side);
  std::vector<Point<D>> pts(n);
  for (auto& p : pts) {
    for (int k = 0; k < D; ++k) p[k] = coord(rng);
  }
  return pts;
}

// Brute-force core flags in the *reordered* frame of a cell structure.
template <int D>
std::vector<uint8_t> BruteCoreFlags(const CellStructure<D>& cells,
                                    size_t min_pts) {
  const double eps2 = cells.epsilon * cells.epsilon;
  std::vector<uint8_t> flags(cells.num_points(), 0);
  for (size_t i = 0; i < cells.num_points(); ++i) {
    size_t count = 0;
    for (size_t j = 0; j < cells.num_points(); ++j) {
      if (cells.points[i].SquaredDistance(cells.points[j]) <= eps2) ++count;
    }
    flags[i] = count >= min_pts ? 1 : 0;
  }
  return flags;
}

TEST(MarkCore, ScanAndQuadtreeMatchBruteForce) {
  for (uint64_t seed : {1, 2, 3}) {
    auto pts = RandomPoints<2>(400, 15.0, seed);
    for (double eps : {0.8, 2.0}) {
      for (size_t min_pts : {3u, 8u, 25u}) {
        auto cells = BuildGrid<2>(pts, eps);
        const auto expected = BruteCoreFlags(cells, min_pts);
        EXPECT_EQ(MarkCore(cells, min_pts, RangeCountMethod::kScan), expected)
            << "scan eps=" << eps << " minpts=" << min_pts;
        EXPECT_EQ(MarkCore(cells, min_pts, RangeCountMethod::kQuadtree),
                  expected)
            << "qt eps=" << eps << " minpts=" << min_pts;
      }
    }
  }
}

TEST(MarkCore, DenseCellShortcut) {
  // All points in one tight cluster: the dense-cell path marks everything
  // core without any range queries.
  std::vector<Point<3>> pts(200, Point<3>{{1, 1, 1}});
  auto cells = BuildGrid<3>(pts, 5.0);
  ASSERT_EQ(cells.num_cells(), 1u);
  const auto flags = MarkCore(cells, 100, RangeCountMethod::kScan);
  for (const uint8_t f : flags) EXPECT_EQ(f, 1);
}

TEST(MarkCore, CountsCrossCellNeighbors) {
  // Two points in different cells, each alone; with minPts=2 they are core
  // only because the neighboring cell contributes.
  std::vector<Point<2>> pts = {Point<2>{{0, 0}}, Point<2>{{0.9, 0}}};
  auto cells = BuildGrid<2>(pts, 1.0);  // side ~0.707: different cells.
  ASSERT_EQ(cells.num_cells(), 2u);
  const auto flags = MarkCore(cells, 2, RangeCountMethod::kScan);
  EXPECT_EQ(flags[0], 1);
  EXPECT_EQ(flags[1], 1);
  const auto flags3 = MarkCore(cells, 3, RangeCountMethod::kScan);
  EXPECT_EQ(flags3[0], 0);
  EXPECT_EQ(flags3[1], 0);
}

TEST(CoreIndex, OffsetsAndPositionsConsistent) {
  auto pts = RandomPoints<2>(600, 20.0, 4);
  auto cells = BuildGrid<2>(pts, 1.2);
  const auto flags = MarkCore(cells, 5, RangeCountMethod::kScan);
  const CoreIndex core = BuildCoreIndex(cells, flags);
  size_t total = 0;
  for (size_t c = 0; c < cells.num_cells(); ++c) {
    EXPECT_EQ(core.cell_is_core[c] != 0, core.core_count(c) > 0);
    for (const uint32_t pos : core.core_of(c)) {
      EXPECT_EQ(flags[pos], 1);
      EXPECT_GE(pos, cells.offsets[c]);
      EXPECT_LT(pos, cells.offsets[c + 1]);
    }
    total += core.core_count(c);
  }
  size_t expected_total = 0;
  for (const uint8_t f : flags) expected_total += f;
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(core.core_positions.size(), expected_total);
}

// All connectivity strategies must agree with the brute-force BCP predicate
// on every neighboring core-cell pair.
TEST(Connectors, AgreeWithBruteForceBcp) {
  for (uint64_t seed : {5, 6}) {
    auto pts = RandomPoints<2>(500, 12.0, seed);
    const double eps = 1.0;
    auto cells = BuildGrid<2>(pts, eps);
    const auto flags = MarkCore(cells, 4, RangeCountMethod::kScan);
    const CoreIndex core = BuildCoreIndex(cells, flags);

    dbscan::BcpConnector<2> bcp(cells, core);
    dbscan::QuadtreeBcpConnector<2> qt(cells, core);
    dbscan::UsecConnector usec(cells, core);
    kernels::Counters kc;

    const double eps2 = eps * eps;
    for (size_t g = 0; g < cells.num_cells(); ++g) {
      if (!core.cell_is_core[g]) continue;
      for (const uint32_t h : cells.neighbors(g)) {
        if (!core.cell_is_core[h] || h <= g) continue;
        bool expected = false;
        for (const uint32_t a : core.core_of(g)) {
          for (const uint32_t b : core.core_of(h)) {
            expected = expected ||
                       cells.points[a].SquaredDistance(cells.points[b]) <= eps2;
          }
        }
        EXPECT_EQ(bcp.Connected(g, h, kc), expected) << "bcp " << g << "," << h;
        EXPECT_EQ(qt.Connected(g, h, kc), expected) << "qt " << g << "," << h;
        EXPECT_EQ(usec.Connected(g, h, kc), expected)
            << "usec " << g << "," << h;
      }
    }
  }
}

TEST(Connectors, ApproxIsSandwiched) {
  auto pts = RandomPoints<2>(500, 12.0, 7);
  const double eps = 1.0;
  const double rho = 0.3;
  auto cells = BuildGrid<2>(pts, eps);
  const auto flags = MarkCore(cells, 4, RangeCountMethod::kScan);
  const CoreIndex core = BuildCoreIndex(cells, flags);
  dbscan::ApproxConnector<2> approx(cells, core, rho);
  const double inner2 = eps * eps;
  const double outer = eps * (1 + rho);
  const double outer2 = outer * outer;
  for (size_t g = 0; g < cells.num_cells(); ++g) {
    if (!core.cell_is_core[g]) continue;
    for (const uint32_t h : cells.neighbors(g)) {
      if (!core.cell_is_core[h] || h <= g) continue;
      double best = std::numeric_limits<double>::infinity();
      for (const uint32_t a : core.core_of(g)) {
        for (const uint32_t b : core.core_of(h)) {
          best = std::min(best,
                          cells.points[a].SquaredDistance(cells.points[b]));
        }
      }
      kernels::Counters kc;
      const bool got = approx.Connected(g, h, kc);
      if (best <= inner2) EXPECT_TRUE(got) << g << "," << h;
      if (best > outer2) EXPECT_FALSE(got) << g << "," << h;
    }
  }
}

// The roots ClusterBorder recorded for reordered position i, ascending.
std::vector<uint32_t> RootsOf(const dbscan::PointRoots& roots, size_t i) {
  const uint32_t r = roots.root[i];
  if (r == dbscan::PointRoots::kNoRoot) return {};
  if (r != dbscan::PointRoots::kMultiRoot) return {r};
  const auto it = std::lower_bound(roots.multi_points.begin(),
                                   roots.multi_points.end(), i);
  EXPECT_TRUE(it != roots.multi_points.end() && *it == i) << "point " << i;
  if (it == roots.multi_points.end() || *it != i) return {};
  const auto k = static_cast<size_t>(it - roots.multi_points.begin());
  const auto span = roots.multi_roots_of(k);
  return std::vector<uint32_t>(span.begin(), span.end());
}

// Cell of reordered position i.
template <int D>
size_t CellOf(const CellStructure<D>& cells, size_t i) {
  const auto it =
      std::upper_bound(cells.offsets.begin(), cells.offsets.end(), i);
  return static_cast<size_t>(it - cells.offsets.begin()) - 1;
}

TEST(ClusterBorder, MultiMembershipAndNoise) {
  auto pts = RandomPoints<2>(400, 15.0, 8);
  const double eps = 1.0;
  const size_t min_pts = 6;
  auto cells = BuildGrid<2>(pts, eps);
  const auto flags = MarkCore(cells, min_pts, RangeCountMethod::kScan);
  const CoreIndex core = BuildCoreIndex(cells, flags);
  containers::UnionFind uf(cells.num_cells());
  dbscan::BcpConnector<2> bcp(cells, core);
  dbscan::ClusterCoreWithConnector(cells, core, Options{}, bcp, uf);
  dbscan::PointRoots roots;
  dbscan::ClusterBorder(cells, flags, core, min_pts, /*core_only=*/false, uf,
                        roots);
  ASSERT_EQ(roots.root.size(), cells.num_points());
  ASSERT_EQ(roots.multi_offsets.size(), roots.num_multi() + 1);
  EXPECT_TRUE(std::is_sorted(roots.multi_points.begin(),
                             roots.multi_points.end()));
  const double eps2 = eps * eps;
  size_t multi = 0;
  for (size_t i = 0; i < cells.num_points(); ++i) {
    const std::vector<uint32_t> got = RootsOf(roots, i);
    if (got.size() > 1) ++multi;
    if (flags[i]) {
      // A core point belongs to exactly its cell's component.
      EXPECT_EQ(got, std::vector<uint32_t>{static_cast<uint32_t>(
                         uf.Find(CellOf(cells, i)))})
          << "core point " << i;
      continue;
    }
    // Expected roots: clusters of core points within eps.
    std::vector<uint32_t> expected;
    for (size_t j = 0; j < cells.num_points(); ++j) {
      if (!flags[j]) continue;
      if (cells.points[i].SquaredDistance(cells.points[j]) <= eps2) {
        expected.push_back(static_cast<uint32_t>(uf.Find(CellOf(cells, j))));
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(got, expected) << "point " << i;
  }
  EXPECT_EQ(multi, roots.num_multi());
  EXPECT_GT(multi, 0u);  // The side list is exercised.
}

// ClusterCore's counters are local per source cell and flushed once per
// cell: every candidate pair the driver considers is counted exactly once,
// as pruned or as executed, at any worker count.
TEST(ClusterCore, CandidatePairsAccountedAtAnyWorkerCount) {
  struct RestoreLevel {
    kernels::Level level = kernels::ActiveLevel();
    ~RestoreLevel() { kernels::ForceLevel(level); }
  } restore;
  kernels::ForceLevel(kernels::BestSupportedLevel());
  const bool simd = kernels::ActiveLevel() != kernels::Level::kScalar;

  auto pts = RandomPoints<2>(4000, 12.0, 12);
  auto cells = BuildGrid<2>(pts, 0.5);
  const auto flags = MarkCore(cells, 6, RangeCountMethod::kScan);
  const CoreIndex core = BuildCoreIndex(cells, flags);
  size_t candidates = 0;  // Neighboring core-cell pairs, each once.
  for (size_t g = 0; g < cells.num_cells(); ++g) {
    if (!core.cell_is_core[g]) continue;
    for (const uint32_t h : cells.neighbors(g)) {
      if (h > g && core.cell_is_core[h]) ++candidates;
    }
  }
  ASSERT_GT(candidates, 0u);
  for (const int workers : {1, 4}) {
    parallel::ScopedNumWorkers scoped(workers);
    dbscan::PipelineStats stats;
    containers::UnionFind uf(cells.num_cells());
    dbscan::ClusterCore(cells, core, Options{}, uf, stats);
    const size_t executed = stats.connectivity_queries.load();
    EXPECT_EQ(stats.pruned_queries.load() + executed, candidates)
        << workers << " workers";
    EXPECT_GT(executed, 0u);
    EXPECT_LE(stats.successful_queries.load(), executed);
    if (simd) {
      EXPECT_GT(stats.kernel_batches.load(), 0u) << workers << " workers";
    }
  }
}

// The serial first-appearance relabel Finalize replaces: points in original
// order, each point's roots ordered by their clusters' smallest core
// original index, a root numbered when first met; memberships are the ids,
// ascending, and a point's cluster the smallest.
template <int D>
Clustering SerialRelabel(const CellStructure<D>& cells,
                         const std::vector<uint8_t>& flags,
                         const dbscan::PointRoots& roots) {
  const size_t n = cells.num_points();
  std::vector<std::vector<uint32_t>> by_orig(n);
  Clustering out;
  out.is_core.assign(n, 0);
  std::vector<size_t> first_core(cells.num_cells(), n);
  for (size_t i = 0; i < n; ++i) {
    by_orig[cells.orig_index[i]] = RootsOf(roots, i);
    out.is_core[cells.orig_index[i]] = flags[i];
    if (flags[i]) {
      size_t& first = first_core[roots.root[i]];
      first = std::min<size_t>(first, cells.orig_index[i]);
    }
  }
  std::vector<int64_t> root_to_id(cells.num_cells(), -1);
  out.cluster.assign(n, Clustering::kNoise);
  out.membership_offsets.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    std::sort(by_orig[i].begin(), by_orig[i].end(),
              [&](uint32_t a, uint32_t b) {
                return first_core[a] < first_core[b];
              });
    std::vector<int64_t> ids;
    for (const uint32_t r : by_orig[i]) {
      if (root_to_id[r] < 0) {
        root_to_id[r] = static_cast<int64_t>(out.num_clusters++);
      }
      ids.push_back(root_to_id[r]);
    }
    std::sort(ids.begin(), ids.end());
    if (!ids.empty()) out.cluster[i] = ids.front();
    out.membership_ids.insert(out.membership_ids.end(), ids.begin(),
                              ids.end());
    out.membership_offsets[i + 1] = out.membership_ids.size();
  }
  return out;
}

void ExpectSameIds(const Clustering& got, const Clustering& want,
                   const std::string& what) {
  EXPECT_EQ(got.num_clusters, want.num_clusters) << what;
  EXPECT_EQ(got.cluster, want.cluster) << what;
  EXPECT_EQ(got.is_core, want.is_core) << what;
  EXPECT_EQ(got.membership_offsets, want.membership_offsets) << what;
  EXPECT_EQ(got.membership_ids, want.membership_ids) << what;
}

// Runs the query half stage by stage and checks Finalize's parallel
// relabel against the serial one on the same roots.
template <int D>
Clustering FinalizeAgainstSerial(const std::vector<Point<D>>& pts,
                                 double eps, size_t min_pts, bool core_only,
                                 const std::string& what) {
  auto cells = BuildGrid<D>(pts, eps);
  const auto flags = MarkCore(cells, min_pts, RangeCountMethod::kScan);
  const CoreIndex core = BuildCoreIndex(cells, flags);
  dbscan::Workspace<D> ws;
  ws.uf.Reset(cells.num_cells());
  dbscan::PipelineStats stats;
  dbscan::ClusterCore(cells, core, Options{}, ws.uf, stats);
  dbscan::ClusterBorder(cells, flags, core, min_pts, core_only, ws.uf,
                        ws.point_roots);
  const Clustering got =
      dbscan::internal::Finalize(cells, flags, ws.point_roots, ws);
  ExpectSameIds(got, SerialRelabel(cells, flags, ws.point_roots), what);
  return got;
}

TEST(Finalize, FirstAppearanceIdsAcrossWorkers) {
  // eps 1, min_pts 4, all coordinates exact in binary. Input index 0 is a
  // border point exactly eps from cluster A's last point and from cluster
  // B's first, so it is the first point of both: the two roots tie on
  // first index. Index 1 is noise; cluster C starts at index 2.
  const std::vector<Point<2>> shared = {
      Point<2>{{1.75, 0}},                                            // 0
      Point<2>{{40, 40}},                                             // 1
      Point<2>{{0, 10}},    Point<2>{{0.25, 10}}, Point<2>{{0.5, 10}},  // C
      Point<2>{{0.75, 10}},
      Point<2>{{0, 0}},     Point<2>{{0.25, 0}},  Point<2>{{0.5, 0}},   // A
      Point<2>{{0.75, 0}},
      Point<2>{{2.75, 0}},  Point<2>{{3, 0}},     Point<2>{{3.25, 0}},  // B
      Point<2>{{3.5, 0}},
      Point<2>{{-20, 5}}};                                            // 14
  const double eps = 1.0;
  const size_t min_pts = 4;
  std::vector<Point<2>> all_noise;
  for (int i = 0; i < 6; ++i) all_noise.push_back(Point<2>{{3.0 * i, 0}});
  const std::vector<Point<2>> empty;
  const auto brute =
      dbscan::BruteForceDbscan<2>(std::span<const Point<2>>(shared), eps,
                                  min_pts);

  std::vector<Clustering> runs;
  for (const int workers : {1, 4}) {
    parallel::ScopedNumWorkers scoped(workers);
    const std::string at = std::to_string(workers) + " workers";
    const Clustering got =
        FinalizeAgainstSerial(shared, eps, min_pts, false, "shared " + at);
    ExpectSameIds(got, brute, "brute force " + at);
    ExpectSameIds(Dbscan<2>(shared, eps, min_pts), got, "Dbscan " + at);
    ASSERT_EQ(got.num_clusters, 3u) << at;
    // The tie: the shared border point is in clusters 0 and 1, so its
    // primary cluster is 0; A (first core point 6) takes 0 and B (first core
    // point 10) takes 1, whatever their root ids, and C, first met at index
    // 2, is 2.
    EXPECT_FALSE(got.is_core[0]) << at;
    EXPECT_EQ(got.cluster[0], 0) << at;
    EXPECT_EQ(std::vector<int64_t>(got.memberships(0).begin(),
                                   got.memberships(0).end()),
              (std::vector<int64_t>{0, 1}))
        << at;
    EXPECT_EQ(got.cluster[1], Clustering::kNoise) << at;
    EXPECT_EQ(got.cluster[14], Clustering::kNoise) << at;
    for (size_t i = 2; i < 6; ++i) EXPECT_EQ(got.cluster[i], 2) << at;
    for (size_t i = 6; i < 10; ++i) EXPECT_EQ(got.cluster[i], 0) << at;
    for (size_t i = 10; i < 14; ++i) EXPECT_EQ(got.cluster[i], 1) << at;
    runs.push_back(got);

    // DBSCAN*: the shared point is noise, so ids follow C, A, B.
    const Clustering star =
        FinalizeAgainstSerial(shared, eps, min_pts, true, "core_only " + at);
    const std::vector<int64_t> star_ids = {-1, -1, 0, 0, 0, 0, 1, 1,
                                           1,  1,  2, 2, 2, 2, -1};
    EXPECT_EQ(star.cluster, star_ids) << at;
    EXPECT_EQ(star.num_clusters, 3u) << at;
    EXPECT_EQ(star.membership_offsets.back(), 12u) << at;

    const Clustering noise =
        FinalizeAgainstSerial(all_noise, eps, 2, false, "all-noise " + at);
    EXPECT_EQ(noise.num_clusters, 0u) << at;
    EXPECT_EQ(noise.cluster,
              std::vector<int64_t>(all_noise.size(), Clustering::kNoise))
        << at;
    EXPECT_EQ(noise.membership_offsets,
              std::vector<size_t>(all_noise.size() + 1, 0))
        << at;

    const Clustering none =
        FinalizeAgainstSerial(empty, eps, min_pts, false, "empty " + at);
    EXPECT_EQ(none.size(), 0u) << at;
    EXPECT_EQ(none.num_clusters, 0u) << at;
    EXPECT_EQ(none.membership_offsets, std::vector<size_t>{0}) << at;
    EXPECT_TRUE(none.membership_ids.empty()) << at;

    // Enough points for the relabel's loops to split across workers.
    FinalizeAgainstSerial(RandomPoints<2>(20000, 60.0, 13), 0.6, 5, false,
                          "random " + at);
  }
  ExpectSameIds(runs[1], runs[0], "4 workers vs 1");
}

TEST(Stats, BucketingReducesExecutedQueries) {
  // On clustered data the pruning should leave far fewer executed queries
  // than candidate pairs, and bucketing should not increase them.
  auto pts = data::SsSimden<2>(20000, 9);
  auto& stats = dbscan::GlobalStats();

  stats.Reset();
  Dbscan<2>(pts, 150.0, 10, OurExact());
  const size_t queries_plain = stats.connectivity_queries.load();
  const size_t pruned_plain = stats.pruned_queries.load();

  stats.Reset();
  Dbscan<2>(pts, 150.0, 10, WithBucketing(OurExact()));
  const size_t queries_bucketing = stats.connectivity_queries.load();

  EXPECT_GT(pruned_plain, 0u);
  EXPECT_GT(queries_plain, 0u);
  EXPECT_LE(queries_bucketing, queries_plain + queries_plain / 4);
}

TEST(OptionsNaming, MatchesPaperLabels) {
  EXPECT_EQ(OurExact().Name(), "our-exact");
  EXPECT_EQ(OurExactQt().Name(), "our-exact-qt");
  EXPECT_EQ(OurApprox().Name(), "our-approx");
  EXPECT_EQ(OurApproxQt().Name(), "our-approx-qt");
  EXPECT_EQ(WithBucketing(OurExact()).Name(), "our-exact-bucketing");
  EXPECT_EQ(Our2dGridUsec().Name(), "our-2d-grid-usec");
  EXPECT_EQ(Our2dBoxDelaunay().Name(), "our-2d-box-delaunay");
  EXPECT_EQ(WithBucketing(Our2dBoxBcp()).Name(), "our-exact-box-bucketing");
}

TEST(DbscanStar, CoreOnlyClustersMatchExactCores) {
  auto pts = RandomPoints<2>(800, 20.0, 10);
  const auto exact = Dbscan<2>(pts, 1.0, 5);
  Options star = OurExact();
  star.core_only = true;
  const auto got = Dbscan<2>(pts, 1.0, 5, star);
  EXPECT_EQ(exact.is_core, got.is_core);
  for (size_t i = 0; i < pts.size(); ++i) {
    if (got.is_core[i]) {
      // Core labels agree with the exact run (same first-appearance rule
      // restricted to core points need not give identical ids, so compare
      // through partitions):
      EXPECT_GE(got.cluster[i], 0);
      EXPECT_EQ(got.memberships(i).size(), 1u);
    } else {
      EXPECT_EQ(got.cluster[i], Clustering::kNoise);
      EXPECT_TRUE(got.memberships(i).empty());
    }
  }
  // Two core points share a cluster in DBSCAN* iff they do in DBSCAN.
  for (size_t i = 0; i < pts.size(); i += 7) {
    for (size_t j = 0; j < pts.size(); j += 11) {
      if (!exact.is_core[i] || !exact.is_core[j]) continue;
      EXPECT_EQ(exact.cluster[i] == exact.cluster[j],
                got.cluster[i] == got.cluster[j]);
    }
  }
  EXPECT_EQ(star.Name(), "our-exact-star");
}

TEST(Pipeline, ReusableAcrossCallsAndConfigs) {
  // Back-to-back runs with different configurations must not interfere
  // (no global state besides the scheduler and stats).
  auto pts = RandomPoints<3>(500, 12.0, 11);
  const auto a1 = Dbscan<3>(pts, 1.5, 5, OurExact());
  const auto b = Dbscan<3>(pts, 3.0, 10, OurExactQt());
  const auto a2 = Dbscan<3>(pts, 1.5, 5, OurExact());
  EXPECT_EQ(a1.cluster, a2.cluster);
  EXPECT_EQ(a1.membership_ids, a2.membership_ids);
  (void)b;
}

}  // namespace
}  // namespace pdbscan
