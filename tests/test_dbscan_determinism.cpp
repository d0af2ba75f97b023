// Cross-thread determinism: equal inputs must produce bit-identical
// Clusterings (labels, core flags, membership lists) regardless of the
// scheduler's worker count or execution schedule. Runs the same fixed-seed
// workloads at 1 worker and at N workers and compares full results — the
// programmatic equivalent of diffing PDBSCAN_NUM_THREADS=1 vs =N runs.
// Wired into the CI TSan matrix alongside test_concurrent, so schedule
// nondeterminism shows up both as label diffs here and as races there.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dbscan/grid.h"
#include "dbscan/mark_core.h"
#include "dbscan/query.h"
#include "parallel/scheduler.h"
#include "pdbscan/pdbscan.h"
#include "primitives/scan.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

using pdbscan::testing::ExpectIdentical;
using pdbscan::testing::GenerateShape;
using pdbscan::testing::MakeCases;
using pdbscan::testing::Shape;
using dbscan::CellStructure;
using geometry::Point;

constexpr int kManyWorkers = 4;

// Every exact 2D variant plus the approximate ones: one-shot runs at 1
// worker vs kManyWorkers must match bit for bit.
TEST(Determinism, OneShotVariantsAcrossWorkerCounts) {
  const std::vector<Options> configs = {
      Our2dGridBcp(),    Our2dGridUsec(),          Our2dGridDelaunay(),
      Our2dBoxBcp(),     Our2dBoxUsec(),           OurExactQt(),
      OurApprox(0.05),   WithBucketing(Our2dGridBcp())};
  for (const auto& c : MakeCases(/*base_seed=*/4242, 5)) {
    const auto pts = GenerateShape<2>(c.shape, c.n, c.seed);
    for (const auto& options : configs) {
      std::vector<Clustering> results;
      for (const int workers : {1, kManyWorkers}) {
        parallel::ScopedNumWorkers scoped(workers);
        results.push_back(Dbscan<2>(pts, c.epsilon, c.min_pts, options));
      }
      ExpectIdentical(results[0], results[1],
                      options.Name() + " seed=" + std::to_string(c.seed));
    }
  }
}

TEST(Determinism, HigherDimensionsAcrossWorkerCounts) {
  const auto pts3 = GenerateShape<3>(Shape::kBlobs, 400, 77);
  const auto pts5 = GenerateShape<5>(Shape::kMixed, 250, 78);
  std::vector<Clustering> r3, r5;
  for (const int workers : {1, kManyWorkers}) {
    parallel::ScopedNumWorkers scoped(workers);
    r3.push_back(Dbscan<3>(pts3, 1.4, 8));
    r5.push_back(Dbscan<5>(pts5, 3.0, 6));
  }
  ExpectIdentical(r3[0], r3[1], "3d");
  ExpectIdentical(r5[0], r5[1], "5d");
}

// The engine sweep surface: batched sweeps must be schedule-independent
// too (they share counts across settings, a different code path than
// repeated one-shot runs).
TEST(Determinism, EngineSweepAcrossWorkerCounts) {
  const auto pts = GenerateShape<2>(Shape::kGridish, 700, 123);
  const std::vector<size_t> settings = {2, 5, 11, 29};
  std::vector<std::vector<Clustering>> sweeps;
  for (const int workers : {1, kManyWorkers}) {
    parallel::ScopedNumWorkers scoped(workers);
    DbscanEngine<2> engine;
    engine.SetPoints(pts);
    sweeps.push_back(engine.Sweep(0.9, settings));
  }
  ASSERT_EQ(sweeps[0].size(), sweeps[1].size());
  for (size_t i = 0; i < sweeps[0].size(); ++i) {
    ExpectIdentical(sweeps[0][i], sweeps[1][i],
                    "sweep minpts=" + std::to_string(settings[i]));
  }
}

// The streaming surface: the same update sequence must publish snapshots
// with bit-identical labels at every worker count (incremental recounts,
// adjacency rebuilds and recomposition all run on the scheduler).
TEST(Determinism, StreamingUpdatesAcrossWorkerCounts) {
  const double eps = 1.0;
  std::vector<std::vector<Clustering>> per_worker_results;
  for (const int workers : {1, kManyWorkers}) {
    parallel::ScopedNumWorkers scoped(workers);
    StreamingClusterer<2> stream(eps, 18);
    std::vector<Clustering> results;
    uint64_t first = 0;
    for (size_t round = 0; round < 4; ++round) {
      const auto ins =
          GenerateShape<2>(pdbscan::testing::kAllShapes[round % 5],
                           150 + 40 * round, 1000 + round);
      std::vector<uint64_t> del;
      for (uint64_t id = first / 2; id < first / 2 + 20 * round; ++id) {
        del.push_back(id);
      }
      first = stream.ApplyUpdates(ins, del) + ins.size();
      results.push_back(stream.Run(6));
      results.push_back(stream.Run(25));  // Over-cap recount path.
    }
    per_worker_results.push_back(std::move(results));
  }
  ASSERT_EQ(per_worker_results[0].size(), per_worker_results[1].size());
  for (size_t i = 0; i < per_worker_results[0].size(); ++i) {
    ExpectIdentical(per_worker_results[0][i], per_worker_results[1][i],
                    "streaming step " + std::to_string(i));
  }
}

// --- Cell layout -------------------------------------------------------------
//
// Cluster ids must not depend on the order of the cells in memory: the same
// cells, laid out in another order, give a bit-identical Clustering. Each
// input's cells are permuted (cell c of the copy is cell perm[c] of the
// original, its points in the same order, every CSR entry remapped) and the
// query half runs on both layouts.

template <int D>
CellStructure<D> PermuteCells(const CellStructure<D>& cells,
                              const std::vector<uint32_t>& perm) {
  const size_t m = cells.num_cells();
  std::vector<uint32_t> new_id(m);
  for (size_t c = 0; c < m; ++c) new_id[perm[c]] = static_cast<uint32_t>(c);
  CellStructure<D> out;
  out.epsilon = cells.epsilon;
  out.metric = cells.metric;
  out.ResizeForCells(m, cells.num_points());
  for (size_t c = 0; c < m; ++c) out.offsets[c] = cells.cell_size(perm[c]);
  primitives::ScanExclusive(
      std::span<size_t>(out.offsets.data(), out.offsets.size()));
  out.nbr_offsets.assign(m + 1, 0);
  for (size_t c = 0; c < m; ++c) {
    const size_t from = cells.offsets[perm[c]];
    for (size_t k = 0; k < out.cell_size(c); ++k) {
      out.points[out.offsets[c] + k] = cells.points[from + k];
      out.orig_index[out.offsets[c] + k] = cells.orig_index[from + k];
    }
    out.coords[c] = cells.coords[perm[c]];
    out.cell_boxes[c] = cells.cell_boxes[perm[c]];
    for (const uint32_t h : cells.neighbors(perm[c])) {
      out.nbrs.push_back(new_id[h]);
    }
    out.nbr_offsets[c + 1] = out.nbrs.size();
  }
  out.BuildSoALanes();
  return out;
}

template <int D>
Clustering RunQueryHalf(const CellStructure<D>& cells, size_t min_pts,
                        const Options& options) {
  const std::vector<std::unique_ptr<geometry::CellQuadtree<D>>>* no_trees =
      nullptr;  // The scan method reads no trees.
  std::vector<uint32_t> counts;
  dbscan::MarkCoreCounts(cells, min_pts, RangeCountMethod::kScan, no_trees,
                         counts);
  dbscan::Workspace<D> ws;
  dbscan::PipelineStats stats;
  return dbscan::RunQueryFromCounts(cells, std::span<const uint32_t>(counts),
                                    min_pts, options, ws, stats);
}

template <int D>
void ExpectLayoutIndependent(const std::vector<Point<D>>& pts, double eps,
                             size_t min_pts,
                             const std::vector<Options>& configs,
                             const std::string& what) {
  const auto cells = dbscan::BuildGrid<D>(pts, eps);
  const size_t m = cells.num_cells();
  std::vector<uint32_t> reversed(m);
  std::iota(reversed.rbegin(), reversed.rend(), 0u);
  std::vector<uint32_t> shuffled(m);
  std::iota(shuffled.begin(), shuffled.end(), 0u);
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(m));
  for (const auto& perm : {reversed, shuffled}) {
    const auto permuted = PermuteCells(cells, perm);
    for (const Options& options : configs) {
      for (const int workers : {1, kManyWorkers}) {
        parallel::ScopedNumWorkers scoped(workers);
        ExpectIdentical(RunQueryHalf(cells, min_pts, options),
                        RunQueryHalf(permuted, min_pts, options),
                        what + " " + options.Name() + " at " +
                            std::to_string(workers) + " workers");
      }
    }
  }
}

TEST(Determinism, ClusterIdsIndependentOfCellLayout) {
  // Finalize's tie fixture (test_pipeline_units): input index 0 is a
  // border point and the first member of two clusters, A and B.
  const std::vector<Point<2>> tie = {
      Point<2>{{1.75, 0}},  Point<2>{{40, 40}},   Point<2>{{0, 10}},
      Point<2>{{0.25, 10}}, Point<2>{{0.5, 10}},  Point<2>{{0.75, 10}},
      Point<2>{{0, 0}},     Point<2>{{0.25, 0}},  Point<2>{{0.5, 0}},
      Point<2>{{0.75, 0}},  Point<2>{{2.75, 0}},  Point<2>{{3, 0}},
      Point<2>{{3.25, 0}},  Point<2>{{3.5, 0}},   Point<2>{{-20, 5}}};
  Options star;
  star.core_only = true;
  const std::vector<Options> configs2 = {
      Options{},        OurExactQt(),    Our2dGridUsec(), Our2dGridDelaunay(),
      OurApprox(0.05), star};
  ExpectLayoutIndependent<2>(tie, 1.0, 4, configs2, "tie fixture");
  for (const auto& c : MakeCases(/*base_seed=*/9191, 4)) {
    ExpectLayoutIndependent<2>(GenerateShape<2>(c.shape, c.n, c.seed),
                               c.epsilon, c.min_pts, configs2,
                               "seed=" + std::to_string(c.seed));
  }
  ExpectLayoutIndependent<3>(GenerateShape<3>(Shape::kBlobs, 400, 79), 1.4,
                             8, {Options{}, OurApprox(0.05)}, "3d");
}

}  // namespace
}  // namespace pdbscan
