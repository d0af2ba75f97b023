// Tests for cell construction: grid (Section 4.1) and 2D boxes (Section 4.2).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dbscan/box_cells.h"
#include "dbscan/grid.h"
#include "geometry/point.h"
#include "parallel/scheduler.h"

namespace pdbscan {
namespace {

using dbscan::CellStructure;
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

// Invariants every cell structure must satisfy.
template <int D>
void CheckCellInvariants(const CellStructure<D>& cells,
                         const std::vector<Point<D>>& input, double epsilon) {
  const size_t n = input.size();
  ASSERT_EQ(cells.num_points(), n);
  ASSERT_EQ(cells.offsets.front(), 0u);
  ASSERT_EQ(cells.offsets.back(), n);

  // orig_index is a permutation and points are consistent with it.
  std::vector<uint8_t> seen(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t orig = cells.orig_index[i];
    ASSERT_LT(orig, n);
    ASSERT_EQ(seen[orig], 0);
    seen[orig] = 1;
    ASSERT_TRUE(cells.points[i] == input[orig]);
  }

  const double eps2 = epsilon * epsilon;
  for (size_t c = 0; c < cells.num_cells(); ++c) {
    ASSERT_GT(cells.cell_size(c), 0u) << "empty cell " << c;
    // Cell diameter at most epsilon: all pairs within the cell are close.
    const auto pts = cells.cell_points(c);
    for (size_t i = 0; i < pts.size(); ++i) {
      for (size_t j = i + 1; j < pts.size(); ++j) {
        ASSERT_LE(pts[i].SquaredDistance(pts[j]), eps2 * (1 + 1e-9))
            << "cell " << c;
      }
      // Points lie inside the cell's box.
      ASSERT_LE(cells.cell_boxes[c].MinSquaredDistance(pts[i]), 1e-18);
    }
  }

  // Neighbor adjacency is symmetric, excludes self, and is *complete*: any
  // two cells with points within epsilon must be neighbors.
  std::set<std::pair<uint32_t, uint32_t>> nbr_set;
  for (size_t c = 0; c < cells.num_cells(); ++c) {
    for (const uint32_t h : cells.neighbors(c)) {
      ASSERT_NE(h, c);
      nbr_set.insert({static_cast<uint32_t>(c), h});
    }
  }
  for (const auto& [a, b] : nbr_set) {
    ASSERT_TRUE(nbr_set.count({b, a})) << a << " " << b;
  }
  for (size_t a = 0; a < cells.num_cells(); ++a) {
    for (size_t b = a + 1; b < cells.num_cells(); ++b) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& p : cells.cell_points(a)) {
        for (const auto& q : cells.cell_points(b)) {
          best = std::min(best, p.SquaredDistance(q));
        }
      }
      if (best <= eps2) {
        ASSERT_TRUE(nbr_set.count({static_cast<uint32_t>(a),
                                   static_cast<uint32_t>(b)}))
            << "cells " << a << " and " << b << " have points within epsilon "
            << "but are not neighbors";
      }
    }
  }
}

TEST(Grid, Invariants2d) {
  auto pts = RandomPoints<2>(800, 20.0, 1);
  auto cells = dbscan::BuildGrid<2>(pts, 1.5);
  CheckCellInvariants(cells, pts, 1.5);
}

TEST(Grid, Invariants3d) {
  auto pts = RandomPoints<3>(600, 10.0, 2);
  auto cells = dbscan::BuildGrid<3>(pts, 2.0);
  CheckCellInvariants(cells, pts, 2.0);
}

TEST(Grid, Invariants5d) {
  auto pts = RandomPoints<5>(400, 6.0, 3);
  auto cells = dbscan::BuildGrid<5>(pts, 2.5);
  CheckCellInvariants(cells, pts, 2.5);
}

TEST(Grid, Invariants7d) {
  auto pts = RandomPoints<7>(300, 5.0, 4);
  auto cells = dbscan::BuildGrid<7>(pts, 3.0);
  CheckCellInvariants(cells, pts, 3.0);
}

TEST(Grid, SideLengthIsEpsilonOverSqrtD) {
  auto pts = RandomPoints<3>(100, 10.0, 5);
  auto cells = dbscan::BuildGrid<3>(pts, 3.0);
  for (size_t c = 0; c < cells.num_cells(); ++c) {
    const auto& box = cells.cell_boxes[c];
    for (int k = 0; k < 3; ++k) {
      EXPECT_NEAR(box.max[k] - box.min[k], 3.0 / std::sqrt(3.0), 1e-12);
    }
  }
}

TEST(Grid, EmptyInput) {
  std::vector<Point<2>> pts;
  auto cells = dbscan::BuildGrid<2>(pts, 1.0);
  EXPECT_EQ(cells.num_cells(), 0u);
  EXPECT_EQ(cells.num_points(), 0u);
}

TEST(Grid, SinglePointSingleCell) {
  std::vector<Point<2>> pts = {Point<2>{{3, 4}}};
  auto cells = dbscan::BuildGrid<2>(pts, 1.0);
  EXPECT_EQ(cells.num_cells(), 1u);
  EXPECT_EQ(cells.cell_size(0), 1u);
  EXPECT_TRUE(cells.neighbors(0).empty());
}

TEST(Grid, CoincidentPointsShareOneCell) {
  std::vector<Point<3>> pts(500, Point<3>{{1, 2, 3}});
  auto cells = dbscan::BuildGrid<3>(pts, 1.0);
  EXPECT_EQ(cells.num_cells(), 1u);
  EXPECT_EQ(cells.cell_size(0), 500u);
}

TEST(Grid, NegativeCoordinatesWork) {
  auto pts = RandomPoints<2>(300, 10.0, 7);
  for (auto& p : pts) {
    p[0] -= 20.0;
    p[1] -= 5.0;
  }
  auto cells = dbscan::BuildGrid<2>(pts, 1.0);
  CheckCellInvariants(cells, pts, 1.0);
}

TEST(Grid, DeterministicAcrossWorkerCounts) {
  auto pts = RandomPoints<3>(2000, 15.0, 8);
  parallel::set_num_workers(1);
  auto serial = dbscan::BuildGrid<3>(pts, 1.2);
  parallel::set_num_workers(8);
  auto parallel_cells = dbscan::BuildGrid<3>(pts, 1.2);
  EXPECT_EQ(serial.offsets, parallel_cells.offsets);
  EXPECT_EQ(serial.orig_index, parallel_cells.orig_index);
  EXPECT_EQ(serial.nbr_offsets, parallel_cells.nbr_offsets);
  EXPECT_EQ(serial.nbrs, parallel_cells.nbrs);
}

// --- Exact-order adjacency ----------------------------------------------------
//
// The CSR neighbor lists are part of the adjacency contract down to their
// order: each cell lists its neighbors in ascending lexicographic order of
// their coordinates, for every D. The reference below shares no code with
// the builder: it tests cell pairs against its own copy of the integer
// criterion and sorts each list; the builder must match it exactly, not
// only as a set.

template <int D>
using CoordsList = std::vector<geometry::CellCoords<D>>;

// The largest per-axis |delta| the criterion admits.
template <int D>
int64_t ReferenceReach(Metric metric) {
  switch (metric) {
    case Metric::kL2: {
      int64_t g = 0;
      while ((g + 1) * (g + 1) <= D) ++g;
      return 1 + g;
    }
    case Metric::kL1: return D + 1;
    case Metric::kLinf: return 2;
  }
  return 0;
}

// Cells at coordinate offset a - b can hold eps-close points: the sum over
// axes of gap^2 (L2) or gap (L1), gap = max(0, |delta| - 1), is at most D;
// under Linf every |delta| is at most 2.
template <int D>
bool ReferenceWithinEpsilon(const geometry::CellCoords<D>& a,
                            const geometry::CellCoords<D>& b, Metric metric) {
  int64_t sum = 0;
  for (int i = 0; i < D; ++i) {
    const int64_t gap = std::max<int64_t>(0, std::abs(a[i] - b[i]) - 1);
    if (gap > ReferenceReach<D>(metric) - 1) return false;
    if (metric == Metric::kL2) sum += gap * gap;
    if (metric == Metric::kL1) sum += gap;
  }
  return sum <= D;
}

// Neighbor positions (into `coords`) of every position, each list sorted by
// the neighbors' coordinates. Pairs are only tested within a window of the
// coordinate sum, which no neighbor can leave: |sum of delta| <= D * reach.
template <int D>
std::vector<std::vector<size_t>> ReferenceNeighbors(const CoordsList<D>& coords,
                                                    Metric metric) {
  const auto sum = [&](size_t i) {
    return std::accumulate(coords[i].begin(), coords[i].end(), int64_t{0});
  };
  std::vector<size_t> by_sum(coords.size());
  std::iota(by_sum.begin(), by_sum.end(), size_t{0});
  std::sort(by_sum.begin(), by_sum.end(),
            [&](size_t x, size_t y) { return sum(x) < sum(y); });
  const int64_t window = D * ReferenceReach<D>(metric);
  std::vector<std::vector<size_t>> out(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    const auto first = std::partition_point(
        by_sum.begin(), by_sum.end(),
        [&](size_t j) { return sum(j) < sum(i) - window; });
    for (auto it = first; it != by_sum.end() && sum(*it) <= sum(i) + window;
         ++it) {
      if (*it != i && ReferenceWithinEpsilon<D>(coords[i], coords[*it],
                                                metric)) {
        out[i].push_back(*it);
      }
    }
    std::sort(out[i].begin(), out[i].end(),
              [&](size_t x, size_t y) { return coords[x] < coords[y]; });
  }
  return out;
}

// A hand-assembled structure holding only what adjacency reads: the cell
// coordinates and the metric (every cell is empty of points).
template <int D>
CellStructure<D> CoordsOnlyStructure(const CoordsList<D>& coords,
                                     Metric metric) {
  CellStructure<D> cells;
  cells.metric = metric;
  cells.offsets.assign(coords.size() + 1, 0);
  cells.coords.resize(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) cells.coords[i] = coords[i];
  return cells;
}

template <int D>
void ExpectCsrMatches(const CellStructure<D>& cells,
                      const std::vector<std::vector<size_t>>& expected,
                      const std::string& what) {
  const size_t num_cells = cells.coords.size();
  ASSERT_EQ(expected.size(), num_cells) << what;
  ASSERT_EQ(cells.nbr_offsets.size(), num_cells + 1) << what;
  EXPECT_EQ(cells.nbr_offsets[0], 0u) << what;
  for (size_t c = 0; c < num_cells; ++c) {
    const auto got = cells.neighbors(c);
    ASSERT_EQ(std::vector<size_t>(got.begin(), got.end()), expected[c])
        << what << ": cell " << c;
  }
  EXPECT_EQ(cells.nbrs.size(), cells.nbr_offsets[num_cells]) << what;
}

template <int D>
void ExpectCsrMatchesReference(const CellStructure<D>& cells,
                               const std::string& what) {
  const CoordsList<D> coords(cells.coords.begin(), cells.coords.end());
  ExpectCsrMatches<D>(cells, ReferenceNeighbors<D>(coords, cells.metric),
                      what);
}

// Distinct random cell coordinates: `count` draws from [base - span,
// base + span]^D, duplicates dropped, in random order.
template <int D>
CoordsList<D> RandomCoords(size_t count, int64_t base, int64_t span,
                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> coord(base - span, base + span);
  std::set<geometry::CellCoords<D>> seen;
  CoordsList<D> out;
  for (size_t i = 0; i < count; ++i) {
    geometry::CellCoords<D> c;
    for (int a = 0; a < D; ++a) c[a] = coord(rng);
    if (seen.insert(c).second) out.push_back(c);
  }
  return out;
}

// Every cell in one row: distinct last coordinates with gaps, shared prefix.
template <int D>
CoordsList<D> OneRowCoords(size_t count, uint64_t seed) {
  CoordsList<D> out;
  std::mt19937_64 rng(seed);
  int64_t last = -static_cast<int64_t>(count);
  for (size_t i = 0; i < count; ++i) {
    last += 1 + static_cast<int64_t>(rng() % 3);
    geometry::CellCoords<D> c{};
    for (int a = 0; a + 1 < D; ++a) c[a] = 7;
    c[D - 1] = last;
    out.push_back(c);
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// Every cell in its own row: one shared last coordinate.
template <int D>
CoordsList<D> OneRowPerCellCoords(size_t count, uint64_t seed) {
  auto out = RandomCoords<D>(count, 0, 6, seed);
  std::set<geometry::CellCoords<D>> seen;
  CoordsList<D> unique;
  for (auto c : out) {
    c[D - 1] = -3;
    if (seen.insert(c).second) unique.push_back(c);
  }
  return unique;
}

// Rows of 4095, 4096, 4097 and 8193 cells among 253 one-cell rows: the
// last two rows split into segments of at most 4096 cells, the first 128
// one-cell rows fill a whole block of short rows, and one-cell rows sit
// between the long rows, two rows apart, so every long row and segment is
// adjacent to short rows and to another long row. At D = 1 every cell is
// in one row, which then splits into six segments.
template <int D>
CoordsList<D> SplitRowCoords(uint64_t seed) {
  std::mt19937_64 rng(seed);
  CoordsList<D> out;
  int64_t row = 0;
  int64_t next_last = 0;  // D = 1: keeps the rows' cells distinct.
  const auto add_row = [&](size_t count) {
    int64_t last = D == 1 ? next_last : -static_cast<int64_t>(count) - 20;
    if (count == 1 && D > 1) last += static_cast<int64_t>(rng() % 40);
    for (size_t i = 0; i < count; ++i) {
      last += 1 + static_cast<int64_t>(rng() % 3);
      geometry::CellCoords<D> c{};
      if constexpr (D > 1) c[0] = row;
      c[D - 1] = last;
      out.push_back(c);
    }
    next_last = last + 1;
    ++row;
  };
  for (int i = 0; i < 150; ++i) add_row(1);
  for (const size_t count : {4095, 4096, 4097, 8193}) {
    add_row(count);
    if (count != 8193) add_row(1);
  }
  for (int i = 0; i < 100; ++i) add_row(1);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

constexpr Metric kAllMetrics[] = {
    Metric::kL2, Metric::kL1, Metric::kLinf};

// Shapes for D >= 4 stay near 2k cells or fewer, with denser spans, so the
// reference stays fast and cells still have many neighbors.
template <int D>
void CheckExactOrderAdjacency() {
  constexpr int64_t kFar = int64_t{1} << 40;
  constexpr bool kLow = D <= 3;
  std::vector<std::pair<std::string, CoordsList<D>>> shapes = {
      {"empty", {}},
      {"single", {geometry::CellCoords<D>{}}},
      {"dense", RandomCoords<D>(kLow ? 3000 : 1500, 0, kLow ? 9 : 2, 101 + D)},
      {"sparse",
       RandomCoords<D>(kLow ? 2000 : 1500, 0, kLow ? 60 : 6, 202 + D)},
      {"one_row", OneRowCoords<D>(kLow ? 10000 : 2000, 303 + D)},
      {"one_row_per_cell", OneRowPerCellCoords<D>(400, 404 + D)},
      {"near_plus_2^40", RandomCoords<D>(kLow ? 1500 : 800, kFar, kLow ? 8 : 3,
                                         505 + D)},
      {"near_minus_2^40", RandomCoords<D>(kLow ? 1500 : 800, -kFar,
                                          kLow ? 8 : 3, 606 + D)},
  };
  if (kLow) shapes.emplace_back("split_rows", SplitRowCoords<D>(707 + D));
  for (const Metric metric : kAllMetrics) {
    for (const auto& [name, coords] : shapes) {
      const auto expected = ReferenceNeighbors<D>(coords, metric);
      for (const int workers : {1, 4}) {
        parallel::ScopedNumWorkers scoped(workers);
        auto cells = CoordsOnlyStructure<D>(coords, metric);
        dbscan::BuildGridAdjacency<D>(cells);
        ExpectCsrMatches<D>(
            cells, expected,
            "D=" + std::to_string(D) + " " + name + " metric=" +
                std::to_string(static_cast<int>(metric)) +
                " P=" + std::to_string(workers));
      }
    }
  }
}

TEST(GridAdjacency, ExactOdometerOrder1d) { CheckExactOrderAdjacency<1>(); }
TEST(GridAdjacency, ExactOdometerOrder2d) { CheckExactOrderAdjacency<2>(); }
TEST(GridAdjacency, ExactOdometerOrder3d) { CheckExactOrderAdjacency<3>(); }
TEST(GridAdjacency, ExactOdometerOrder4d) { CheckExactOrderAdjacency<4>(); }
TEST(GridAdjacency, ExactOdometerOrder5d) { CheckExactOrderAdjacency<5>(); }
TEST(GridAdjacency, ExactOdometerOrder6d) { CheckExactOrderAdjacency<6>(); }
TEST(GridAdjacency, ExactOdometerOrder7d) { CheckExactOrderAdjacency<7>(); }

// The same contract through the full builder: random points, every metric.
TEST(GridAdjacency, BuildGridMatchesReference) {
  for (const int workers : {1, 4}) {
    parallel::ScopedNumWorkers scoped(workers);
    for (const Metric metric : kAllMetrics) {
      auto pts2 = RandomPoints<2>(4000, 30.0, 31);
      ExpectCsrMatchesReference<2>(
          dbscan::BuildGrid<2>(pts2, 0.7, nullptr, metric), "2d points");
      auto pts3 = RandomPoints<3>(4000, 12.0, 32);
      ExpectCsrMatchesReference<3>(
          dbscan::BuildGrid<3>(pts3, 0.9, nullptr, metric), "3d points");
    }
  }
}

// Two clumps ~2^40 cells apart along x under a tiny epsilon: the coordinate
// range exceeds 32 bits, and adjacency is still exact.
TEST(GridAdjacency, HugeExtentTinyEpsilon) {
  const double eps = 1e-3;
  const double far = std::ldexp(dbscan::GridSide<2>(eps), 40);
  auto pts = RandomPoints<2>(3000, 0.02, 33);
  for (size_t i = 0; i < pts.size(); i += 2) pts[i][0] += far;
  for (const int workers : {1, 4}) {
    parallel::ScopedNumWorkers scoped(workers);
    auto cells = dbscan::BuildGrid<2>(pts, eps);
    int64_t hi = 0;
    for (size_t c = 0; c < cells.num_cells(); ++c) {
      hi = std::max(hi, cells.coords[c][0]);
    }
    EXPECT_GT(hi, int64_t{1} << 39);
    ExpectCsrMatchesReference<2>(cells, "huge extent");
  }
}

// --- Box method ---------------------------------------------------------------

TEST(BoxCells, Invariants) {
  for (uint64_t seed : {11, 12, 13}) {
    auto pts = RandomPoints<2>(700, 25.0, seed);
    auto cells = dbscan::BuildBoxCells(pts, 2.0);
    CheckCellInvariants(cells, pts, 2.0);
  }
}

TEST(BoxCells, StripWidthRespected) {
  auto pts = RandomPoints<2>(1000, 30.0, 14);
  const double epsilon = 2.0;
  auto cells = dbscan::BuildBoxCells(pts, epsilon);
  const double width = epsilon / std::sqrt(2.0);
  for (size_t c = 0; c < cells.num_cells(); ++c) {
    const auto& box = cells.cell_boxes[c];
    EXPECT_LE(box.max[0] - box.min[0], width * (1 + 1e-12));
    EXPECT_LE(box.max[1] - box.min[1], width * (1 + 1e-12));
  }
}

TEST(BoxCells, CellBoxesAreSeparatedAlongAnAxis) {
  auto pts = RandomPoints<2>(500, 20.0, 15);
  auto cells = dbscan::BuildBoxCells(pts, 1.7);
  for (size_t a = 0; a < cells.num_cells(); ++a) {
    for (size_t b = a + 1; b < cells.num_cells(); ++b) {
      const auto& ba = cells.cell_boxes[a];
      const auto& bb = cells.cell_boxes[b];
      const bool x_sep = ba.max[0] <= bb.min[0] || bb.max[0] <= ba.min[0];
      const bool y_sep = ba.max[1] <= bb.min[1] || bb.max[1] <= ba.min[1];
      ASSERT_TRUE(x_sep || y_sep) << "cells " << a << "," << b;
    }
  }
}

TEST(BoxCells, MatchesSequentialStripConstruction) {
  // Reference: the sequential strip rule of de Berg et al. / Gunawan.
  auto pts = RandomPoints<2>(400, 15.0, 16);
  const double epsilon = 1.3;
  const double width = epsilon / std::sqrt(2.0);
  auto cells = dbscan::BuildBoxCells(pts, epsilon);

  std::vector<uint32_t> order(pts.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (pts[a][0] != pts[b][0]) return pts[a][0] < pts[b][0];
    if (pts[a][1] != pts[b][1]) return pts[a][1] < pts[b][1];
    return a < b;
  });
  std::vector<size_t> strip_of(pts.size());
  size_t strips = 0;
  double strip_start = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const double x = pts[order[i]][0];
    if (i == 0 || x > strip_start + width) {
      ++strips;
      strip_start = x;
    }
    strip_of[order[i]] = strips - 1;
  }
  // Count strips in the parallel construction through cell box extents:
  // group cells by x-interval.
  std::set<long long> strip_keys;
  for (size_t i = 0; i < pts.size(); ++i) {
    // Recover each point's strip from the reference; compare total counts.
    strip_keys.insert(static_cast<long long>(strip_of[i]));
  }
  EXPECT_EQ(strip_keys.size(), strips);
  // And the parallel cells must never straddle a reference strip boundary:
  for (size_t c = 0; c < cells.num_cells(); ++c) {
    const size_t begin = cells.offsets[c];
    const size_t strip0 = strip_of[cells.orig_index[begin]];
    for (size_t i = begin; i < cells.offsets[c + 1]; ++i) {
      ASSERT_EQ(strip_of[cells.orig_index[i]], strip0) << "cell " << c;
    }
  }
}

TEST(BoxCells, EmptyAndSinglePoint) {
  std::vector<Point<2>> pts;
  auto cells = dbscan::BuildBoxCells(pts, 1.0);
  EXPECT_EQ(cells.num_cells(), 0u);
  pts.push_back(Point<2>{{1, 1}});
  cells = dbscan::BuildBoxCells(pts, 1.0);
  EXPECT_EQ(cells.num_cells(), 1u);
  EXPECT_EQ(cells.cell_size(0), 1u);
}

TEST(BoxCells, DeterministicAcrossWorkerCounts) {
  auto pts = RandomPoints<2>(3000, 40.0, 17);
  parallel::set_num_workers(1);
  auto serial = dbscan::BuildBoxCells(pts, 1.1);
  parallel::set_num_workers(8);
  auto par = dbscan::BuildBoxCells(pts, 1.1);
  EXPECT_EQ(serial.offsets, par.offsets);
  EXPECT_EQ(serial.orig_index, par.orig_index);
  EXPECT_EQ(serial.nbrs, par.nbrs);
}

}  // namespace
}  // namespace pdbscan
