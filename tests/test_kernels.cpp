// Unit tests for the SIMD distance-kernel layer (src/kernels/) and the
// FlatArray storage extensions that feed it (aligned owned buffers and
// strided views). The end-to-end bit-identity of the dispatched kernels
// through the full pipeline lives in test_property_sweep.cpp
// (KernelPropertySweep); this file exercises the primitives directly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "containers/flat_array.h"
#include "dbscan/grid.h"
#include "geometry/quadtree.h"
#include "kernels/kernel_api.h"

namespace pdbscan {
namespace {

using containers::FlatArray;
using geometry::BBox;
using geometry::Point;

// --- FlatArray: aligned owned storage --------------------------------------

TEST(FlatArrayAligned, AllocateAlignedIs64ByteAligned) {
  FlatArray<double> a;
  for (size_t n : {1ul, 3ul, 8ul, 9ul, 1000ul}) {
    double* p = a.AllocateAligned(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % FlatArray<double>::kAlignment,
              0u)
        << "n=" << n;
    EXPECT_EQ(a.size(), n);
    EXPECT_TRUE(a.is_aligned());
    EXPECT_TRUE(a.contiguous());
    for (size_t i = 0; i < n; ++i) p[i] = static_cast<double>(i);
    // Read through const: the non-const accessors are copy-on-write and
    // would degrade aligned storage to a plain vector.
    const FlatArray<double>& ca = a;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(ca[i], static_cast<double>(i));
  }
}

TEST(FlatArrayAligned, AllocateAlignedZeroIsEmpty) {
  FlatArray<double> a;
  EXPECT_EQ(a.AllocateAligned(0), nullptr);
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.is_aligned());
}

TEST(FlatArrayAligned, CopyDeepCopiesAndStaysAligned) {
  FlatArray<double> a;
  double* p = a.AllocateAligned(5);
  for (size_t i = 0; i < 5; ++i) p[i] = static_cast<double>(10 + i);
  const FlatArray<double> b = a;
  EXPECT_TRUE(b.is_aligned());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) %
                FlatArray<double>::kAlignment,
            0u);
  EXPECT_TRUE(a == b);
  // Deep copy: mutating the source through its base pointer does not
  // affect the copy.
  p[0] = -1.0;
  EXPECT_EQ(b[0], 10.0);
}

TEST(FlatArrayAligned, MoveTransfersStorage) {
  FlatArray<double> a;
  double* p = a.AllocateAligned(4);
  for (size_t i = 0; i < 4; ++i) p[i] = static_cast<double>(i);
  const FlatArray<double> b = std::move(a);
  EXPECT_TRUE(b.is_aligned());
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 4u);
}

TEST(FlatArrayAligned, VectorMutationDegradesToOwnedVector) {
  FlatArray<double> a;
  double* p = a.AllocateAligned(3);
  p[0] = 1.0;
  p[1] = 2.0;
  p[2] = 3.0;
  a.push_back(4.0);
  EXPECT_FALSE(a.is_aligned());
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0], 1.0);
  EXPECT_EQ(a[3], 4.0);
}

TEST(FlatArrayAligned, ElementWritesStayInPlace) {
  FlatArray<double> a;
  double* p = a.AllocateAligned(3);
  a[0] = 1.0;
  *(a.begin() + 1) = 2.0;
  a.data()[2] = 3.0;
  EXPECT_TRUE(a.is_aligned());
  EXPECT_EQ(a.data(), p);
  EXPECT_EQ(p[0], 1.0);
  EXPECT_EQ(p[1], 2.0);
  EXPECT_EQ(p[2], 3.0);
  EXPECT_EQ(a.end() - a.begin(), 3);
}

// --- FlatArray: strided views ----------------------------------------------

TEST(FlatArrayStrided, StridedViewReadsEveryStrideThElement) {
  // AoS buffer of 6 "points" in 3 dimensions; lane d views offset d with
  // stride 3 — exactly how mapped snapshots serve SoA lanes.
  std::vector<double> aos;
  for (int i = 0; i < 6; ++i) {
    for (int d = 0; d < 3; ++d) aos.push_back(i * 10.0 + d);
  }
  for (int d = 0; d < 3; ++d) {
    const auto lane = FlatArray<double>::StridedView(aos.data() + d, 6, 3);
    EXPECT_TRUE(lane.is_view());
    EXPECT_EQ(lane.stride(), 3u);
    EXPECT_FALSE(lane.contiguous());
    ASSERT_EQ(lane.size(), 6u);
    for (size_t i = 0; i < 6; ++i) EXPECT_EQ(lane[i], i * 10.0 + d);
  }
}

TEST(FlatArrayStrided, EqualityComparesElementsAcrossStorageKinds) {
  std::vector<double> aos = {0, 100, 1, 101, 2, 102};
  auto strided = FlatArray<double>::StridedView(aos.data(), 3, 2);
  FlatArray<double> owned(std::vector<double>{0, 1, 2});
  FlatArray<double> aligned;
  double* p = aligned.AllocateAligned(3);
  p[0] = 0;
  p[1] = 1;
  p[2] = 2;
  EXPECT_TRUE(strided == owned);
  EXPECT_TRUE(strided == aligned);
  EXPECT_TRUE(owned == aligned);
  FlatArray<double> different(std::vector<double>{0, 1, 3});
  EXPECT_FALSE(strided == different);
}

TEST(FlatArrayStrided, EnsureOwnedGathersStridedElements) {
  std::vector<double> aos = {0, 100, 1, 101, 2, 102};
  auto lane = FlatArray<double>::StridedView(aos.data(), 3, 2);
  lane.push_back(3.0);  // first mutation gathers the view
  EXPECT_FALSE(lane.is_view());
  EXPECT_EQ(lane.stride(), 1u);
  ASSERT_EQ(lane.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(lane[i], static_cast<double>(i));
}

// --- Dispatch --------------------------------------------------------------

// Restores the ambient dispatch level on scope exit so a failing test can't
// leak a forced level into the rest of the binary.
struct ScopedKernelLevel {
  kernels::Level original = kernels::ActiveLevel();
  ~ScopedKernelLevel() { kernels::ForceLevel(original); }
};

TEST(KernelDispatch, SupportedLevelsStartAtScalarAndAscend) {
  const auto levels = kernels::SupportedLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), kernels::Level::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
  EXPECT_EQ(levels.back(), kernels::BestSupportedLevel());
  for (const auto level : levels) {
    EXPECT_TRUE(kernels::LevelSupported(level));
  }
}

TEST(KernelDispatch, ForceLevelClampsToBestSupported) {
  ScopedKernelLevel restore;
  kernels::ForceLevel(kernels::Level::kScalar);
  EXPECT_EQ(kernels::ActiveLevel(), kernels::Level::kScalar);
  // Asking for the top level clamps to the best this binary+CPU supports.
  kernels::ForceLevel(kernels::Level::kAvx512);
  EXPECT_EQ(kernels::ActiveLevel(), kernels::BestSupportedLevel());
}

TEST(KernelDispatch, ParseLevelRoundTripsNames) {
  for (const auto level :
       {kernels::Level::kScalar, kernels::Level::kAvx2,
        kernels::Level::kAvx512}) {
    kernels::Level parsed;
    ASSERT_TRUE(kernels::ParseLevel(kernels::LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  kernels::Level parsed = kernels::Level::kAvx2;
  EXPECT_FALSE(kernels::ParseLevel("sse9", &parsed));
  EXPECT_EQ(parsed, kernels::Level::kAvx2);  // untouched on failure
}

// --- count_within vs a naive reference -------------------------------------

// The reference performs the accumulation exactly as the contract specifies
// (dimension order, fl(sum + fl(diff*diff))), so agreement must be exact.
size_t ReferenceCountWithin(const std::vector<double>& aos, int dim,
                            const double* q, double eps2, size_t cap) {
  const size_t n = dim > 0 ? aos.size() / static_cast<size_t>(dim) : 0;
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    double d2 = 0;
    for (int d = 0; d < dim; ++d) {
      const double diff = aos[i * static_cast<size_t>(dim) +
                              static_cast<size_t>(d)] -
                          q[d];
      d2 += diff * diff;
    }
    if (d2 <= eps2) ++count;
  }
  return count < cap ? count : cap;
}

TEST(CountWithin, AllLevelsMatchReferenceExactly) {
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  const auto levels = kernels::SupportedLevels();
  const size_t caps[] = {0, 1, 2, 5, 7, 13, SIZE_MAX};
  for (int trial = 0; trial < 400; ++trial) {
    const int dim = 1 + static_cast<int>(rng() % 8);
    const size_t n = rng() % 71;
    std::vector<double> aos(n * static_cast<size_t>(dim));
    for (double& v : aos) v = coord(rng);
    std::array<double, 8> q;
    for (int d = 0; d < dim; ++d) q[static_cast<size_t>(d)] = coord(rng);
    // Half the trials aim eps2 at an exact point distance so the d2 == eps2
    // boundary (<= vs <) is routinely on the line; the rest use a random
    // radius, including tiny ones that exercise the partial-norm prune.
    double eps2;
    if (n > 0 && trial % 2 == 0) {
      const size_t pick = rng() % n;
      eps2 = 0;
      for (int d = 0; d < dim; ++d) {
        const double diff =
            aos[pick * static_cast<size_t>(dim) + static_cast<size_t>(d)] -
            q[static_cast<size_t>(d)];
        eps2 += diff * diff;
      }
    } else {
      std::uniform_real_distribution<double> radius(0.0, 0.5);
      const double r = radius(rng);
      eps2 = r * r;
    }
    // Packed aligned lanes (stride 1) and strided AoS views (stride dim):
    // both must agree with the reference at every level.
    std::array<FlatArray<double>, 8> packed;
    std::array<const double*, 8> packed_lanes;
    std::array<const double*, 8> strided_lanes;
    for (int d = 0; d < dim; ++d) {
      double* dst = packed[static_cast<size_t>(d)].AllocateAligned(n);
      for (size_t i = 0; i < n; ++i) {
        dst[i] = aos[i * static_cast<size_t>(dim) + static_cast<size_t>(d)];
      }
      packed_lanes[static_cast<size_t>(d)] = dst;
      strided_lanes[static_cast<size_t>(d)] =
          n == 0 ? nullptr : aos.data() + d;
    }
    for (const size_t cap : caps) {
      const size_t expected =
          ReferenceCountWithin(aos, dim, q.data(), eps2, cap);
      for (const auto level : levels) {
        kernels::Counters kc;
        const size_t got_packed = kernels::OpsFor(level).count_within(
            packed_lanes.data(), 1, dim, n, q.data(), eps2, cap, &kc);
        EXPECT_EQ(got_packed, expected)
            << kernels::LevelName(level) << " packed trial=" << trial
            << " dim=" << dim << " n=" << n << " cap=" << cap
            << " eps2=" << eps2;
        EXPECT_LE(kc.points_pruned_norm, n);
        const size_t got_strided = kernels::OpsFor(level).count_within(
            strided_lanes.data(), static_cast<size_t>(dim), dim, n, q.data(),
            eps2, cap, nullptr);
        EXPECT_EQ(got_strided, expected)
            << kernels::LevelName(level) << " strided trial=" << trial
            << " dim=" << dim << " n=" << n << " cap=" << cap
            << " eps2=" << eps2;
      }
    }
  }
}

TEST(CountWithin, SimdLevelsRecordBatches) {
  // Not part of the result contract, but the observability counters should
  // actually move: a big unsaturated scan at a SIMD level executes batches.
  for (const auto level : kernels::SupportedLevels()) {
    if (level == kernels::Level::kScalar) continue;
    const size_t n = 64;
    FlatArray<double> lane_x, lane_y;
    double* xs = lane_x.AllocateAligned(n);
    double* ys = lane_y.AllocateAligned(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = static_cast<double>(i);
      ys[i] = 0.0;
    }
    const double q[2] = {0.0, 0.0};
    const double* lanes[2] = {xs, ys};
    kernels::Counters kc;
    const size_t got = kernels::OpsFor(level).count_within(
        lanes, 1, 2, n, q, 4.1 * 4.1, SIZE_MAX, &kc);
    EXPECT_EQ(got, 5u) << kernels::LevelName(level);  // x in {0..4}
    EXPECT_GT(kc.batches, 0u) << kernels::LevelName(level);
    // Far batches (first coordinate alone beyond eps) are norm-pruned.
    EXPECT_GT(kc.points_pruned_norm, 0u) << kernels::LevelName(level);
  }
}

// --- SoA lanes on built structures -----------------------------------------

template <int D>
std::vector<Point<D>> RandomPoints(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::vector<Point<D>> pts(n);
  for (auto& p : pts) {
    for (int d = 0; d < D; ++d) p[d] = coord(rng);
  }
  return pts;
}

TEST(SoALanes, BuildGridPopulatesAlignedLanesMatchingPoints) {
  const auto pts = RandomPoints<3>(257, 99);
  const auto cells = dbscan::BuildGrid<3>(pts, 0.15);
  ASSERT_TRUE(cells.has_soa());
  EXPECT_EQ(cells.soa_stride(), 1u);
  for (int d = 0; d < 3; ++d) {
    const auto& lane = cells.soa[static_cast<size_t>(d)];
    EXPECT_TRUE(lane.is_aligned());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(lane.data()) %
                  FlatArray<double>::kAlignment,
              0u);
    ASSERT_EQ(lane.size(), cells.points.size());
    for (size_t i = 0; i < lane.size(); ++i) {
      EXPECT_EQ(lane[i], cells.points[i][d]);
    }
  }
}

TEST(SoALanes, ViewLanesServePointsWithStrideD) {
  dbscan::CellStructure<2> cells;
  cells.points = {Point<2>{{0.0, 1.0}}, Point<2>{{2.0, 3.0}},
                  Point<2>{{4.0, 5.0}}};
  cells.ViewSoALanesFromPoints();
  ASSERT_TRUE(cells.has_soa());
  EXPECT_EQ(cells.soa_stride(), 2u);
  for (int d = 0; d < 2; ++d) {
    const auto& lane = cells.soa[static_cast<size_t>(d)];
    EXPECT_TRUE(lane.is_view());
    ASSERT_EQ(lane.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(lane[i], cells.points[i][d]);
    }
  }
}

// --- Quadtree leaf scans across levels -------------------------------------

TEST(QuadtreeKernels, CountInBallIdenticalAcrossLevels) {
  ScopedKernelLevel restore;
  const auto pts = RandomPoints<2>(300, 7);
  std::vector<uint32_t> indices(pts.size());
  for (uint32_t i = 0; i < indices.size(); ++i) indices[i] = i;
  auto box = BBox<2>::Empty();
  for (const auto& p : pts) box.Extend(p);
  const geometry::CellQuadtree<2> tree(pts, indices, box);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> coord(-0.1, 1.1);
  std::uniform_real_distribution<double> radius(0.0, 0.4);
  for (int trial = 0; trial < 50; ++trial) {
    Point<2> center{{coord(rng), coord(rng)}};
    const double r = radius(rng);
    const size_t cap = trial % 3 == 0 ? 1 + rng() % 10 : SIZE_MAX;
    kernels::ForceLevel(kernels::Level::kScalar);
    const size_t expected = tree.CountInBall(center, r, cap);
    for (const auto level : kernels::SupportedLevels()) {
      kernels::ForceLevel(level);
      EXPECT_EQ(tree.CountInBall(center, r, cap), expected)
          << kernels::LevelName(level) << " trial=" << trial << " r=" << r
          << " cap=" << cap;
    }
  }
}

}  // namespace
}  // namespace pdbscan
