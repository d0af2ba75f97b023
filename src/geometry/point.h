// Points, bounding boxes and grid-cell coordinates in D dimensions.
//
// D is a compile-time parameter: distance loops unroll and cell coordinates
// are fixed-size integer tuples. The library instantiates the dimensions
// exercised by the paper's evaluation (2, 3, 5, 7, 13) plus 4 for
// generality tests; see pdbscan/pdbscan.h for the runtime dispatch.
#ifndef PDBSCAN_GEOMETRY_POINT_H_
#define PDBSCAN_GEOMETRY_POINT_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "primitives/random.h"

namespace pdbscan::geometry {

template <int D>
struct Point {
  static_assert(D >= 1, "dimension must be positive");
  std::array<double, D> x;

  double& operator[](int i) { return x[static_cast<size_t>(i)]; }
  double operator[](int i) const { return x[static_cast<size_t>(i)]; }

  bool operator==(const Point& o) const { return x == o.x; }

  double SquaredDistance(const Point& o) const {
    double d2 = 0;
    for (int i = 0; i < D; ++i) {
      const double d = x[static_cast<size_t>(i)] - o.x[static_cast<size_t>(i)];
      d2 += d * d;
    }
    return d2;
  }

  double Distance(const Point& o) const { return std::sqrt(SquaredDistance(o)); }

  // L1 (Manhattan) distance, accumulated in dimension order — the scalar
  // reference the SIMD L1 kernels must match bit for bit.
  double L1Distance(const Point& o) const {
    double s = 0;
    for (int i = 0; i < D; ++i) {
      s += std::abs(x[static_cast<size_t>(i)] - o.x[static_cast<size_t>(i)]);
    }
    return s;
  }

  // L-infinity (Chebyshev) distance: the largest per-axis difference.
  double LinfDistance(const Point& o) const {
    double m = 0;
    for (int i = 0; i < D; ++i) {
      const double d =
          std::abs(x[static_cast<size_t>(i)] - o.x[static_cast<size_t>(i)]);
      if (d > m) m = d;
    }
    return m;
  }
};

// Integer grid-cell coordinates (the cell a point falls into when space is
// partitioned into cells of side epsilon / sqrt(D), Section 3 of the paper).
// 64-bit: small epsilon relative to the data extent produces very large
// coordinate magnitudes.
template <int D>
using CellCoords = std::array<int64_t, D>;

template <int D>
uint64_t HashCellCoords(const CellCoords<D>& c) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < D; ++i) {
    h = primitives::HashCombine64(
        h, static_cast<uint64_t>(c[static_cast<size_t>(i)]));
  }
  return h;
}

// Axis-aligned bounding box.
template <int D>
struct BBox {
  Point<D> min;
  Point<D> max;

  static BBox Empty() {
    BBox b;
    for (int i = 0; i < D; ++i) {
      b.min[i] = std::numeric_limits<double>::infinity();
      b.max[i] = -std::numeric_limits<double>::infinity();
    }
    return b;
  }

  void Extend(const Point<D>& p) {
    for (int i = 0; i < D; ++i) {
      if (p[i] < min[i]) min[i] = p[i];
      if (p[i] > max[i]) max[i] = p[i];
    }
  }

  void Extend(const BBox& o) {
    for (int i = 0; i < D; ++i) {
      if (o.min[i] < min[i]) min[i] = o.min[i];
      if (o.max[i] > max[i]) max[i] = o.max[i];
    }
  }

  bool Contains(const Point<D>& p) const {
    for (int i = 0; i < D; ++i) {
      if (p[i] < min[i] || p[i] > max[i]) return false;
    }
    return true;
  }

  // Smallest squared distance from p to any point of the box (0 if inside).
  double MinSquaredDistance(const Point<D>& p) const {
    double d2 = 0;
    for (int i = 0; i < D; ++i) {
      double d = 0;
      if (p[i] < min[i]) {
        d = min[i] - p[i];
      } else if (p[i] > max[i]) {
        d = p[i] - max[i];
      }
      d2 += d * d;
    }
    return d2;
  }

  // Largest squared distance from p to any point of the box.
  double MaxSquaredDistance(const Point<D>& p) const {
    double d2 = 0;
    for (int i = 0; i < D; ++i) {
      const double lo = p[i] - min[i];
      const double hi = max[i] - p[i];
      const double d = std::abs(lo) > std::abs(hi) ? lo : hi;
      d2 += d * d;
    }
    return d2;
  }

  // Smallest L1 distance from p to any point of the box (0 if inside).
  double MinL1Distance(const Point<D>& p) const {
    double s = 0;
    for (int i = 0; i < D; ++i) {
      if (p[i] < min[i]) {
        s += min[i] - p[i];
      } else if (p[i] > max[i]) {
        s += p[i] - max[i];
      }
    }
    return s;
  }

  // Smallest L-infinity distance from p to any point of the box (0 if inside).
  double MinLinfDistance(const Point<D>& p) const {
    double m = 0;
    for (int i = 0; i < D; ++i) {
      double d = 0;
      if (p[i] < min[i]) {
        d = min[i] - p[i];
      } else if (p[i] > max[i]) {
        d = p[i] - max[i];
      }
      if (d > m) m = d;
    }
    return m;
  }

  // Smallest squared distance between any point of this box and any point of
  // the other box (0 if they intersect).
  double MinSquaredDistance(const BBox& o) const {
    double d2 = 0;
    for (int i = 0; i < D; ++i) {
      double d = 0;
      if (o.max[i] < min[i]) {
        d = min[i] - o.max[i];
      } else if (o.min[i] > max[i]) {
        d = o.min[i] - max[i];
      }
      d2 += d * d;
    }
    return d2;
  }
};

// Computes the bounding box of a point range.
template <int D>
BBox<D> ComputeBBox(const Point<D>* points, size_t n) {
  BBox<D> box = BBox<D>::Empty();
  for (size_t i = 0; i < n; ++i) box.Extend(points[i]);
  return box;
}

// The grid coordinate floor(offset / side) of a point `offset` past the
// grid origin along one axis. Throws std::invalid_argument when it is not
// finite or has magnitude 2^62 or more (a NaN point, or a tiny side over a
// wide extent): the cast to int64_t would be undefined, and the bound
// leaves the cell-neighbor walk's +-reach arithmetic room.
inline int64_t CellCoordinate(double offset, double side) {
  const double q = std::floor(offset / side);
  if (!(std::abs(q) < 0x1p62)) {
    throw std::invalid_argument(
        "cell coordinate out of range: epsilon too small for the extent of "
        "the points, or a coordinate is not finite");
  }
  return static_cast<int64_t>(q);
}

// The grid cell containing p, for a grid anchored at `origin` with cells of
// side `side` (throws as CellCoordinate does).
template <int D>
CellCoords<D> CellOf(const Point<D>& p, const Point<D>& origin, double side) {
  CellCoords<D> c;
  for (int i = 0; i < D; ++i) {
    c[static_cast<size_t>(i)] = CellCoordinate(p[i] - origin[i], side);
  }
  return c;
}

// Geometric bounding box of a grid cell. Both bounds are computed as
// origin + side * coordinate so that adjacent cells share *bit-identical*
// boundary values — the USEC separating-line dispatch relies on exact
// comparisons between neighboring boxes.
template <int D>
BBox<D> CellBBox(const CellCoords<D>& c, const Point<D>& origin, double side) {
  BBox<D> box;
  for (int i = 0; i < D; ++i) {
    box.min[i] = origin[i] + side * static_cast<double>(c[static_cast<size_t>(i)]);
    box.max[i] = origin[i] + side * static_cast<double>(c[static_cast<size_t>(i)] + 1);
  }
  return box;
}

}  // namespace pdbscan::geometry

#endif  // PDBSCAN_GEOMETRY_POINT_H_
