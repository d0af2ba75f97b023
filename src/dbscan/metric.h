// Metric-switch helpers: the one place the pipeline translates a Metric
// enum into concrete arithmetic. Every call site (MarkCore counting, BCP
// connectivity, border assignment, brute-force verification) funnels its
// point-vs-point and point-vs-box comparisons through these so the three
// metrics share a single comparison convention:
//
//   PointMeasure(a, b, m)   <=  MetricThreshold(eps, m)
//
// For L2 the measure is the SQUARED distance and the threshold eps^2 —
// exactly the arithmetic the pipeline used before the metric axis existed,
// so L2 behavior (and its bit-identity goldens) is byte-for-byte unchanged.
// For L1/Linf the measure is the distance itself and the threshold eps
// (both are exact comparisons; no squaring is needed or wanted).
//
// Grid geometry per metric (cells of side s, D dimensions):
//   diameter(m) <= eps  requires  s = eps/sqrt(D) (L2), eps/D (L1), eps (Linf)
// and the largest per-axis cell-coordinate delta two eps-close points can
// have (the halo / neighbor-offset radius, AxisReach(m, D)) is
//   1 + floor(sqrt(D)) (L2),  D + 1 (L1),  2 (Linf).
// AxisCost below gives the cell-offset criterion per metric.
#ifndef PDBSCAN_DBSCAN_METRIC_H_
#define PDBSCAN_DBSCAN_METRIC_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "dbscan/types.h"
#include "geometry/point.h"
#include "kernels/kernel_api.h"

namespace pdbscan::dbscan {

// The threshold the measure is compared against: eps^2 for L2 (computed as
// eps * eps, matching the pre-metric pipeline exactly), eps otherwise.
inline double MetricThreshold(double epsilon, Metric m) {
  return m == Metric::kL2 ? epsilon * epsilon : epsilon;
}

// Point-vs-point measure under the comparison convention above.
template <int D>
double PointMeasure(const geometry::Point<D>& a, const geometry::Point<D>& b,
                    Metric m) {
  switch (m) {
    case Metric::kL2: return a.SquaredDistance(b);
    case Metric::kL1: return a.L1Distance(b);
    case Metric::kLinf: return a.LinfDistance(b);
  }
  return a.SquaredDistance(b);
}

// Smallest point-vs-box measure (0 if inside) — the box-prune counterpart
// of PointMeasure: BoxMinMeasure(box, p, m) > MetricThreshold(eps, m)
// proves no point of the box is eps-close to p.
template <int D>
double BoxMinMeasure(const geometry::BBox<D>& box, const geometry::Point<D>& p,
                     Metric m) {
  switch (m) {
    case Metric::kL2: return box.MinSquaredDistance(p);
    case Metric::kL1: return box.MinL1Distance(p);
    case Metric::kLinf: return box.MinLinfDistance(p);
  }
  return box.MinSquaredDistance(p);
}

// Two cells whose integer coordinates differ by delta can contain points
// within epsilon of each other under `metric` iff
//     sum_i AxisCost(metric, delta_i) <= D,
// the exact integer criterion derived from the minimum box-to-box distance
// (gap_i = max(0, |delta_i| - 1) cells of side s along axis i):
//   L2   (s = eps/sqrt(D)):  sum_i gap_i^2 * s^2 <= eps^2  <=>  sum <= D
//   L1   (s = eps/D):        sum_i gap_i  * s    <= eps    <=>  sum <= D
//   Linf (s = eps):          max_i gap_i  * s    <= eps    <=>  all |delta_i| <= 2
// AxisCost is only ever asked about |delta| <= AxisReach(metric, D), where
// the Linf cost is 0.
inline int64_t AxisCost(Metric metric, int64_t delta) {
  const int64_t gap = std::max<int64_t>(0, std::abs(delta) - 1);
  switch (metric) {
    case Metric::kL2: return gap * gap;
    case Metric::kL1: return gap;
    case Metric::kLinf: return 0;
  }
  return gap * gap;
}

// The largest |delta| whose AxisCost fits in `budget` (AxisCost is monotone
// in |delta|, so every |delta| up to it fits too).
inline int64_t AxisReach(Metric metric, int64_t budget) {
  switch (metric) {
    case Metric::kL2: {
      int64_t gap = 0;
      while ((gap + 1) * (gap + 1) <= budget) ++gap;
      return 1 + gap;
    }
    case Metric::kL1: return 1 + budget;
    case Metric::kLinf: return 2;
  }
  return 1;
}

// The count-within kernel for a metric (threshold parameter semantics match
// MetricThreshold).
inline kernels::CountWithinFn CountWithinForMetric(
    const kernels::DistanceKernelOps& ops, Metric m) {
  switch (m) {
    case Metric::kL2: return ops.count_within;
    case Metric::kL1: return ops.count_within_l1;
    case Metric::kLinf: return ops.count_within_linf;
  }
  return ops.count_within;
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_METRIC_H_
