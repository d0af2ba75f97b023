// Reference implementations and clustering validators used by the tests.
//
// BruteForceDbscan computes the standard DBSCAN definition in O(n^2) with no
// spatial structures at all — the ground truth every exact variant must
// match exactly (as a partition; labels are compared modulo renaming).
// IsValidApproxClustering checks Gan & Tao's approximate-DBSCAN definition:
// core points are unchanged, any two core points within eps share a cluster,
// clusters never span beyond an eps(1+rho)-connected component, and border
// membership follows the exact eps rule given the core partition.
#ifndef PDBSCAN_DBSCAN_VERIFY_H_
#define PDBSCAN_DBSCAN_VERIFY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "containers/union_find.h"
#include "dbscan/metric.h"
#include "dbscan/types.h"
#include "geometry/point.h"

namespace pdbscan::dbscan {

// O(n^2) reference DBSCAN (exact, standard definition, multi-membership
// border points). Labels are normalized by first appearance in input order,
// ties broken by each cluster's smallest core index, the same rule the
// parallel pipeline uses (Clustering, types.h). `metric` selects the distance
// the eps-neighborhood is measured in (defaults to L2, the paper's setting).
template <int D>
Clustering BruteForceDbscan(std::span<const geometry::Point<D>> pts,
                            double epsilon, size_t min_pts,
                            Metric metric = Metric::kL2) {
  const size_t n = pts.size();
  const double threshold = MetricThreshold(epsilon, metric);
  const auto within = [&](size_t i, size_t j) {
    return PointMeasure<D>(pts[i], pts[j], metric) <= threshold;
  };
  Clustering out;
  out.is_core.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    size_t count = 0;
    for (size_t j = 0; j < n; ++j) {
      if (within(i, j)) ++count;
    }
    if (count >= min_pts) out.is_core[i] = 1;
  }

  containers::UnionFind uf(n);
  for (size_t i = 0; i < n; ++i) {
    if (!out.is_core[i]) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (out.is_core[j] && within(i, j)) {
        uf.Link(i, j);
      }
    }
  }

  // Memberships: core -> own component; border -> components of core points
  // within eps.
  std::vector<std::vector<size_t>> roots(n);
  for (size_t i = 0; i < n; ++i) {
    if (out.is_core[i]) {
      roots[i].push_back(uf.Find(i));
      continue;
    }
    for (size_t j = 0; j < n; ++j) {
      if (out.is_core[j] && within(i, j)) {
        roots[i].push_back(uf.Find(j));
      }
    }
    std::sort(roots[i].begin(), roots[i].end());
    roots[i].erase(std::unique(roots[i].begin(), roots[i].end()),
                   roots[i].end());
  }

  // Roots first met at the same point are numbered by their smallest core
  // point, which is unique per cluster.
  std::vector<size_t> first_core(n, n);
  for (size_t i = n; i-- > 0;) {
    if (out.is_core[i]) first_core[uf.Find(i)] = i;
  }
  std::vector<int64_t> root_to_id(n, -1);
  int64_t next_id = 0;
  out.cluster.assign(n, Clustering::kNoise);
  out.membership_offsets.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    std::vector<size_t> by_core = roots[i];
    std::sort(by_core.begin(), by_core.end(), [&](size_t a, size_t b) {
      return first_core[a] < first_core[b];
    });
    for (const size_t r : by_core) {
      if (root_to_id[r] < 0) root_to_id[r] = next_id++;
    }
    out.membership_offsets[i + 1] = out.membership_offsets[i] + roots[i].size();
  }
  out.num_clusters = static_cast<size_t>(next_id);
  out.membership_ids.reserve(out.membership_offsets[n]);
  for (size_t i = 0; i < n; ++i) {
    std::vector<int64_t> ids;
    ids.reserve(roots[i].size());
    for (const size_t r : roots[i]) ids.push_back(root_to_id[r]);
    std::sort(ids.begin(), ids.end());
    out.membership_ids.insert(out.membership_ids.end(), ids.begin(), ids.end());
    if (!ids.empty()) out.cluster[i] = ids.front();
  }
  return out;
}

// True iff the two clusterings are identical up to cluster renaming:
// same core flags, and a label bijection under which every point's
// membership set matches.
inline bool SameClustering(const Clustering& a, const Clustering& b) {
  const size_t n = a.size();
  if (b.size() != n) return false;
  if (a.num_clusters != b.num_clusters) return false;
  if (a.is_core != b.is_core) return false;
  // Every cluster contains at least one core point and core points carry
  // exactly one label in each clustering, so core points fully determine the
  // label bijection.
  std::vector<int64_t> a_to_b(a.num_clusters, -1);
  std::vector<int64_t> b_to_a(b.num_clusters, -1);
  for (size_t i = 0; i < n; ++i) {
    if (!a.is_core[i]) continue;
    const int64_t la = a.cluster[i];
    const int64_t lb = b.cluster[i];
    if (la < 0 || lb < 0) return false;
    if (a_to_b[static_cast<size_t>(la)] < 0 &&
        b_to_a[static_cast<size_t>(lb)] < 0) {
      a_to_b[static_cast<size_t>(la)] = lb;
      b_to_a[static_cast<size_t>(lb)] = la;
    } else if (a_to_b[static_cast<size_t>(la)] != lb ||
               b_to_a[static_cast<size_t>(lb)] != la) {
      return false;
    }
  }
  // All memberships (including multi-membership border points) must match
  // under the bijection.
  for (size_t i = 0; i < n; ++i) {
    const auto ma = a.memberships(i);
    const auto mb = b.memberships(i);
    if (ma.size() != mb.size()) return false;
    std::vector<int64_t> mapped;
    mapped.reserve(ma.size());
    for (const int64_t la : ma) {
      const int64_t lb = a_to_b[static_cast<size_t>(la)];
      if (lb < 0) return false;
      mapped.push_back(lb);
    }
    std::sort(mapped.begin(), mapped.end());
    if (!std::equal(mapped.begin(), mapped.end(), mb.begin())) return false;
  }
  return true;
}

// Validates `c` against Gan & Tao's approximate DBSCAN definition for
// (pts, epsilon, min_pts, rho). O(n^2); intended for tests.
template <int D>
bool IsValidApproxClustering(std::span<const geometry::Point<D>> pts,
                             double epsilon, size_t min_pts, double rho,
                             const Clustering& c) {
  const size_t n = pts.size();
  if (c.size() != n) return false;
  const double eps2 = epsilon * epsilon;
  const double outer = epsilon * (1 + rho);
  const double outer2 = outer * outer;

  // 1. Core flags follow the exact definition (unchanged by approximation).
  for (size_t i = 0; i < n; ++i) {
    size_t count = 0;
    for (size_t j = 0; j < n; ++j) {
      if (pts[i].SquaredDistance(pts[j]) <= eps2) ++count;
    }
    if ((count >= min_pts) != (c.is_core[i] != 0)) return false;
  }

  // 2. Core points form exactly one cluster each.
  for (size_t i = 0; i < n; ++i) {
    if (c.is_core[i] && c.memberships(i).size() != 1) return false;
    if (c.is_core[i] && c.cluster[i] < 0) return false;
  }

  // 3. Any two core points within eps are in the same cluster; any two core
  //    points in the same cluster are in the same eps(1+rho)-component.
  containers::UnionFind outer_cc(n);
  for (size_t i = 0; i < n; ++i) {
    if (!c.is_core[i]) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (!c.is_core[j]) continue;
      const double d2 = pts[i].SquaredDistance(pts[j]);
      if (d2 <= eps2 && c.cluster[i] != c.cluster[j]) return false;
      if (d2 <= outer2) outer_cc.Link(i, j);
    }
  }
  // Same cluster => same eps(1+rho)-component.
  std::vector<int64_t> cluster_component(c.num_clusters, -1);
  for (size_t i = 0; i < n; ++i) {
    if (!c.is_core[i]) continue;
    const auto id = static_cast<size_t>(c.cluster[i]);
    const auto comp = static_cast<int64_t>(outer_cc.Find(i));
    if (cluster_component[id] < 0) {
      cluster_component[id] = comp;
    } else if (cluster_component[id] != comp) {
      return false;
    }
  }

  // 4. Border membership follows the exact rule, given the core partition.
  for (size_t i = 0; i < n; ++i) {
    if (c.is_core[i]) continue;
    std::vector<int64_t> expected;
    for (size_t j = 0; j < n; ++j) {
      if (c.is_core[j] && pts[i].SquaredDistance(pts[j]) <= eps2) {
        expected.push_back(c.cluster[j]);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    const auto got = c.memberships(i);
    if (got.size() != expected.size() ||
        !std::equal(got.begin(), got.end(), expected.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_VERIFY_H_
