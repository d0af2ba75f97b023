// ClusterCore — Algorithm 3 of the paper (Section 4.4, Section 5.2).
//
// Builds the cell graph over core cells and computes its connected
// components with a lock-free union-find, merging graph construction and
// connectivity: a pair of cells is queried only if not yet in the same
// component, cells are processed in non-increasing order of core-point
// count, and the optional *bucketing* heuristic processes the sorted cells
// in batches so that large cells prune queries before small ones run.
//
// Connectivity between two core cells can be decided by:
//   * BcpConnector          — filtered, vectorized, early-terminating
//                             bichromatic closest pair ("our-exact");
//   * QuadtreeBcpConnector  — quadtree range query over the neighbor's core
//                             points ("our-exact-qt");
//   * ApproxConnector       — Gan–Tao approximate quadtree counting
//                             ("our-approx", "our-approx-qt");
//   * UsecConnector (2D)    — wavefront-based unit-spherical emptiness
//                             checking;
//   * ClusterCoreDelaunay (2D) — one global Delaunay triangulation of the
//                             core points with parallel edge filtering.
//
// Every connector is a deterministic function of the cell pair, so the
// final partition is schedule-independent even though pruning makes the set
// of *executed* queries nondeterministic.
#ifndef PDBSCAN_DBSCAN_CLUSTER_CORE_H_
#define PDBSCAN_DBSCAN_CLUSTER_CORE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "containers/union_find.h"
#include "dbscan/cell_structure.h"
#include "dbscan/metric.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "geometry/delaunay.h"
#include "geometry/quadtree.h"
#include "geometry/wavefront.h"
#include "kernels/kernel_api.h"
#include "parallel/scheduler.h"
#include "primitives/filter.h"
#include "primitives/scan.h"
#include "primitives/sort.h"

namespace pdbscan::dbscan {

// Per-cell index of core points (positions into cells.points).
struct CoreIndex {
  std::vector<uint8_t> cell_is_core;     // 1 iff the cell has a core point.
  std::vector<size_t> core_offsets;      // num_cells + 1.
  std::vector<uint32_t> core_positions;  // Cell-contiguous core positions.

  size_t core_count(size_t c) const {
    return core_offsets[c + 1] - core_offsets[c];
  }
  std::span<const uint32_t> core_of(size_t c) const {
    return std::span<const uint32_t>(core_positions.data() + core_offsets[c],
                                     core_count(c));
  }
};

template <int D>
CoreIndex BuildCoreIndex(const CellStructure<D>& cells,
                         const std::vector<uint8_t>& core_flags) {
  const size_t num_cells = cells.num_cells();
  CoreIndex index;
  index.cell_is_core.assign(num_cells, 0);
  std::vector<size_t> counts(num_cells + 1, 0);
  parallel::parallel_for(
      0, num_cells,
      [&](size_t c) {
        size_t count = 0;
        for (size_t i = cells.offsets[c]; i < cells.offsets[c + 1]; ++i) {
          count += core_flags[i];
        }
        counts[c] = count;
        index.cell_is_core[c] = count > 0 ? 1 : 0;
      },
      1);
  const size_t total = primitives::ScanExclusive(std::span<size_t>(counts));
  counts[num_cells] = total;
  index.core_offsets = counts;
  index.core_positions.resize(total);
  parallel::parallel_for(
      0, num_cells,
      [&](size_t c) {
        size_t w = index.core_offsets[c];
        for (size_t i = cells.offsets[c]; i < cells.offsets[c + 1]; ++i) {
          if (core_flags[i]) index.core_positions[w++] = static_cast<uint32_t>(i);
        }
      },
      1);
  return index;
}

// --- Connectors -----------------------------------------------------------
//
// Every connector's Connected(g, h, kc) adds the kernel work it does to
// `kc`; the driver flushes it into the stats sink once per source cell.

// Vectorized, early-terminating BCP on core points, with the Gan–Tao
// pre-filter that drops points farther than epsilon from the other cell.
// The smaller filtered side is gathered into SoA scratch lanes once; each
// point of the larger side then probes it through the dispatched distance
// kernel with cap 1 ("is any point within eps?"). The answer — does some
// pair lie within eps — is a deterministic function of the cell pair, same
// as the blocked scalar scan this replaces.
template <int D>
class BcpConnector {
 public:
  BcpConnector(const CellStructure<D>& cells, const CoreIndex& core)
      : cells_(cells), core_(core) {}

  bool Connected(size_t g, size_t h, kernels::Counters& kc) const {
    // Per-thread scratch that keeps its capacity, so a steady-state query
    // does no heap allocation. Connected runs no parallel code, so a thread
    // never re-enters it while the scratch is in use.
    thread_local Scratch s;
    const Metric metric = cells_.metric;
    const double threshold = MetricThreshold(cells_.epsilon, metric);
    // Filter each side against the other cell's box.
    FilterByBox(g, h, threshold, s.a);
    if (s.a.empty()) return false;
    FilterByBox(h, g, threshold, s.b);
    if (s.b.empty()) return false;
    const std::vector<uint32_t>& target = s.a.size() <= s.b.size() ? s.a : s.b;
    const std::vector<uint32_t>& probes = s.a.size() <= s.b.size() ? s.b : s.a;
    // Gather the target side's coordinates into lane-major scratch.
    const size_t m = target.size();
    s.lanes.resize(m * static_cast<size_t>(D));
    std::array<const double*, D> lanes;
    for (int d = 0; d < D; ++d) {
      double* lane = s.lanes.data() + static_cast<size_t>(d) * m;
      for (size_t i = 0; i < m; ++i) lane[i] = cells_.points[target[i]][d];
      lanes[static_cast<size_t>(d)] = lane;
    }
    const kernels::CountWithinFn count_within =
        CountWithinForMetric(kernels::Ops(), metric);
    for (const uint32_t pos : probes) {
      if (count_within(lanes.data(), 1, D, m, cells_.points[pos].x.data(),
                       threshold, 1, &kc) > 0) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Scratch {
    std::vector<uint32_t> a;    // Filtered core positions of one cell.
    std::vector<uint32_t> b;    // ... and of the other.
    std::vector<double> lanes;  // The smaller side's coordinates, lane-major.
  };

  // Core positions of cell `from` within eps of cell `against`'s box.
  void FilterByBox(size_t from, size_t against, double threshold,
                   std::vector<uint32_t>& kept) const {
    kept.clear();
    for (const uint32_t pos : core_.core_of(from)) {
      if (BoxMinMeasure<D>(cells_.cell_boxes[against], cells_.points[pos],
                           cells_.metric) <= threshold) {
        kept.push_back(pos);
      }
    }
  }

  const CellStructure<D>& cells_;
  const CoreIndex& core_;
};

// BCP decided by quadtree range queries over the neighbor cell's core
// points; the query terminates as soon as a non-zero count is determined.
template <int D>
class QuadtreeBcpConnector {
 public:
  QuadtreeBcpConnector(const CellStructure<D>& cells, const CoreIndex& core)
      : cells_(cells), core_(core), trees_(cells.num_cells()) {
    parallel::parallel_for(
        0, cells.num_cells(),
        [&](size_t c) {
          if (!core.cell_is_core[c]) return;
          std::vector<uint32_t> idx(core.core_of(c).begin(),
                                    core.core_of(c).end());
          trees_[c] = std::make_unique<geometry::CellQuadtree<D>>(
              std::span<const geometry::Point<D>>(cells.points),
              std::move(idx), cells.cell_boxes[c]);
        },
        1);
  }

  bool Connected(size_t g, size_t h, kernels::Counters& kc) const {
    // Query the smaller side's points against the bigger side's tree.
    size_t from = g, into = h;
    if (core_.core_count(h) < core_.core_count(g)) std::swap(from, into);
    const double eps = cells_.epsilon;
    const double eps2 = eps * eps;
    for (const uint32_t pos : core_.core_of(from)) {
      const geometry::Point<D>& p = cells_.points[pos];
      if (cells_.cell_boxes[into].MinSquaredDistance(p) > eps2) continue;
      if (trees_[into]->ContainsInBall(p, eps, &kc)) return true;
    }
    return false;
  }

 private:
  const CellStructure<D>& cells_;
  const CoreIndex& core_;
  std::vector<std::unique_ptr<geometry::CellQuadtree<D>>> trees_;
};

// Approximate connectivity via the rho-quadtree (Section 5.2): cells are
// connected when the approximate count is non-zero, which is guaranteed
// when the BCP is within eps and guaranteed-not when beyond eps * (1 + rho).
// The query direction is fixed by cell id so the answer is deterministic.
template <int D>
class ApproxConnector {
 public:
  ApproxConnector(const CellStructure<D>& cells, const CoreIndex& core,
                  double rho)
      : cells_(cells), core_(core), rho_(rho), trees_(cells.num_cells()) {
    parallel::parallel_for(
        0, cells.num_cells(),
        [&](size_t c) {
          if (!core.cell_is_core[c]) return;
          std::vector<uint32_t> idx(core.core_of(c).begin(),
                                    core.core_of(c).end());
          // Depth from the actual box diameter (equals eps for grid cells;
          // tight boxes from the 2D box method can be smaller).
          const double diameter = std::sqrt(
              cells.cell_boxes[c].min.SquaredDistance(cells.cell_boxes[c].max));
          const int max_level = geometry::CellQuadtree<D>::ApproxMaxLevelFor(
              diameter, cells.epsilon, rho);
          trees_[c] = std::make_unique<geometry::CellQuadtree<D>>(
              std::span<const geometry::Point<D>>(cells.points),
              std::move(idx), cells.cell_boxes[c], max_level);
        },
        1);
  }

  bool Connected(size_t g, size_t h, kernels::Counters& kc) const {
    const size_t from = std::min(g, h);
    const size_t into = std::max(g, h);
    const double eps = cells_.epsilon;
    const double outer = eps * (1 + rho_);
    const double outer2 = outer * outer;
    for (const uint32_t pos : core_.core_of(from)) {
      const geometry::Point<D>& p = cells_.points[pos];
      if (cells_.cell_boxes[into].MinSquaredDistance(p) > outer2) continue;
      if (trees_[into]->ApproxContainsInBall(p, eps, rho_, &kc)) return true;
    }
    return false;
  }

 private:
  const CellStructure<D>& cells_;
  const CoreIndex& core_;
  double rho_;
  std::vector<std::unique_ptr<geometry::CellQuadtree<D>>> trees_;
};

// USEC with line separation (2D): each core cell precomputes the wavefront
// beyond its top and left borders; a query scans the other cell's core
// points against the wavefront across the separating line.
class UsecConnector {
 public:
  UsecConnector(const CellStructure<2>& cells, const CoreIndex& core)
      : cells_(cells), core_(core), top_(cells.num_cells()),
        left_(cells.num_cells()) {
    const double eps = cells.epsilon;
    parallel::parallel_for(
        0, cells.num_cells(),
        [&](size_t c) {
          if (!core.cell_is_core[c]) return;
          std::vector<geometry::Point<2>> pts;
          std::vector<geometry::Point<2>> rotated;
          pts.reserve(core.core_count(c));
          rotated.reserve(core.core_count(c));
          for (const uint32_t pos : core.core_of(c)) {
            pts.push_back(cells.points[pos]);
            rotated.push_back(geometry::LeftFrame(cells.points[pos]));
          }
          top_[c] = geometry::Envelope(std::move(pts), eps);
          left_[c] = geometry::Envelope(std::move(rotated), eps);
        },
        1);
  }

  bool Connected(size_t g, size_t h, kernels::Counters& /*kc*/) const {
    const auto& bg = cells_.cell_boxes[g];
    const auto& bh = cells_.cell_boxes[h];
    // Pick a separating axis-parallel line; disjoint boxes always have one
    // (grid boxes of adjacent cells share bit-identical boundaries, and box
    // cells are strictly separated by the strip construction).
    if (bh.min[1] >= bg.max[1]) return Query(top_[g], h, /*rotate=*/false);
    if (bg.min[1] >= bh.max[1]) return Query(top_[h], g, /*rotate=*/false);
    if (bh.max[0] <= bg.min[0]) return Query(left_[g], h, /*rotate=*/true);
    if (bg.max[0] <= bh.min[0]) return Query(left_[h], g, /*rotate=*/true);
    // Defensive fallback (rounding produced overlapping boxes): exact
    // pairwise check, still a correct connectivity answer.
    const double eps2 = cells_.epsilon * cells_.epsilon;
    for (const uint32_t a : core_.core_of(g)) {
      for (const uint32_t b : core_.core_of(h)) {
        if (cells_.points[a].SquaredDistance(cells_.points[b]) <= eps2) {
          return true;
        }
      }
    }
    return false;
  }

 private:
  bool Query(const geometry::Envelope& env, size_t cell, bool rotate) const {
    if (env.empty()) return false;
    for (const uint32_t pos : core_.core_of(cell)) {
      const geometry::Point<2> q =
          rotate ? geometry::LeftFrame(cells_.points[pos]) : cells_.points[pos];
      if (env.Contains(q)) return true;
    }
    return false;
  }

  const CellStructure<2>& cells_;
  const CoreIndex& core_;
  std::vector<geometry::Envelope> top_;
  std::vector<geometry::Envelope> left_;
};

// --- Driver ----------------------------------------------------------------

// Runs Algorithm 3 with the given connectivity predicate: size-sorted cell
// order, optional bucketing batches, union-find pruning, and the
// "higher-priority cell initiates" rule so each pair is queried at most
// once. Query and kernel counters are kept per source cell and flushed into
// `stats` once per cell, not once per pair (callers running concurrent
// queries pass their per-context sink; the default is the process-wide one).
template <int D, typename Connector>
void ClusterCoreWithConnector(const CellStructure<D>& cells,
                              const CoreIndex& core, const Options& options,
                              const Connector& connector,
                              containers::UnionFind& uf,
                              PipelineStats& stats = GlobalStats()) {
  const size_t num_cells = cells.num_cells();
  std::vector<size_t> core_cells = primitives::FilterIndex(
      num_cells, [&](size_t c) { return core.cell_is_core[c] != 0; });
  // SortBySize: non-increasing core-point count (ties by id).
  primitives::ParallelSort(core_cells, [&](size_t a, size_t b) {
    const size_t ca = core.core_count(a);
    const size_t cb = core.core_count(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  // Only core cells' ranks are read.
  std::vector<uint32_t> rank(num_cells);
  parallel::parallel_for(0, core_cells.size(), [&](size_t i) {
    rank[core_cells[i]] = static_cast<uint32_t>(i);
  });

  const size_t m = core_cells.size();
  const size_t num_batches =
      options.bucketing ? std::min(options.num_buckets, std::max<size_t>(m, 1))
                        : 1;
  for (size_t batch = 0; batch < num_batches; ++batch) {
    const size_t lo = batch * m / num_batches;
    const size_t hi = (batch + 1) * m / num_batches;
    parallel::parallel_for(
        lo, hi,
        [&](size_t i) {
          const size_t g = core_cells[i];
          size_t pruned = 0;
          size_t executed = 0;
          size_t linked = 0;
          kernels::Counters kc;
          for (const uint32_t h : cells.neighbors(g)) {
            if (!core.cell_is_core[h]) continue;
            if (rank[h] <= i) continue;  // The higher-priority cell queries.
            if (uf.Find(g) == uf.Find(h)) {
              ++pruned;
              continue;
            }
            ++executed;
            if (connector.Connected(g, h, kc)) {
              ++linked;
              uf.Link(g, h);
            }
          }
          if (pruned != 0) {
            stats.pruned_queries.fetch_add(pruned, std::memory_order_relaxed);
          }
          if (executed == 0) return;
          stats.connectivity_queries.fetch_add(executed,
                                               std::memory_order_relaxed);
          if (linked != 0) {
            stats.successful_queries.fetch_add(linked,
                                               std::memory_order_relaxed);
          }
          FlushKernelCounters(stats, kc);
        },
        1);
  }
}

// Delaunay-based cell graph (2D): triangulate all core points once, then
// filter edges in parallel, keeping cross-cell edges of length <= eps.
inline void ClusterCoreDelaunay(const CellStructure<2>& cells,
                                const CoreIndex& core, const Options& options,
                                containers::UnionFind& uf) {
  const size_t total = core.core_positions.size();
  if (total == 0) return;
  std::vector<geometry::Point<2>> pts(total);
  parallel::parallel_for(0, total, [&](size_t i) {
    pts[i] = cells.points[core.core_positions[i]];
  });
  // Cell of each core point (core_positions is cell-contiguous).
  std::vector<uint32_t> cell_of(total);
  parallel::parallel_for(
      0, cells.num_cells(),
      [&](size_t c) {
        for (size_t i = core.core_offsets[c]; i < core.core_offsets[c + 1];
             ++i) {
          cell_of[i] = static_cast<uint32_t>(c);
        }
      },
      1);

  geometry::Delaunay dt(std::span<const geometry::Point<2>>(pts),
                        options.delaunay_jitter_seed);
  const auto edges = dt.Edges();
  const double eps2 = cells.epsilon * cells.epsilon;
  parallel::parallel_for(0, edges.size(), [&](size_t e) {
    const auto [u, v] = edges[e];
    if (cell_of[u] == cell_of[v]) return;
    if (pts[u].SquaredDistance(pts[v]) <= eps2) uf.Link(cell_of[u], cell_of[v]);
  });
}

// Dispatches to the configured connectivity strategy. `uf` must be sized to
// cells.num_cells().
template <int D>
void ClusterCore(const CellStructure<D>& cells, const CoreIndex& core,
                 const Options& options, containers::UnionFind& uf,
                 PipelineStats& stats = GlobalStats()) {
  switch (options.connect_method) {
    case ConnectMethod::kBcp: {
      BcpConnector<D> connector(cells, core);
      ClusterCoreWithConnector(cells, core, options, connector, uf, stats);
      return;
    }
    case ConnectMethod::kQuadtreeBcp: {
      QuadtreeBcpConnector<D> connector(cells, core);
      ClusterCoreWithConnector(cells, core, options, connector, uf, stats);
      return;
    }
    case ConnectMethod::kApproxQuadtree: {
      ApproxConnector<D> connector(cells, core, options.rho);
      ClusterCoreWithConnector(cells, core, options, connector, uf, stats);
      return;
    }
    case ConnectMethod::kUsec:
    case ConnectMethod::kDelaunay:
      if constexpr (D == 2) {
        if (options.connect_method == ConnectMethod::kUsec) {
          UsecConnector connector(cells, core);
          ClusterCoreWithConnector(cells, core, options, connector, uf, stats);
        } else {
          ClusterCoreDelaunay(cells, core, options, uf);
        }
        return;
      } else {
        throw std::invalid_argument(
            "USEC and Delaunay cell graphs are implemented for 2D only");
      }
  }
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_CLUSTER_CORE_H_
