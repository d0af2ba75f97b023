// Public option and result types for the DBSCAN implementations.
#ifndef PDBSCAN_DBSCAN_TYPES_H_
#define PDBSCAN_DBSCAN_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pdbscan {

// How points are partitioned into cells (Section 4.1 / 4.2). kBox is
// implemented for 2D only.
enum class CellMethod { kGrid, kBox };

// How cell-graph connectivity between core cells is decided (Section 4.4 /
// 5.2). kUsec and kDelaunay are 2D only; kApproxQuadtree yields approximate
// DBSCAN in the Gan–Tao sense.
enum class ConnectMethod {
  kBcp,            // Blocked early-termination bichromatic closest pair.
  kQuadtreeBcp,    // BCP decided by quadtree range queries ("our-exact-qt").
  kUsec,           // Unit-spherical emptiness checking with wavefronts.
  kDelaunay,       // Delaunay triangulation edge filtering.
  kApproxQuadtree  // Approximate quadtree counting ("our-approx*").
};

// How RangeCount queries in MarkCore are answered (Section 4.3 / 5.2).
enum class RangeCountMethod {
  kScan,     // Compare against all points of the neighboring cell.
  kQuadtree  // Traverse a per-cell quadtree.
};

// The distance metric the epsilon-neighborhood is measured in. The paper's
// algorithms are metric-generic as long as the grid cell diameter is at most
// epsilon under the metric; only the L2 machinery (quadtrees, USEC, Delaunay,
// box cells, the approximate counting) is metric-specific, so non-L2 metrics
// are restricted to the grid + BCP + scan configuration (see
// ValidateMetricOptions).
enum class Metric : uint8_t {
  kL2,   // Euclidean. Compared as squared distance vs epsilon^2.
  kL1,   // Manhattan. Compared as |dx| + |dy| + ... vs epsilon.
  kLinf  // Chebyshev. Compared as max_i |dx_i| vs epsilon.
};

inline const char* MetricName(Metric m) {
  switch (m) {
    case Metric::kL2: return "l2";
    case Metric::kL1: return "l1";
    case Metric::kLinf: return "linf";
  }
  return "?";
}

// Parses "l2" / "l1" / "linf" into a Metric; returns false on anything else.
inline bool ParseMetric(const std::string& s, Metric* out) {
  if (s == "l2") { *out = Metric::kL2; return true; }
  if (s == "l1") { *out = Metric::kL1; return true; }
  if (s == "linf" || s == "loo" || s == "chebyshev") {
    *out = Metric::kLinf;
    return true;
  }
  return false;
}

struct Options {
  CellMethod cell_method = CellMethod::kGrid;
  ConnectMethod connect_method = ConnectMethod::kBcp;
  RangeCountMethod range_count = RangeCountMethod::kScan;

  // Process cells in size-sorted batches during cell-graph construction
  // (the "bucketing" heuristic of Section 4.4).
  bool bucketing = false;

  // Number of size-sorted batches when bucketing is enabled.
  size_t num_buckets = 32;

  // Approximation parameter for kApproxQuadtree (paper default 0.01).
  double rho = 0.01;

  // DBSCAN* (Campello et al. [20], discussed in the paper's related work):
  // clusters contain core points only; non-core points are all noise and
  // the border-assignment phase is skipped entirely.
  bool core_only = false;

  // Deterministic jitter seed for Delaunay degeneracy-breaking (0 disables;
  // see geometry/delaunay.h).
  uint64_t delaunay_jitter_seed = 0x9e3779b9u;

  // Distance metric for the epsilon-neighborhood. Non-L2 metrics require the
  // grid + BCP + scan configuration (ValidateMetricOptions enforces this).
  Metric metric = Metric::kL2;

  // Human-readable configuration name, mirroring the paper's labels.
  std::string Name() const;

  // Field-wise equality: the one configuration comparison persisted
  // snapshots and journals are checked against.
  bool operator==(const Options&) const = default;
};

// Throws std::invalid_argument unless `epsilon` is positive. Spelled
// !(epsilon > 0) so NaN is rejected too; +infinity stays valid (every pair
// of points is then a neighbor pair). Called by every build surface.
inline void ValidateEpsilon(double epsilon) {
  if (!(epsilon > 0)) throw std::invalid_argument("epsilon must be positive");
}

// Throws std::invalid_argument if `options` combines a non-L2 metric with
// machinery that is inherently Euclidean (box cells, quadtree counting, USEC,
// Delaunay, approximate quadtrees). Called by every build surface.
inline void ValidateMetricOptions(const Options& options) {
  if (options.metric == Metric::kL2) return;
  if (options.cell_method != CellMethod::kGrid ||
      options.connect_method != ConnectMethod::kBcp ||
      options.range_count != RangeCountMethod::kScan) {
    throw std::invalid_argument(
        std::string(MetricName(options.metric)) +
        " metric requires the grid + BCP + scan configuration "
        "(quadtrees, USEC, Delaunay, box cells and approximate counting "
        "are Euclidean-only)");
  }
}

// Named configurations used throughout the paper's evaluation (Section 7.1).
Options OurExact();
Options OurExactQt();
Options OurApprox(double rho = 0.01);
Options OurApproxQt(double rho = 0.01);
Options Our2dGridBcp();
Options Our2dGridUsec();
Options Our2dGridDelaunay();
Options Our2dBoxBcp();
Options Our2dBoxUsec();
Options Our2dBoxDelaunay();
// Adds the -bucketing suffix behavior to any configuration.
Options WithBucketing(Options options);

// The clustering produced by DBSCAN. Cluster ids are consecutive integers
// 0..num_clusters-1, assigned deterministically (by first appearance in
// input order), so equal inputs produce identical outputs regardless of the
// execution schedule.
struct Clustering {
  // Primary cluster per point (the lowest cluster id the point belongs to),
  // or kNoise for points in no cluster.
  std::vector<int64_t> cluster;

  // 1 iff the point is a core point.
  std::vector<uint8_t> is_core;

  // Border points may belong to several clusters (Section 2). All
  // memberships of point i, sorted ascending:
  //   membership_ids[membership_offsets[i] .. membership_offsets[i+1]).
  std::vector<size_t> membership_offsets;
  std::vector<int64_t> membership_ids;

  size_t num_clusters = 0;

  static constexpr int64_t kNoise = -1;

  size_t size() const { return cluster.size(); }

  std::span<const int64_t> memberships(size_t i) const {
    return std::span<const int64_t>(
        membership_ids.data() + membership_offsets[i],
        membership_offsets[i + 1] - membership_offsets[i]);
  }
};

inline std::string Options::Name() const {
  std::string name = "our";
  switch (connect_method) {
    case ConnectMethod::kBcp:
    case ConnectMethod::kQuadtreeBcp:
      name += "-exact";
      break;
    case ConnectMethod::kUsec:
    case ConnectMethod::kDelaunay:
      name += "-2d";
      name += cell_method == CellMethod::kBox ? "-box" : "-grid";
      name += connect_method == ConnectMethod::kUsec ? "-usec" : "-delaunay";
      if (bucketing) name += "-bucketing";
      return name;
    case ConnectMethod::kApproxQuadtree:
      name += "-approx";
      break;
  }
  if (range_count == RangeCountMethod::kQuadtree) name += "-qt";
  if (cell_method == CellMethod::kBox) name += "-box";
  if (bucketing) name += "-bucketing";
  if (core_only) name += "-star";
  if (metric != Metric::kL2) {
    name += "-";
    name += MetricName(metric);
  }
  return name;
}

inline Options OurExact() { return Options{}; }

inline Options OurExactQt() {
  Options o;
  o.connect_method = ConnectMethod::kQuadtreeBcp;
  o.range_count = RangeCountMethod::kQuadtree;
  return o;
}

inline Options OurApprox(double rho) {
  Options o;
  o.connect_method = ConnectMethod::kApproxQuadtree;
  o.range_count = RangeCountMethod::kScan;
  o.rho = rho;
  return o;
}

inline Options OurApproxQt(double rho) {
  Options o = OurApprox(rho);
  o.range_count = RangeCountMethod::kQuadtree;
  return o;
}

inline Options Our2dGridBcp() { return Options{}; }

inline Options Our2dGridUsec() {
  Options o;
  o.connect_method = ConnectMethod::kUsec;
  return o;
}

inline Options Our2dGridDelaunay() {
  Options o;
  o.connect_method = ConnectMethod::kDelaunay;
  return o;
}

inline Options Our2dBoxBcp() {
  Options o;
  o.cell_method = CellMethod::kBox;
  return o;
}

inline Options Our2dBoxUsec() {
  Options o = Our2dGridUsec();
  o.cell_method = CellMethod::kBox;
  return o;
}

inline Options Our2dBoxDelaunay() {
  Options o = Our2dGridDelaunay();
  o.cell_method = CellMethod::kBox;
  return o;
}

inline Options WithBucketing(Options options) {
  options.bucketing = true;
  return options;
}

}  // namespace pdbscan

#endif  // PDBSCAN_DBSCAN_TYPES_H_
