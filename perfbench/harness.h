// Measurement plumbing for the perfbench driver: stopwatches that double as
// trace spans, order statistics, span self-time analysis, host probes and
// the JSON result line. Everything here is benchmark-side; the library is
// only called through its public headers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "parallel/scheduler.h"
#include "telemetry/trace.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// A benchmark-side span around one call into a library layer: a wall-clock
// stopwatch plus a telemetry span of the same name, so the traced run sees
// the call as a parent of the library's own spans.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name)
      : span_(name), start_(SteadyClock::now()) {}
  double Seconds() const { return SecondsSince(start_); }

 private:
  pdbscan::telemetry::TraceSpan span_;
  SteadyClock::time_point start_;
};

template <typename F>
double TimeCall(const char* name, F&& f) {
  BenchSpan span(name);
  f();
  return span.Seconds();
}

// 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// P = min(4, CPUs this process may run on).
inline int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Order-sensitive 64-bit digest of a whole Clustering (labels, core flags
// and every membership list). Equal digests mean bit-identical results;
// callers fall back to dbscan::SameClustering when digests differ.
inline uint64_t Digest(const pdbscan::Clustering& c) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ c.num_clusters;
  auto mix = [&h](uint64_t w) {
    h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
  };
  for (const int64_t v : c.cluster) mix(static_cast<uint64_t>(v));
  for (const uint8_t v : c.is_core) mix(v);
  for (const size_t v : c.membership_offsets) mix(v);
  for (const int64_t v : c.membership_ids) mix(static_cast<uint64_t>(v));
  return h;
}

// A plain copy of the PipelineStats fields the benchmark reports.
struct StageStats {
  double build_cells_s = 0;
  double mark_core_s = 0;
  double cluster_core_s = 0;
  double cluster_border_s = 0;
  double finalize_s = 0;
  double connectivity_queries = 0;
  double pruned_queries = 0;
  double kernel_batches = 0;
  double kernel_pruned_box = 0;
  double kernel_pruned_norm = 0;
  double kernel_level = 0;
  double cells_rebuilt = 0;
  double cells_retained = 0;
  double snapshots_published = 0;
  double requests_admitted = 0;
  double requests_rejected = 0;
  double requests_timed_out = 0;
  double requests_coalesced = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double queue_depth_peak = 0;
};

inline StageStats Read(const pdbscan::dbscan::PipelineStats& s) {
  auto n = [](const std::atomic<size_t>& a) {
    return static_cast<double>(a.load(std::memory_order_relaxed));
  };
  auto t = [](const std::atomic<double>& a) {
    return a.load(std::memory_order_relaxed);
  };
  StageStats out;
  out.build_cells_s = t(s.build_cells_seconds);
  out.mark_core_s = t(s.mark_core_seconds);
  out.cluster_core_s = t(s.cluster_core_seconds);
  out.cluster_border_s = t(s.cluster_border_seconds);
  out.finalize_s = t(s.finalize_seconds);
  out.connectivity_queries = n(s.connectivity_queries);
  out.pruned_queries = n(s.pruned_queries);
  out.kernel_batches = n(s.kernel_batches);
  out.kernel_pruned_box = n(s.kernel_points_pruned_box);
  out.kernel_pruned_norm = n(s.kernel_points_pruned_norm);
  out.kernel_level = n(s.kernel_dispatch_level);
  out.cells_rebuilt = n(s.cells_rebuilt);
  out.cells_retained = n(s.cells_retained);
  out.snapshots_published = n(s.snapshots_published);
  out.requests_admitted = n(s.requests_admitted);
  out.requests_rejected = n(s.requests_rejected);
  out.requests_timed_out = n(s.requests_timed_out);
  out.requests_coalesced = n(s.requests_coalesced);
  out.cache_hits = n(s.cache_hits);
  out.cache_misses = n(s.cache_misses);
  out.queue_depth_peak = n(s.queue_depth_peak);
  return out;
}

// --- Span self-times ---------------------------------------------------------

// Self-times of the spans in the global trace ring. A span's self-time is
// its duration minus the union of its children's intervals (clipped to the
// span), so concurrent children — client threads under one root — are not
// double-subtracted.
struct SpanReport {
  std::unordered_map<std::string, std::vector<double>> self_s;  // By name.
  double root_self_s = 0;
  double root_duration_s = 0;
  uint64_t spans_lost = 0;  // Torn writes plus records the ring overwrote.
};

inline SpanReport AnalyzeSpans(uint64_t root_span_id) {
  using pdbscan::telemetry::SpanRecord;
  const auto& ring = pdbscan::telemetry::GlobalTraceRing();
  const std::vector<SpanRecord> spans = ring.Snapshot();
  SpanReport report;
  report.spans_lost = ring.dropped() + (ring.appended() > ring.capacity()
                                            ? ring.appended() - ring.capacity()
                                            : 0);
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    auto it = by_id.find(s.parent_id);
    if (s.parent_id != 0 && it != by_id.end()) {
      kids[it->second].emplace_back(s.start_nanos, s.end_nanos);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cursor = s.start_nanos;
    for (const auto& [b, e] : iv) {
      const uint64_t lo = std::max(b, cursor);
      const uint64_t hi = std::min(e, s.end_nanos);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const uint64_t dur = s.duration_nanos();
    const double self = static_cast<double>(dur - std::min(dur, covered)) / 1e9;
    report.self_s[s.name != nullptr ? s.name : "?"].push_back(self);
    if (s.span_id == root_span_id) {
      report.root_self_s = self;
      report.root_duration_s = static_cast<double>(dur) / 1e9;
    }
  }
  return report;
}

// --- Host probes -------------------------------------------------------------

// Fixed pure-compute work (a xorshift chain) run on `threads` OS threads at
// once; returns the wall time in ms of the slowest. Independent of the
// library, so a loaded host shows up here next to the numbers it skews.
inline double CalibrationMs(int threads) {
  constexpr uint64_t kSteps = 20'000'000;
  std::vector<uint64_t> sinks(static_cast<size_t>(threads) * 8, 0);
  const auto start = SteadyClock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t]() {
      uint64_t x = 0x2545f4914f6cdd1dull + static_cast<uint64_t>(t);
      for (uint64_t i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sinks[static_cast<size_t>(t) * 8] = x;  // One cache line per thread.
    });
  }
  for (std::thread& th : pool) th.join();
  return SecondsSince(start) * 1e3;
}

inline double MedianCalibrationMs(int threads) {
  std::vector<double> v;
  for (int r = 0; r < 3; ++r) v.push_back(CalibrationMs(threads));
  return Median(v);
}

// parallel::parallel_for over 200k trivial items at grain 1, median of 5.
inline double PforGrain1Ms(int workers) {
  pdbscan::parallel::ScopedNumWorkers scoped(workers);
  constexpr size_t kItems = 200'000;
  std::vector<uint8_t> out(kItems, 0);
  std::vector<double> v;
  for (int r = 0; r < 5; ++r) {
    v.push_back(1e3 * TimeCall("perfbench.parallel_for", [&]() {
      pdbscan::parallel::parallel_for(
          0, kItems, [&](size_t i) { out[i] = static_cast<uint8_t>(i); }, 1);
    }));
  }
  return Median(v);
}

// --- Result line -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

inline void AppendNumber(std::string& out, double v) {
  char buf[40];
  if (!std::isfinite(v)) v = 0;
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

inline std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": ";
    AppendNumber(out, metrics[i].value);
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
