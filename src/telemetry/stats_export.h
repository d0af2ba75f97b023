// Canonical export of PipelineStats: one expansion of the stats field table
// (PDBSCAN_PIPELINE_STATS_FIELDS in dbscan/stats.h) that maps every
// counter, gauge and stage timer onto a telemetry metric of the same name,
// so the Prometheus and JSON surfaces (net kStatsRequest, CLI, bench) all
// agree on naming without each layer re-registering its own struct.
//
// Counters come out as monotonic counters, the two max-merged fields
// (queue_depth_peak, kernel_dispatch_level) as gauges, and the per-stage
// second timers as float counters named *_seconds (monotonic while the
// sink is never Reset(), which is how serving uses them).
#ifndef PDBSCAN_TELEMETRY_STATS_EXPORT_H_
#define PDBSCAN_TELEMETRY_STATS_EXPORT_H_

#include <atomic>
#include <vector>

#include "dbscan/stats.h"
#include "telemetry/metrics.h"

namespace pdbscan::telemetry {

inline void AppendPipelineStats(const dbscan::PipelineStats& s,
                                std::vector<MetricValue>& out) {
#define PDBSCAN_EXPORT_COUNTER(name) \
  AppendCounter(out, #name,          \
                static_cast<double>(s.name.load(std::memory_order_relaxed)));
#define PDBSCAN_EXPORT_GAUGE(name) \
  AppendGauge(out, #name,          \
              static_cast<double>(s.name.load(std::memory_order_relaxed)));
  PDBSCAN_PIPELINE_STATS_FIELDS(PDBSCAN_EXPORT_COUNTER, PDBSCAN_EXPORT_GAUGE,
                                PDBSCAN_EXPORT_COUNTER)
#undef PDBSCAN_EXPORT_COUNTER
#undef PDBSCAN_EXPORT_GAUGE
}

}  // namespace pdbscan::telemetry

#endif  // PDBSCAN_TELEMETRY_STATS_EXPORT_H_
