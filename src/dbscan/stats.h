// Lightweight execution counters and per-stage timings for the DBSCAN
// pipeline.
//
// The bucketing heuristic of Section 4.4 exists to *reduce the number of
// cell connectivity queries*; these counters make that effect measurable
// (see bench/ablation_bucketing). The build/reuse counters and stage
// timings make index builds and reuse observable: a min_pts sweep must
// report cells_built == 1 no matter how many settings it answers.
//
// Ownership model: every stage accumulates into a PipelineStats sink chosen
// by its caller. Single-threaded callers (one-shot Dbscan, a lone
// DbscanEngine) default to the process-wide GlobalStats(). Concurrent
// serving gives each QueryContext its own PipelineStats so per-client
// counters never interleave; EnginePool::AggregateStats() merges them on
// demand (see parallel/engine_pool.h). Counters are atomics with relaxed
// ordering — negligible overhead, safe to accumulate from any thread — but
// Reset() and read-out are only meaningful when the sink's owner is
// quiescent, which is exactly what per-context sinks guarantee and the
// shared global one cannot.
#ifndef PDBSCAN_DBSCAN_STATS_H_
#define PDBSCAN_DBSCAN_STATS_H_

#include <atomic>
#include <cstddef>

#include "kernels/kernel_api.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace pdbscan::dbscan {

// The one field table of PipelineStats. Every field appears exactly once,
// in declaration (and export) order, tagged with its kind:
//
//   COUNTER(name)   — std::atomic<size_t> count; MergeFrom sums it.
//   MAX_GAUGE(name) — std::atomic<size_t> gauge; MergeFrom takes the max.
//   SECONDS(name)   — std::atomic<double> wall-clock seconds; MergeFrom
//                     sums it. Only TraceSpan(name, field) scopes add to
//                     one (MergeFrom just carries their sums between
//                     sinks), so with tracing on each field's delta is the
//                     summed duration of the spans named below.
//
// The struct declaration, MergeFrom, Reset and the telemetry export
// (telemetry/stats_export.h, metric name == field name) all expand this
// table, so adding a field is a one-line change. What the fields mean:
//
// * connectivity_queries: cell-graph connectivity queries executed
//   (Connected() calls); pruned_queries: candidate cell pairs skipped
//   because union-find already had them in the same component;
//   successful_queries: queries that returned "connected".
// * cells_built / cells_reused: cell structures built from scratch vs.
//   served from a DbscanEngine's cached index; counts_built /
//   counts_reused: MarkCore neighbor-count passes run (an index build, or
//   a context's recount for every query above the index's cap) vs. queries
//   served from an index's shared counts.
// * Streaming (DynamicCellIndex) incremental maintenance: per snapshot,
//   cells whose contents or eps-neighborhood changed get their points
//   re-grouped and their MarkCore counts recomputed (cells_rebuilt); every
//   other cell's counts are copied from the previous snapshot
//   (cells_retained). "Update cost scales with the dirty footprint" is
//   exactly cells_rebuilt << cells_rebuilt + cells_retained.
// * Persistence (persist/): bytes written by snapshot/journal producers,
//   bytes read back by loaders and journal scans, and journal records
//   replayed into a restored DynamicCellIndex during recovery. "Recovery
//   cost is proportional to the delta, not the dataset" is measurable as
//   journal_records_replayed (and the journal's share of
//   snapshot_bytes_read) staying small relative to the snapshot size;
//   tests/test_persist.cpp's DurableRecovery.* cases pin the replay count.
// * Serving scheduler (parallel/serving_scheduler.h) admission accounting.
//   requests_admitted counts submits that entered the queue (or were
//   cache-served at admission); requests_rejected counts newcomers refused
//   by a full queue (never admitted). Under a quiescent scheduler
//     requests_admitted + requests_rejected == total submits,
//   and every submit resolves exactly once
//   (kOk + kRejected + kTimedOut + kShutdown == total submits).
//   requests_timed_out counts deadline expiries (queued or
//   mid-execution); requests_coalesced counts requests that shared a batched
//   execution with an earlier one (batch of k -> k-1 coalesced);
//   cache_hits / cache_misses count admission-time result-cache lookups
//   (zero while the cache is disabled), so with the cache on
//     cache_hits + cache_misses == total submits reaching admission
//   (every submit except those refused after shutdown; that sum equals
//   requests_admitted + requests_rejected).
//   queue_depth_peak is the deepest the admission queue ever got.
// * Distance-kernel layer (src/kernels/): SIMD batches executed, and points
//   whose exact distance was never computed because a whole cell was pruned
//   by its bounding box (kernel_points_pruned_box) or a whole batch by its
//   first-coordinate partial norm (kernel_points_pruned_norm). The kernels
//   accumulate into a stack-local kernels::Counters; call sites flush it
//   here via FlushKernelCounters so the inner loops stay atomics-free.
//   kernel_dispatch_level is the level the last kernel-using pass ran at
//   (kernels::Level as int); an aggregate over per-context sinks reports
//   the highest level used.
// * Per-stage wall-clock seconds, accumulated across runs, and the spans
//   that feed each:
//     snapshot_load_seconds  snapshot_load — SnapshotReader::Load
//                            (validation plus owned-mode copies; the mmap
//                            path makes this the headline "cold start in
//                            milliseconds" number).
//     build_cells_seconds    build_cells (CellIndex) and
//                            streaming_recompose.
//     mark_core_seconds      mark_core_counts (CellIndex, and a context's
//                            over-cap recount), mark_core (core flags +
//                            core index, per query) and streaming_recount.
//     cluster_core_seconds   cluster_core.
//     cluster_border_seconds cluster_border.
//     finalize_seconds       finalize.
#define PDBSCAN_PIPELINE_STATS_FIELDS(COUNTER, MAX_GAUGE, SECONDS) \
  COUNTER(connectivity_queries)                                   \
  COUNTER(pruned_queries)                                         \
  COUNTER(successful_queries)                                     \
  COUNTER(cells_built)                                            \
  COUNTER(cells_reused)                                           \
  COUNTER(counts_built)                                           \
  COUNTER(counts_reused)                                          \
  COUNTER(cells_rebuilt)                                          \
  COUNTER(cells_retained)                                         \
  COUNTER(snapshots_published)                                    \
  COUNTER(snapshot_bytes_written)                                 \
  COUNTER(snapshot_bytes_read)                                    \
  COUNTER(journal_records_replayed)                               \
  COUNTER(requests_admitted)                                      \
  COUNTER(requests_rejected)                                      \
  COUNTER(requests_timed_out)                                     \
  COUNTER(requests_coalesced)                                     \
  COUNTER(cache_hits)                                             \
  COUNTER(cache_misses)                                           \
  MAX_GAUGE(queue_depth_peak)                                     \
  COUNTER(kernel_batches)                                         \
  COUNTER(kernel_points_pruned_box)                               \
  COUNTER(kernel_points_pruned_norm)                              \
  MAX_GAUGE(kernel_dispatch_level)                                \
  SECONDS(snapshot_load_seconds)                                  \
  SECONDS(build_cells_seconds)                                    \
  SECONDS(mark_core_seconds)                                      \
  SECONDS(cluster_core_seconds)                                   \
  SECONDS(cluster_border_seconds)                                 \
  SECONDS(finalize_seconds)

struct PipelineStats {
#define PDBSCAN_STATS_DECLARE_COUNT(name) std::atomic<size_t> name{0};
#define PDBSCAN_STATS_DECLARE_SECONDS(name) std::atomic<double> name{0};
  PDBSCAN_PIPELINE_STATS_FIELDS(PDBSCAN_STATS_DECLARE_COUNT,
                                PDBSCAN_STATS_DECLARE_COUNT,
                                PDBSCAN_STATS_DECLARE_SECONDS)
#undef PDBSCAN_STATS_DECLARE_COUNT
#undef PDBSCAN_STATS_DECLARE_SECONDS

  // Adds every counter and timing of `other` into this sink and max-merges
  // the gauges (relaxed reads and adds). Used by EnginePool to aggregate
  // per-context stats; `other` should be quiescent for the sums to be a
  // consistent snapshot.
  void MergeFrom(const PipelineStats& other) {
#define PDBSCAN_STATS_MERGE_SUM(name)                        \
  name.fetch_add(other.name.load(std::memory_order_relaxed), \
                 std::memory_order_relaxed);
#define PDBSCAN_STATS_MERGE_MAX(name) \
  telemetry::AtomicMax(name, other.name.load(std::memory_order_relaxed));
#define PDBSCAN_STATS_MERGE_SECONDS(name) \
  telemetry::AddSeconds(name, other.name.load(std::memory_order_relaxed));
    PDBSCAN_PIPELINE_STATS_FIELDS(PDBSCAN_STATS_MERGE_SUM,
                                  PDBSCAN_STATS_MERGE_MAX,
                                  PDBSCAN_STATS_MERGE_SECONDS)
#undef PDBSCAN_STATS_MERGE_SUM
#undef PDBSCAN_STATS_MERGE_MAX
#undef PDBSCAN_STATS_MERGE_SECONDS
  }

  void Reset() {
#define PDBSCAN_STATS_RESET(name) name.store(0, std::memory_order_relaxed);
    PDBSCAN_PIPELINE_STATS_FIELDS(PDBSCAN_STATS_RESET, PDBSCAN_STATS_RESET,
                                  PDBSCAN_STATS_RESET)
#undef PDBSCAN_STATS_RESET
  }
};

// Global pipeline counters.
inline PipelineStats& GlobalStats() {
  static PipelineStats* stats = new PipelineStats();
  return *stats;
}

// Flushes a kernel-layer counter block (accumulated atomics-free inside a
// distance-kernel call site) into a stats sink, and records the dispatch
// level the pass ran at.
inline void FlushKernelCounters(PipelineStats& stats,
                                const kernels::Counters& kc) {
  if (kc.batches != 0) {
    stats.kernel_batches.fetch_add(kc.batches, std::memory_order_relaxed);
  }
  if (kc.points_pruned_box != 0) {
    stats.kernel_points_pruned_box.fetch_add(kc.points_pruned_box,
                                             std::memory_order_relaxed);
  }
  if (kc.points_pruned_norm != 0) {
    stats.kernel_points_pruned_norm.fetch_add(kc.points_pruned_norm,
                                              std::memory_order_relaxed);
  }
  stats.kernel_dispatch_level.store(
      static_cast<size_t>(kernels::ActiveLevel()), std::memory_order_relaxed);
}

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_STATS_H_
