// Public API of the pdbscan library — parallel exact and approximate
// Euclidean DBSCAN (Wang, Gu & Shun, SIGMOD 2020).
//
// Quickstart (one-shot):
//
//   #include "pdbscan/pdbscan.h"
//
//   std::vector<pdbscan::Point2> pts = ...;
//   pdbscan::Clustering result =
//       pdbscan::Dbscan<2>(pts, /*epsilon=*/1.0, /*min_pts=*/10);
//   // result.cluster[i]        : primary cluster of point i (-1 = noise)
//   // result.is_core[i]        : core-point flag
//   // result.memberships(i)    : all clusters of point i (border points
//   //                            can belong to several)
//
// Quickstart (repeated queries / parameter sweeps):
//
//   pdbscan::DbscanEngine<2> engine;          // or DbscanEngine<2>(options)
//   engine.SetPoints(pts);                    // one-time preprocessing
//   auto sweep = engine.Sweep(1.0, {5, 10, 50});   // cells built once,
//                                                  // MarkCore counted once
//   auto other = engine.Run(2.0, 10);         // new epsilon: cells rebuilt,
//                                             // point layout + buffers reused
//
// The engine caches whatever the parameters allow: at a fixed epsilon the
// frozen index (cells, quadtrees, counts) is reused for every min_pts;
// across epsilon changes the epsilon-independent layout (dataset bounds,
// x-sorted order) and all scratch allocations are reused. Labels are
// bit-identical to one-shot Dbscan calls — both paths build a CellIndex and
// query it through a QueryContext.
//
// Quickstart (serving concurrent queries):
//
//   // Freeze the build products once; counts_cap bounds the min_pts range
//   // answered from the shared counts (larger values recount per query).
//   auto index = pdbscan::CellIndex<2>::Build(pts, /*epsilon=*/1.0,
//                                             /*counts_cap=*/100);
//   pdbscan::EnginePool<2> pool(index);
//   // From any number of threads, concurrently:
//   pdbscan::Clustering c = pool.Run(/*min_pts=*/10);
//   auto sweep = pool.Sweep({5, 10, 50});
//
// A CellIndex is immutable after construction, so sharing needs no locks;
// each concurrent query runs in a leased per-thread QueryContext and the
// results are bit-identical to serial Dbscan calls. Per-client counters
// aggregate via EnginePool::AggregateStats(). See dbscan/cell_index.h and
// parallel/engine_pool.h.
//
// Quickstart (production serving — bounded queues, deadlines, coalescing):
//
//   // Put a ServingScheduler in front of the pool when clients are
//   // untrusted or bursty: admission is bounded, every request carries a
//   // deadline, concurrent requests against the same snapshot share one
//   // batched execution, and repeated (generation, eps, min_pts) queries
//   // are answered from an LRU cache that snapshot replacement
//   // invalidates.
//   pdbscan::ServingScheduler<2> server(pool);        // defaults: 1
//                                                     // executor, 5s
//                                                     // deadline, 256 queue
//   std::future<pdbscan::ServeResult> f = server.SubmitAsync(10);
//   pdbscan::ServeResult r = f.get();
//   if (r.ok()) use(r.clustering);                    // else r.status says
//                                                     // kRejected/kTimedOut
//   // Blocking flavor with a per-request timeout:
//   auto r2 = server.Submit(10, pdbscan::parallel::MillisToNanos(50));
//
// Every kOk response is bit-identical to a solo EnginePool::Run at the
// generation it reports (coalesced and cached responses included — the
// bench enforces this by exit code). Tests drive the scheduler
// deterministically with pdbscan::FakeClock + manual Pump() — see
// parallel/serving_scheduler.h and parallel/serving_clock.h.
//
// Quickstart (streaming updates — serve a LIVE dataset):
//
//   // Grid cells + kScan counting, any dimension; starts empty.
//   pdbscan::StreamingClusterer<2> stream(/*epsilon=*/1.0,
//                                         /*counts_cap=*/100);
//   uint64_t first = stream.Insert(points);       // ids first, first+1, ...
//   // Any number of reader threads, concurrently with updates:
//   pdbscan::Clustering c = stream.Run(/*min_pts=*/10);
//   // Writer thread: batched inserts + erasures of stable ids.
//   stream.ApplyUpdates(new_points, /*erases=*/{first, first + 1});
//
// Each update batch recounts only the cells it dirties (plus their
// eps-neighborhood) and publishes an immutable CellIndex snapshot that the
// pool serves lock-free — the MarkCore counting work scales with the
// batch's dirty-cell footprint (the remaining per-batch work is a
// memcpy-scale recomposition pass), and readers never block on the writer.
// See streaming/dynamic_cell_index.h and streaming/streaming_clusterer.h.
//
// Quickstart (sharded builds — spatially partitioned construction):
//
//   // Grid cells + kScan counting, any dimension. The domain splits into
//   // 8 grid-aligned slabs, each shard builds and counts concurrently,
//   // and a boundary-merge stage reconciles only cells within one eps of
//   // a shard seam before freezing one merged immutable index.
//   pdbscan::ShardedClusterer<2> sharded(pts, /*epsilon=*/1.0,
//                                        /*counts_cap=*/100,
//                                        /*num_shards=*/8);
//   pdbscan::Clustering c = sharded.Run(/*min_pts=*/10);   // Any thread.
//
// Sharding is a build-time decomposition: the merged index is an ordinary
// CellIndex (EnginePool can be constructed from a ShardedCellIndex
// directly), queries run the standard pipeline against it, and exact
// configurations produce labels bit-identical to an unsharded run at any
// worker count. Merge work is proportional to the boundary-cell count, not
// the dataset (shard_boundary_cells / shard_seam_links in the stats sink;
// test_sharding's ShardedCellIndex.* cases enforce the proportionality).
// See sharding/shard_planner.h and sharding/sharded_cell_index.h.
//
// Quickstart (persistence — survive restarts, cold-start in milliseconds):
//
//   // Save any frozen index (built, streaming snapshot, or sharded merge):
//   auto index = pdbscan::CellIndex<2>::Build(pts, 1.0, 100);
//   pdbscan::SaveIndex<2>("index.pdbsnap", *index);
//   // ... new process — rehydrate instead of rebuilding. kMapped serves
//   // the index zero-copy straight out of the file mapping:
//   auto loaded = pdbscan::LoadIndex<2>("index.pdbsnap",
//                                       pdbscan::LoadMode::kMapped);
//   pdbscan::EnginePool<2> pool(loaded);       // serve it like any index
//   pdbscan::Clustering c = pool.Run(10);      // bit-identical labels
//
// Snapshots are versioned and checksummed: corrupted, truncated or
// version-skewed files throw pdbscan::PersistError instead of serving a
// silently wrong index. A LIVE dataset is durable through a WriterNode
// (see the distributed serving quickstart below): every batch is journaled
// before it is applied, Checkpoint() ships a snapshot, and a restart
// recovers the newest checkpoint plus the journal records after it —
// bit-identical to the uninterrupted run:
//
//   pdbscan::WriterOptions wopts;
//   wopts.checkpoint_every = 0;   // manual checkpoints only
//   pdbscan::WriterNode<2> live("/var/lib/idx", 1.0, 100, {}, wopts);
//   live.ApplyUpdates(points, {});   // journaled, then applied + published
//   live.Checkpoint();               // snapshot; covered segments pruned
//   // after a crash, the same constructor recovers.
//
// See persist/snapshot.h, persist/journal.h, net/replication.h.
//
// Configuration (pdbscan::Options) selects the paper's variants:
//   OurExact(), OurExactQt(), OurApprox(rho), OurApproxQt(rho),
//   Our2dGridBcp(), Our2dGridUsec(), Our2dGridDelaunay(),
//   Our2dBoxBcp(), Our2dBoxUsec(), Our2dBoxDelaunay(), WithBucketing(...).
//
// Exact variants return the clustering of the standard DBSCAN definition;
// approximate variants satisfy Gan & Tao's rho-approximate definition.
// Outputs are deterministic: equal inputs give identical labels regardless
// of thread count or schedule.
//
// Threading: the library uses a process-wide work-stealing pool sized from
// PDBSCAN_NUM_THREADS (default: the CPUs in the process's affinity mask);
// see parallel/scheduler.h and pdbscan::parallel::set_num_workers(). A
// DbscanEngine is single-threaded (one mutation site); concurrent serving
// goes through CellIndex + EnginePool, whose inner stages run on the same
// scheduler (loops from any client thread compose safely, and an exception
// thrown inside a parallel stage reaches the calling thread).
#ifndef PDBSCAN_PDBSCAN_H_
#define PDBSCAN_PDBSCAN_H_

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dbscan/cell_index.h"
#include "dbscan/engine.h"
#include "dbscan/pipeline.h"
#include "dbscan/types.h"
#include "geometry/point.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/replication.h"
#include "net/server.h"
#include "parallel/engine_pool.h"
#include "parallel/scheduler.h"
#include "parallel/serving_clock.h"
#include "parallel/serving_scheduler.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "quality/metrics.h"
#include "sharding/shard_planner.h"
#include "sharding/sharded_cell_index.h"
#include "sharding/sharded_clusterer.h"
#include "streaming/streaming_clusterer.h"
#include "telemetry/metrics.h"
#include "telemetry/stats_export.h"
#include "telemetry/trace.h"

namespace pdbscan {

// Fixed-dimension Euclidean point: the input type of every clustering
// surface. Point2/Point3 are the common shorthands.
template <int D>
using Point = geometry::Point<D>;
using Point2 = geometry::Point<2>;
using Point3 = geometry::Point<3>;

// The stateful, reusable clusterer for one thread: caches a CellIndex
// across min_pts changes and the layout across epsilon changes (see
// dbscan/engine.h for the caching contract).
template <int D>
using DbscanEngine = dbscan::DbscanEngine<D>;

// The frozen, shareable half of the pipeline: cells + quadtrees +
// saturated counts, strictly immutable after Build, shared across threads
// without locks (see dbscan/cell_index.h).
template <int D>
using CellIndex = dbscan::CellIndex<D>;

// Per-thread query state against shared CellIndexes: a private workspace
// plus a stats sink; one per serving thread (see dbscan/cell_index.h).
template <int D>
using QueryContext = dbscan::QueryContext<D>;

// Thread-safe serving facade: a shared CellIndex plus a leased-context
// free list behind Run/Sweep, callable from any number of threads (see
// parallel/engine_pool.h).
template <int D>
using EnginePool = parallel::EnginePool<D>;

// --- Serving surface (see parallel/serving_scheduler.h). -------------------

// The admission/batching/caching layer over an EnginePool: a bounded queue
// with per-request deadlines that refuses newcomers when full, cross-client
// query coalescing into single batched sweeps, a generation-keyed LRU
// result cache, and an async submission API.
template <int D>
using ServingScheduler = parallel::ServingScheduler<D>;

// Scheduler knobs: queue_limit, default_timeout_nanos, cache_capacity,
// coalescing, num_executors (0 = manual Pump mode), clock.
using ServingOptions = parallel::ServingOptions;

// One resolved request: status, the waiter's own Clustering, the snapshot
// generation it was served from, and cache/coalescing provenance flags.
using ServeResult = parallel::ServeResult;
using ServeStatus = parallel::ServeStatus;

// The serving stack's injectable time source; FakeClock makes deadline /
// overflow / coalescing races deterministic in tests (no real sleeps).
using Clock = parallel::Clock;
using FakeClock = parallel::FakeClock;

// Streaming writer: applies batched inserts/erases of stable point ids
// incrementally, publishing each state as an immutable CellIndex snapshot
// (see streaming/dynamic_cell_index.h).
template <int D>
using DynamicCellIndex = streaming::DynamicCellIndex<D>;

// Streaming facade: a DynamicCellIndex wired to an EnginePool — one
// writer, any number of readers, readers never block (see
// streaming/streaming_clusterer.h).
template <int D>
using StreamingClusterer = streaming::StreamingClusterer<D>;

// The executed sharding partition: split axis, lattice-aligned slab cuts,
// and the seam halo width (see sharding/shard_planner.h).
template <int D>
using ShardPlan = sharding::ShardPlan<D>;

// Plans grid-aligned spatial slabs for a point set at a given epsilon
// (deterministic; clamps the shard count to the lattice).
using ShardPlanner = sharding::ShardPlanner;

// Spatially partitioned index construction: concurrent per-shard builds, a
// boundary merge proportional to the seam size, one merged immutable
// CellIndex as the result (see sharding/sharded_cell_index.h).
template <int D>
using ShardedCellIndex = sharding::ShardedCellIndex<D>;

// Sharded-build-plus-serving facade: a ShardedCellIndex wired to an
// EnginePool; Run/Sweep from any thread, bit-identical to unsharded runs
// for exact configurations (see sharding/sharded_clusterer.h).
template <int D>
using ShardedClusterer = sharding::ShardedClusterer<D>;

// --- Quality surface (see quality/metrics.h). -------------------------------
//
// Grades a clustering against reference labels with the community-standard
// agreement metrics (noise is one ordinary label, matching sklearn usage):
//
//   auto truth = pdbscan::ReadLabelsFile("dataset.labels");
//   pdbscan::QualityReport q = pdbscan::EvaluateQuality(result, truth);
//   // q.ari, q.nmi, q.predicted_noise_ratio, q.cluster_size_histogram,
//   // q.label_checksum (FNV-1a over the labels — what golden tests pin).
//
// pdbscan_cli --quality <labels-file> prints the same report to stderr;
// test_quality's GoldenCorpus.* cases pin it on the golden-label corpus.
using QualityReport = quality::QualityReport;
using quality::AdjustedRandIndex;
using quality::ClusterSizeHistogram;
using quality::EvaluateQuality;
using quality::LabelChecksum;
using quality::NoiseRatio;
using quality::NormalizedMutualInfo;
using quality::ReadLabelsFile;

// --- Persistence surface (see persist/). -----------------------------------

// Every persistence failure: IO errors, bad magic, version / endianness /
// dimension mismatch, checksum failure, truncation.
using PersistError = persist::PersistError;

// How LoadIndex materializes a snapshot: kOwned copies the arrays out of
// the file; kMapped serves them zero-copy from the mmap (the file must
// stay in place while the index lives).
using LoadMode = persist::LoadMode;

// Journal durability: fdatasync per batch (kEveryBatch) or OS-buffered
// (kNone).
using FsyncPolicy = persist::FsyncPolicy;

// Header-only summary of a snapshot file (dimension, sizes, parameters) —
// the runtime-dimension dispatch point for loading.
using persist::PeekSnapshot;
using SnapshotInfo = persist::SnapshotInfo;

// Snapshot writer/reader pair behind SaveIndex/LoadIndex; use directly for
// streaming checkpoints (live ids travel with the index).
template <int D>
using SnapshotWriter = persist::SnapshotWriter<D>;
template <int D>
using SnapshotReader = persist::SnapshotReader<D>;

// The streaming write-ahead log (attach via DynamicCellIndex::set_journal;
// WriterNode manages rotating segments of it automatically).
template <int D>
using UpdateJournal = persist::UpdateJournal<D>;

// --- Distributed serving surface (see net/). --------------------------------
//
// Quickstart (one writer, N snapshot-shipping replicas over TCP):
//
//   // Writer process: owns the dataset, journals every batch to rotating
//   // segments under /shared/ds, checkpoints snapshots there on a cadence.
//   pdbscan::WriterNode<2> writer("/shared/ds", /*epsilon=*/1.0,
//                                 /*counts_cap=*/100);
//   pdbscan::ServingScheduler<2> sched(writer.pool());
//   pdbscan::NetServer<2> server(sched, writer.pool(), 1.0, 100);
//   server.Start();                       // TCP front-end on 127.0.0.1
//
//   // Replica processes: cold-start from the newest shipped checkpoint
//   // (mmap) and tail the journal segments — each applied batch is
//   // republished at the writer's generation numbering.
//   pdbscan::ReplicaNode<2> replica("/shared/ds", 1.0, 100);
//   replica.StartTailing();
//
//   // Any client, against ANY node:
//   pdbscan::NetClient client(server.port());
//   auto resp = client.Query(/*min_pts=*/10);   // resp.generation,
//                                               // resp.cluster, resp.is_core
//
// The cross-replica identity contract: labels for the same (generation,
// eps, min_pts) are bit-identical no matter which node answered —
// generation numbers name dataset states (batches applied + 1), shared by
// every node through the checkpoint/journal pairing. tools/
// pdbscan_server.cpp is the ready-made node binary; test_net's
// *MultiProcess* cases enforce the contract across real processes. See
// net/replication.h, net/server.h, net/protocol.h.

template <int D>
using WriterNode = net::WriterNode<D>;
template <int D>
using ReplicaNode = net::ReplicaNode<D>;
using WriterOptions = net::WriterOptions;
using ReplicaOptions = net::ReplicaOptions;

template <int D>
using NetServer = net::NetServer<D>;
using NetServerOptions = net::ServerOptions;
using NetClient = net::Client;

// Transport failure (connect/send/recv) vs. server-reported protocol
// error (carries the wire ErrorCode).
using NetError = net::NetError;
using RemoteError = net::RemoteError;

// --- Telemetry surface (see telemetry/). ------------------------------------
//
// Quickstart (metrics + tracing):
//
//   // Pull-based export: counters/gauges/histograms plus sources that
//   // publish existing stat structs, rendered as Prometheus text or JSON.
//   pdbscan::MetricsRegistry registry;
//   registry.AddSource([&](std::vector<pdbscan::MetricValue>& out) {
//     pdbscan::telemetry::AppendPipelineStats(stats, out);
//   });
//   std::string prom = pdbscan::RenderPrometheus(registry.Collect());
//
//   // Tracing: RAII spans at every stage boundary, ~free when disabled.
//   pdbscan::telemetry::SetTraceEnabled(true);   // or PDBSCAN_TRACE=1
//   uint64_t trace_id = pdbscan::telemetry::NewTraceId();
//   { pdbscan::telemetry::ScopedTraceContext ctx(trace_id);
//     pool.Run(10); }
//   auto spans = pdbscan::telemetry::GlobalTraceRing().CollectTrace(trace_id);
//   std::fputs(pdbscan::telemetry::FormatSpanTree(spans).c_str(), stderr);
//
// Served queries propagate the trace id over the wire (QueryRequest
// .trace_id) and return their server-side span breakdown in the response;
// NetServer answers kStatsRequest with the registry's rendered metrics
// (pdbscan_client stats). See telemetry/metrics.h and telemetry/trace.h.
using MetricsRegistry = telemetry::MetricsRegistry;
using MetricValue = telemetry::MetricValue;
using LatencyHistogram = telemetry::LatencyHistogram;
using HistogramSnapshot = telemetry::HistogramSnapshot;
using TraceSpan = telemetry::TraceSpan;
using telemetry::RenderJson;
using telemetry::RenderPrometheus;

// Serializes a frozen index (crash-safe temp-then-rename write).
template <int D>
void SaveIndex(const std::string& path, const dbscan::CellIndex<D>& index,
               dbscan::PipelineStats* stats = nullptr) {
  persist::SnapshotWriter<D>::Write(path, index, stats);
}

// Rehydrates a saved index for serving (EnginePool, QueryContext, sweeps).
// Labels from a loaded index are bit-identical to the index that was
// saved. Throws PersistError on corruption/truncation/version mismatch and
// when the snapshot's dimension is not D (PeekSnapshot reports the dim).
template <int D>
std::shared_ptr<const dbscan::CellIndex<D>> LoadIndex(
    const std::string& path, LoadMode mode = LoadMode::kOwned,
    dbscan::PipelineStats* stats = nullptr) {
  return persist::SnapshotReader<D>::Load(path, mode, stats).index;
}

// Dimensions instantiated for the runtime-dispatch overload (the paper's
// evaluation uses 2, 3, 5, 7 and 13).
inline constexpr int kSupportedDims[] = {2, 3, 4, 5, 7, 13};

// Invokes f.template operator()<D>() with D = dim; throws
// std::invalid_argument for dimensions not in kSupportedDims. The single
// runtime-dimension dispatch point for the library and its harnesses.
template <typename F>
auto DispatchDim(int dim, F&& f) {
  switch (dim) {
    case 2:
      return f.template operator()<2>();
    case 3:
      return f.template operator()<3>();
    case 4:
      return f.template operator()<4>();
    case 5:
      return f.template operator()<5>();
    case 7:
      return f.template operator()<7>();
    case 13:
      return f.template operator()<13>();
    default:
      throw std::invalid_argument(
          "unsupported dimension (supported: 2, 3, 4, 5, 7, 13)");
  }
}

// Clusters `points` with the given parameters. See dbscan/types.h for the
// result contract.
template <int D>
Clustering Dbscan(std::span<const Point<D>> points, double epsilon,
                  size_t min_pts, const Options& options = Options()) {
  return dbscan::RunDbscan<D>(points, epsilon, min_pts, options);
}

// Vector convenience for the overload above.
template <int D>
Clustering Dbscan(const std::vector<Point<D>>& points, double epsilon,
                  size_t min_pts, const Options& options = Options()) {
  return Dbscan<D>(std::span<const Point<D>>(points), epsilon, min_pts,
                   options);
}

// Runtime-dimension overload over row-major coordinates (n x dim doubles).
// Throws std::invalid_argument for dimensions not in kSupportedDims — before
// touching the data, so an unsupported dim never pays the O(n * dim) copy.
// The coordinates are materialized directly into the engine's point copy
// (a single copy, no intermediate vector).
inline Clustering Dbscan(const double* data, size_t n, int dim, double epsilon,
                         size_t min_pts, const Options& options = Options()) {
  return DispatchDim(dim, [&]<int D>() {
    dbscan::DbscanEngine<D> engine(options);
    engine.SetPointsStrided(data, n, static_cast<size_t>(dim));
    return engine.Run(epsilon, min_pts);
  });
}

}  // namespace pdbscan

#endif  // PDBSCAN_PDBSCAN_H_
