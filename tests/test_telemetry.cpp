// Telemetry contract tests: the histogram math against a scalar reference,
// the shared max-merge, span-stack nesting under real threads (the TSan
// target for the lock-free ring), wire-protocol version tolerance for the
// trace_id / span-section extensions, the serving scheduler's latency
// histograms on a FakeClock, slow-query logging, the registry render
// surface, and the end-to-end traced TCP query whose serve_request span
// leaves no more than a small self time untraced.
//
// The load-bearing disabled-mode property: a serving sweep produces
// bit-identical labels with tracing off and on — telemetry observes, it
// never perturbs.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dbscan/cell_index.h"
#include "dbscan/stats.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "parallel/engine_pool.h"
#include "parallel/scheduler.h"
#include "parallel/serving_clock.h"
#include "parallel/serving_scheduler.h"
#include "pdbscan/pdbscan.h"
#include "persist/snapshot.h"
#include "sharding/sharded_cell_index.h"
#include "streaming/dynamic_cell_index.h"
#include "telemetry/metrics.h"
#include "telemetry/stats_export.h"
#include "telemetry/trace.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

using parallel::FakeClock;
using parallel::MillisToNanos;
using pdbscan::testing::BlobPoints;
using pdbscan::testing::ExpectIdentical;
using telemetry::HistogramSnapshot;
using telemetry::LatencyHistogram;
using telemetry::SpanRecord;

// Restores the global trace-enabled flag on scope exit so tests cannot
// leak tracing into each other.
class TraceGuard {
 public:
  explicit TraceGuard(bool on) : prev_(telemetry::TraceEnabled()) {
    telemetry::SetTraceEnabled(on);
  }
  ~TraceGuard() { telemetry::SetTraceEnabled(prev_); }

 private:
  bool prev_;
};

// --- Histogram math against a scalar reference ------------------------------

// The reference percentile: sort the raw values, take the ceil(q*count)-th
// smallest, and report its bucket's inclusive upper bound. Bucket order is
// value order (bit_width is monotone), so this must match the histogram.
uint64_t ReferencePercentile(std::vector<uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return HistogramSnapshot::BucketUpperNanos(
      LatencyHistogram::BucketIndex(values[rank - 1]));
}

TEST(TelemetryHistogram, MatchesScalarReferenceOnRandomValues) {
  std::mt19937_64 rng(7);
  // A mix of magnitudes so many buckets populate: uniform exponents.
  std::vector<uint64_t> values;
  LatencyHistogram hist;
  for (int i = 0; i < 5000; ++i) {
    const int shift = static_cast<int>(rng() % 40);
    const uint64_t v = rng() >> (63 - shift > 0 ? 63 - shift : 0);
    values.push_back(v);
    hist.Record(v);
  }
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  uint64_t sum = 0;
  for (const uint64_t v : values) sum += v;
  EXPECT_EQ(snap.sum_nanos, sum);
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(snap.PercentileNanos(q), ReferencePercentile(values, q))
        << "q=" << q;
  }
}

TEST(TelemetryHistogram, BucketBoundariesArePowersOfTwo) {
  LatencyHistogram hist;
  hist.Record(0);     // Bucket 0: exactly {0}.
  hist.Record(1);     // Bucket 1: [1, 1].
  hist.Record(2);     // Bucket 2: [2, 3].
  hist.Record(3);     // Bucket 2.
  hist.Record(1024);  // Bucket 11: [1024, 2047].
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[11], 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperNanos(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperNanos(2), 3u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperNanos(11), 2047u);
}

TEST(TelemetryHistogram, MergeEqualsRecordingEverythingInOne) {
  std::mt19937_64 rng(13);
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng() % 1000000;
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.MergeFrom(b);
  const HistogramSnapshot merged = a.Snapshot();
  const HistogramSnapshot expect = combined.Snapshot();
  EXPECT_EQ(merged.count, expect.count);
  EXPECT_EQ(merged.sum_nanos, expect.sum_nanos);
  EXPECT_EQ(merged.buckets, expect.buckets);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.PercentileNanos(q), expect.PercentileNanos(q));
  }
}

// --- The shared max-merge ---------------------------------------------------

TEST(TelemetryMaxGauge, AtomicMaxOnlyRaises) {
  std::atomic<uint64_t> slot{5};
  telemetry::AtomicMax(slot, uint64_t{3});
  EXPECT_EQ(slot.load(), 5u);
  telemetry::AtomicMax(slot, uint64_t{9});
  EXPECT_EQ(slot.load(), 9u);

  telemetry::MaxGauge g1, g2;
  g1.Update(4);
  g2.Update(7);
  g1.MergeFrom(g2);
  EXPECT_EQ(g1.value(), 7u);
  g1.MergeFrom(g2);  // Idempotent.
  EXPECT_EQ(g1.value(), 7u);
}

TEST(TelemetryMaxGauge, PipelineStatsMergeTakesGaugeMax) {
  dbscan::PipelineStats a, b;
  a.queue_depth_peak.store(3);
  b.queue_depth_peak.store(8);
  a.kernel_dispatch_level.store(2);
  b.kernel_dispatch_level.store(1);
  a.MergeFrom(b);
  EXPECT_EQ(a.queue_depth_peak.load(), 8u);
  EXPECT_EQ(a.kernel_dispatch_level.load(), 2u);
}

// --- Span stacks under threads (the TSan target) ----------------------------

TEST(TelemetryTrace, NestedSpansLinkParentsPerThread) {
  TraceGuard trace(true);
  constexpr int kThreads = 8;
  std::vector<uint64_t> trace_ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    trace_ids[t] = telemetry::NewTraceId() + static_cast<uint64_t>(t);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      telemetry::ScopedTraceContext ctx(trace_ids[t]);
      for (int rep = 0; rep < 50; ++rep) {
        telemetry::TraceSpan outer("outer");
        telemetry::TraceSpan middle("middle");
        telemetry::TraceSpan inner("inner");
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::vector<SpanRecord> spans =
        telemetry::GlobalTraceRing().CollectTrace(trace_ids[t]);
    // The default ring holds 4096 slots for 8 * 150 = 1200 spans, but
    // concurrent writers may drop a few on slot collisions — require most
    // of them and verify structure on what survived.
    EXPECT_GE(spans.size(), 100u) << "thread " << t;
    std::vector<SpanRecord> by_id = spans;
    for (const SpanRecord& s : spans) {
      ASSERT_NE(s.name, nullptr);
      const std::string name = s.name;
      if (name == "outer") {
        EXPECT_EQ(s.parent_id, 0u);
      } else {
        // middle parents to an outer, inner to a middle — find it.
        const char* want = name == "middle" ? "outer" : "middle";
        bool found = false;
        for (const SpanRecord& p : by_id) {
          if (p.span_id == s.parent_id) {
            EXPECT_STREQ(p.name, want);
            found = true;
            break;
          }
        }
        // The parent span may have been dropped on a ring collision;
        // only check linkage when it survived.
        (void)found;
      }
      EXPECT_LE(s.start_nanos, s.end_nanos);
    }
  }
}

TEST(TelemetryTrace, DisabledSpansRecordNothing) {
  TraceGuard trace(false);
  const uint64_t before = telemetry::GlobalTraceRing().appended();
  {
    telemetry::TraceSpan span("should_not_record");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(telemetry::GlobalTraceRing().appended(), before);
}

TEST(TelemetryTrace, SpanTreeSelfTimesTelescope) {
  // root [0, 100], child a [10, 40], child b [50, 90], grandchild [55, 60].
  std::vector<SpanRecord> spans;
  spans.push_back({"root", 1, 100, 0, 0, 100});
  spans.push_back({"a", 1, 101, 100, 10, 40});
  spans.push_back({"b", 1, 102, 100, 50, 90});
  spans.push_back({"g", 1, 103, 102, 55, 60});
  const std::vector<telemetry::SpanNode> tree =
      telemetry::BuildSpanTree(spans);
  ASSERT_EQ(tree.size(), 4u);
  EXPECT_TRUE(tree[0].is_root);
  EXPECT_EQ(tree[0].self_nanos, 100u - 30u - 40u);
  EXPECT_EQ(tree[1].self_nanos, 30u);
  EXPECT_EQ(tree[2].self_nanos, 40u - 5u);
  EXPECT_EQ(tree[3].self_nanos, 5u);
  // Telescoping: self times sum to the root's duration.
  EXPECT_EQ(telemetry::TotalSelfNanos(tree), 100u);
  const std::string rendered = telemetry::FormatSpanTree(spans);
  EXPECT_NE(rendered.find("root"), std::string::npos);
  EXPECT_NE(rendered.find("  a"), std::string::npos);
}

// --- One way to time a stage ------------------------------------------------

// Every SECONDS field of PipelineStats is fed only by TraceSpan(name, field)
// scopes, so with tracing on a field's delta is exactly the summed duration
// of the spans that feed it. Runs every producer of stage seconds into one
// sink under one trace id and checks each field against its spans.
TEST(StageSpans, SecondsEqualSpanDurations) {
  TraceGuard trace(true);
  const uint64_t trace_id = telemetry::NewTraceId();
  telemetry::ScopedTraceContext ctx(trace_id);
  dbscan::PipelineStats stats;
  const auto pts = BlobPoints<2>(6000, 6, 60.0, 1.5, 11);
  const double eps = 1.0;
  const size_t cap = 8;

  const dbscan::CellIndex<2> index(pts, eps, cap, Options(), &stats);
  dbscan::QueryContext<2> query(&stats);
  query.Run(index, cap);      // In cap: the index's shared counts.
  query.Run(index, 2 * cap);  // Over cap: a private recount.

  streaming::DynamicCellIndex<2> dynamic(eps, cap, Options(), &stats);
  dynamic.ApplyUpdates(pts, {});

  const sharding::ShardedCellIndex<2> sharded(pts, eps, cap, 2, Options(),
                                              &stats);
  ASSERT_EQ(sharded.num_shards(), 2u);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pdbscan_stage_spans_" + std::to_string(::getpid()) + ".pdbsnap"))
          .string();
  persist::SnapshotWriter<2>::Write(path, index);
  persist::SnapshotReader<2>::Load(path, persist::LoadMode::kOwned, &stats);
  std::filesystem::remove(path);

  std::map<std::string, double> span_seconds;
  int shard_merges = 0;
  for (const SpanRecord& s :
       telemetry::GlobalTraceRing().CollectTrace(trace_id)) {
    std::string name = s.name;
    // The sharded build's two shard_merge spans, in order: cross-seam
    // discovery (cell construction), then the boundary recount (MarkCore).
    if (name == "shard_merge") {
      name += shard_merges++ == 0 ? ".discovery" : ".recount";
    }
    span_seconds[name] += static_cast<double>(s.duration_nanos()) * 1e-9;
  }
  EXPECT_EQ(shard_merges, 2);

  const std::map<std::string, std::vector<std::string>> feeds = {
      {"snapshot_load_seconds", {"snapshot_load"}},
      {"build_cells_seconds",
       {"build_cells", "streaming_recompose", "shard_build",
        "shard_recompose", "shard_merge.discovery"}},
      {"mark_core_seconds",
       {"mark_core_counts", "mark_core", "streaming_recount", "shard_count",
        "shard_merge.recount"}},
      {"cluster_core_seconds", {"cluster_core"}},
      {"cluster_border_seconds", {"cluster_border"}},
      {"finalize_seconds", {"finalize"}},
      {"shard_merge_seconds",
       {"shard_merge.discovery", "shard_merge.recount"}},
  };
  std::map<std::string, double> field_seconds;
#define PDBSCAN_TEST_SKIP(name)
#define PDBSCAN_TEST_SECONDS(name) field_seconds[#name] = stats.name.load();
  PDBSCAN_PIPELINE_STATS_FIELDS(PDBSCAN_TEST_SKIP, PDBSCAN_TEST_SKIP,
                                PDBSCAN_TEST_SECONDS)
#undef PDBSCAN_TEST_SKIP
#undef PDBSCAN_TEST_SECONDS
  ASSERT_EQ(field_seconds.size(), feeds.size());
  for (const auto& [field, seconds] : field_seconds) {
    const auto it = feeds.find(field);
    ASSERT_NE(it, feeds.end()) << field << " has no spans listed";
    double summed = 0;
    for (const std::string& name : it->second) {
      EXPECT_GT(span_seconds[name], 0) << name;
      summed += span_seconds[name];
    }
    EXPECT_NEAR(seconds, summed, 1e-6) << field;
  }
}

// --- Wire-protocol version tolerance ----------------------------------------

TEST(TelemetryProtocol, TraceIdRoundTripsAndOldFramesStillDecode) {
  net::QueryRequest req;
  req.min_pts = 42;
  req.trace_id = 0xdeadbeefcafe;
  net::QueryRequest out;
  ASSERT_TRUE(net::DecodeQueryRequest(net::EncodeQueryRequest(req), &out));
  EXPECT_EQ(out.min_pts, 42u);
  EXPECT_EQ(out.trace_id, 0xdeadbeefcafeu);

  // An untraced request encodes exactly the old payload (min_pts only), so
  // old servers that require AtEnd still accept it...
  net::QueryRequest untraced;
  untraced.min_pts = 7;
  const std::vector<uint8_t> old_wire = net::EncodeQueryRequest(untraced);
  EXPECT_EQ(old_wire.size(), sizeof(uint64_t));
  // ...and an old client's frame (min_pts only) decodes with trace_id 0.
  ASSERT_TRUE(net::DecodeQueryRequest(old_wire, &out));
  EXPECT_EQ(out.min_pts, 7u);
  EXPECT_EQ(out.trace_id, 0u);
}

TEST(TelemetryProtocol, SpanSectionRoundTripsAndIsOptional) {
  net::QueryResponse resp;
  resp.generation = 3;
  resp.num_points = 2;
  resp.num_clusters = 1;
  resp.cluster = {0, 0};
  resp.is_core = {1, 0};
  net::QueryResponse out;
  ASSERT_TRUE(net::DecodeQueryResponse(net::EncodeQueryResponse(resp), &out));
  EXPECT_TRUE(out.spans.empty());

  resp.spans.push_back({"serve_request", -1, 100, 900});
  resp.spans.push_back({"mark_core", 0, 150, 200});
  ASSERT_TRUE(net::DecodeQueryResponse(net::EncodeQueryResponse(resp), &out));
  ASSERT_EQ(out.spans.size(), 2u);
  EXPECT_EQ(out.spans[0].name, "serve_request");
  EXPECT_EQ(out.spans[0].parent, -1);
  EXPECT_EQ(out.spans[1].name, "mark_core");
  EXPECT_EQ(out.spans[1].parent, 0);
  EXPECT_EQ(out.spans[1].start_nanos, 150u);
  EXPECT_EQ(out.spans[1].duration_nanos, 200u);
}

TEST(TelemetryProtocol, StatsMessagesRoundTrip) {
  net::StatsRequest req;
  req.format = 1;
  net::StatsRequest req_out;
  ASSERT_TRUE(net::DecodeStatsRequest(net::EncodeStatsRequest(req), &req_out));
  EXPECT_EQ(req_out.format, 1);

  net::StatsResponse resp;
  resp.format = 0;
  resp.text = "{\"schema\":\"pdbscan-telemetry-v1\"}";
  net::StatsResponse resp_out;
  ASSERT_TRUE(
      net::DecodeStatsResponse(net::EncodeStatsResponse(resp), &resp_out));
  EXPECT_EQ(resp_out.format, 0);
  EXPECT_EQ(resp_out.text, resp.text);
}

// --- Registry and render surface --------------------------------------------

TEST(TelemetryRegistry, RendersPrometheusAndJson) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("requests_total").Add(3);
  registry.GetGauge("queue_peak").Update(5);
  registry.GetHistogram("latency").Record(1000);
  registry.GetHistogram("latency").Record(3000);
  registry.AddSource([](std::vector<telemetry::MetricValue>& out) {
    telemetry::AppendCounter(out, "source_counter", 11);
  });

  const std::string prom = telemetry::RenderPrometheus(registry.Collect());
  EXPECT_NE(prom.find("# TYPE pdbscan_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("pdbscan_requests_total 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pdbscan_queue_peak gauge"), std::string::npos);
  EXPECT_NE(prom.find("pdbscan_latency_count 2"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("pdbscan_source_counter 11"), std::string::npos);

  const std::string json = telemetry::RenderJson(registry.Collect());
  EXPECT_NE(json.find("\"schema\":\"pdbscan-telemetry-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"requests_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p50_nanos\":"), std::string::npos);
}

TEST(TelemetryRegistry, PipelineStatsExportCoversCountersAndGauges) {
  dbscan::PipelineStats stats;
  stats.successful_queries.store(9);
  stats.cache_hits.store(4);
  stats.queue_depth_peak.store(6);
  std::vector<telemetry::MetricValue> values;
  telemetry::AppendPipelineStats(stats, values);
  auto find = [&](const std::string& name) -> const telemetry::MetricValue* {
    for (const auto& v : values) {
      if (v.name == name) return &v;
    }
    return nullptr;
  };
  const auto* ok = find("successful_queries");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->value, 9.0);
  EXPECT_EQ(ok->kind, telemetry::MetricValue::Kind::kCounter);
  const auto* peak = find("queue_depth_peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->value, 6.0);
  EXPECT_EQ(peak->kind, telemetry::MetricValue::Kind::kGauge);
  ASSERT_NE(find("cache_hits"), nullptr);
}

TEST(TelemetryRegistry, SchedulerCountersMoveUnderATwoWorkerLoop) {
  parallel::ScopedNumWorkers workers(2);
  telemetry::MetricsRegistry registry;
  registry.AddSource(&telemetry::AppendSchedulerCounters);
  auto value = [&](const std::string& name) {
    for (const auto& v : registry.Collect()) {
      if (v.name == name) {
        EXPECT_EQ(v.kind, telemetry::MetricValue::Kind::kCounter) << name;
        return v.value;
      }
    }
    ADD_FAILURE() << "missing " << name;
    return 0.0;
  };
  const double spawned = value("scheduler_tasks_spawned");
  const double steals = value("scheduler_steals");
  const double parks = value("scheduler_parks");
  const double join_wait = value("scheduler_join_wait_nanos");

  // The caller holds its first index until the worker has stolen work, and
  // the worker's first index sleeps, so the caller's join must wait on it.
  const auto caller = std::this_thread::get_id();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> stolen(false);
  parallel::parallel_for(
      0, 64,
      [&](size_t) {
        if (std::this_thread::get_id() == caller) {
          while (!stolen.load() && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
        } else if (!stolen.exchange(true)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      },
      1);
  ASSERT_TRUE(stolen.load());
  EXPECT_GT(value("scheduler_tasks_spawned"), spawned);
  EXPECT_GT(value("scheduler_steals"), steals);
  EXPECT_GT(value("scheduler_join_wait_nanos"), join_wait);
  // With the loop done, the idle worker parks after a few failed steals.
  while (value("scheduler_parks") <= parks &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(value("scheduler_parks"), parks);
}

// --- Serving scheduler: histograms, slow-query log, bit-identity ------------

std::vector<Point2> ServingPoints(uint64_t seed = 11) {
  return BlobPoints<2>(600, 4, 30.0, 1.0, seed);
}

constexpr double kEps = 1.3;
constexpr size_t kCap = 64;

struct Harness {
  explicit Harness(parallel::ServingOptions opts = {})
      : pts(ServingPoints()),
        index(dbscan::CellIndex<2>::Build(pts, kEps, kCap)),
        pool(index) {
    opts.num_executors = 0;  // The test pumps.
    opts.clock = &clock;
    scheduler.emplace(pool, opts);
  }

  std::vector<Point2> pts;
  std::shared_ptr<const dbscan::CellIndex<2>> index;
  FakeClock clock;
  EnginePool<2> pool;
  std::optional<ServingScheduler<2>> scheduler;
};

TEST(TelemetryServing, HistogramsRecordQueueWaitAndRequestLatency) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 0;
  Harness h(opts);
  auto f1 = h.scheduler->SubmitAsync(3);
  h.clock.Advance(MillisToNanos(4));  // 4 ms in the queue.
  EXPECT_EQ(h.scheduler->Pump(), 1u);
  ASSERT_EQ(f1.get().status, ServeStatus::kOk);

  const auto& hist = h.scheduler->histograms();
  const HistogramSnapshot wait = hist.queue_wait_nanos.Snapshot();
  ASSERT_EQ(wait.count, 1u);
  EXPECT_EQ(wait.sum_nanos, MillisToNanos(4));
  const HistogramSnapshot request = hist.request_nanos.Snapshot();
  ASSERT_EQ(request.count, 1u);
  EXPECT_GE(request.sum_nanos, MillisToNanos(4));
  EXPECT_EQ(hist.execute_nanos.Snapshot().count, 1u);
}

TEST(TelemetryServing, SlowQueryLogFiresAboveThresholdOnly) {
  parallel::ServingOptions opts;
  opts.cache_capacity = 0;
  opts.slow_query_nanos = MillisToNanos(10);
  std::vector<std::string> logged;
  opts.slow_query_sink = [&](const std::string& msg) {
    logged.push_back(msg);
  };
  Harness h(opts);

  auto fast = h.scheduler->SubmitAsync(3);
  h.clock.Advance(MillisToNanos(2));
  EXPECT_EQ(h.scheduler->Pump(), 1u);
  ASSERT_EQ(fast.get().status, ServeStatus::kOk);
  EXPECT_TRUE(logged.empty());

  auto slow = h.scheduler->SubmitAsync(5);
  h.clock.Advance(MillisToNanos(50));
  EXPECT_EQ(h.scheduler->Pump(), 1u);
  ASSERT_EQ(slow.get().status, ServeStatus::kOk);
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_NE(logged[0].find("slow query"), std::string::npos);
  EXPECT_NE(logged[0].find("min_pts=5"), std::string::npos);
}

TEST(TelemetryServing, SweepBitIdenticalWithTracingOnAndOff) {
  const std::vector<size_t> kMinPts = {2, 3, 5, 8, 13};
  std::vector<Clustering> baseline;
  {
    TraceGuard trace(false);
    Harness h;
    for (const size_t mp : kMinPts) {
      auto f = h.scheduler->SubmitAsync(mp);
      h.scheduler->Pump();
      ServeResult r = f.get();
      ASSERT_EQ(r.status, ServeStatus::kOk);
      baseline.push_back(std::move(r.clustering));
    }
  }
  {
    TraceGuard trace(true);
    const uint64_t trace_id = telemetry::NewTraceId();
    telemetry::ScopedTraceContext ctx(trace_id);
    Harness h;
    for (size_t i = 0; i < kMinPts.size(); ++i) {
      auto f = h.scheduler->SubmitAsync(kMinPts[i]);
      h.scheduler->Pump();
      ServeResult r = f.get();
      ASSERT_EQ(r.status, ServeStatus::kOk);
      ExpectIdentical(baseline[i], r.clustering,
                      "traced sweep min_pts=" + std::to_string(kMinPts[i]));
    }
    // The traced run actually recorded spans (queue_wait at minimum).
    EXPECT_FALSE(
        telemetry::GlobalTraceRing().CollectTrace(trace_id).empty());
  }
}

// --- End-to-end: traced TCP query and the stats scrape ----------------------

class TelemetryNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Large enough that one query's server-side work spans milliseconds,
    // so its span breakdown has real durations to account for.
    pts_ = BlobPoints<2>(40000, 6, 60.0, 1.0, 29);
    index_ = dbscan::CellIndex<2>::Build(pts_, kEps, kCap);
    pool_ = std::make_unique<EnginePool<2>>(index_);
    parallel::ServingOptions opts;
    opts.cache_capacity = 0;  // Every query executes (so spans exist).
    scheduler_ =
        std::make_unique<parallel::ServingScheduler<2>>(*pool_, opts);
    net::ServerOptions sopts;
    sopts.registry = &registry_;
    server_ = std::make_unique<net::NetServer<2>>(*scheduler_, *pool_, kEps,
                                                  kCap, sopts, nullptr);
    server_->Start();
  }

  void TearDown() override {
    scheduler_->Shutdown();
    server_->Stop();
  }

  std::vector<Point2> pts_;
  std::shared_ptr<const dbscan::CellIndex<2>> index_;
  std::unique_ptr<EnginePool<2>> pool_;
  std::unique_ptr<parallel::ServingScheduler<2>> scheduler_;
  telemetry::MetricsRegistry registry_;
  std::unique_ptr<net::NetServer<2>> server_;
};

TEST_F(TelemetryNetTest, TracedQueryReturnsSpansAccountingForWallClock) {
  TraceGuard trace(true);
  net::Client client(server_->port());
  const uint64_t trace_id = telemetry::NewTraceId();
  const uint64_t wall_start = telemetry::NowNanos();
  const net::QueryResponse resp = client.Query(5, trace_id);
  const uint64_t wall_nanos = telemetry::NowNanos() - wall_start;
  EXPECT_EQ(resp.num_points, pts_.size());
  ASSERT_FALSE(resp.spans.empty());

  // The span names the instrumentation contract promises.
  auto has = [&](const std::string& name) {
    for (const auto& s : resp.spans) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("serve_request"));
  EXPECT_TRUE(has("queue_wait"));
  EXPECT_TRUE(has("coalesced_sweep"));
  EXPECT_TRUE(has("result_copy"));
  EXPECT_TRUE(has("mark_core"));
  EXPECT_TRUE(has("cluster_core"));

  // The breakdown fits inside the client-measured wall clock (the 5%-or-2ms
  // slack absorbs clock reads on either side), and no server work goes
  // untraced: serve_request's self time — its duration minus its direct
  // children's — is at most max(10%, 2 ms) of it. Both ends of that bound
  // are server clock reads, so client encode and TCP cannot move it.
  uint64_t root_nanos = 0;
  int32_t serve = -1;
  for (size_t i = 0; i < resp.spans.size(); ++i) {
    if (resp.spans[i].parent >= 0) continue;
    root_nanos += resp.spans[i].duration_nanos;
    if (resp.spans[i].name == "serve_request") serve = static_cast<int32_t>(i);
  }
  ASSERT_GT(root_nanos, 0u);
  const uint64_t slack = std::max(wall_nanos / 20, MillisToNanos(2));
  EXPECT_LE(root_nanos, wall_nanos + slack);

  ASSERT_GE(serve, 0);
  const uint64_t serve_nanos = resp.spans[serve].duration_nanos;
  uint64_t children_nanos = 0;
  for (const auto& s : resp.spans) {
    if (s.parent == serve) children_nanos += s.duration_nanos;
  }
  const uint64_t self_nanos =
      serve_nanos > children_nanos ? serve_nanos - children_nanos : 0;
  EXPECT_LE(self_nanos, std::max(serve_nanos / 10, MillisToNanos(2)))
      << "serve_request " << serve_nanos << " ns, direct children "
      << children_nanos << " ns";
}

TEST_F(TelemetryNetTest, UntracedQueryCarriesNoSpans) {
  TraceGuard trace(true);
  net::Client client(server_->port());
  const net::QueryResponse resp = client.Query(5);  // trace_id 0.
  EXPECT_TRUE(resp.spans.empty());
}

TEST_F(TelemetryNetTest, StatsScrapeRendersBothFormatsAndCountsAreMonotone) {
  net::Client client(server_->port());
  (void)client.Query(5);

  const net::StatsResponse json1 = client.Stats(0);
  EXPECT_NE(json1.text.find("\"schema\":\"pdbscan-telemetry-v1\""),
            std::string::npos);
  EXPECT_NE(json1.text.find("request_latency"), std::string::npos);
  EXPECT_NE(json1.text.find("successful_queries"), std::string::npos);

  const net::StatsResponse prom = client.Stats(1);
  EXPECT_NE(prom.text.find("# TYPE pdbscan_request_latency histogram"),
            std::string::npos);
  EXPECT_NE(prom.text.find("pdbscan_requests_served"), std::string::npos);

  // A second scrape after another query: served-request and query counters
  // only move up (monotonicity is what fleet dashboards rate() over).
  auto scrape_counter = [&](const std::string& text,
                            const std::string& name) -> long {
    const std::string needle = "\"" + name + "\":";
    const size_t pos = text.find(needle);
    if (pos == std::string::npos) return -1;
    return std::atol(text.c_str() + pos + needle.size());
  };
  const long served1 = scrape_counter(json1.text, "requests_served");
  (void)client.Query(7);
  const net::StatsResponse json2 = client.Stats(0);
  const long served2 = scrape_counter(json2.text, "requests_served");
  ASSERT_GE(served1, 0);
  ASSERT_GE(served2, 0);
  EXPECT_GT(served2, served1);
}

}  // namespace
}  // namespace pdbscan
