// perfbench driver: one workload per process.
//
//   perfbench_driver --workload batch_3d|serve_2d|stream_2d --seed N
//                    --seconds S --trace 0|1 [--scale F]
//
// Prints a host-context line and then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// operation failed its correctness check. See README.md for the workloads
// and the meaning of every metric.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/seed_spreader.h"
#include "dbscan/cell_index.h"
#include "dbscan/verify.h"
#include "harness.h"
#include "kernels/kernel_api.h"
#include "parallel/engine_pool.h"
#include "parallel/scheduler.h"
#include "parallel/serving_scheduler.h"
#include "quality/metrics.h"
#include "streaming/streaming_clusterer.h"
#include "telemetry/trace.h"

namespace perfbench {
namespace {

using pdbscan::Clustering;
using pdbscan::dbscan::CellIndex;
using pdbscan::dbscan::PipelineStats;
using pdbscan::dbscan::QueryContext;
using pdbscan::parallel::EnginePool;
using pdbscan::parallel::ServeResult;
using pdbscan::parallel::ServingScheduler;
namespace telemetry = pdbscan::telemetry;
template <int D>
using Points = std::vector<pdbscan::geometry::Point<D>>;

constexpr int kSetupReps = 5;      // setup_s is the median of these.
constexpr size_t kMinSamples = 5;  // Per clustering phase.
constexpr size_t kClusterMinPts = 10;
constexpr size_t kServeMinPtsLo = 2;
constexpr size_t kServeMinPtsHi = 128;
// Share of --seconds the serving workloads spend in the client loop; the
// rest is their clustering phase.
constexpr double kLoopShare = 0.8;
// Trace-ring slots for --trace 1 (~30 MB); the traced phase stops early
// once half of it is used, so no span is overwritten.
constexpr size_t kTraceRingSlots = size_t{1} << 19;

// SS-varden with a fixed density mix. data::SsVarden draws one of five
// density classes (vicinity and drift scaled by 1, 2, 4, 8, 16) at each of
// ~10 random-walk restarts, so the share of points per class, and with it
// the clustering cost, swings about 2x from seed to seed. Here each class
// gets an equal share of the points, generated by the library's seed
// spreader as its own walk with kRestartsPerClass restarts. The classes
// follow one another, or with `block` > 0 take turns in runs of `block`
// points, so that every stretch of the output has the same density mix.
constexpr int kDensityClasses = 5;
constexpr double kRestartsPerClass = 100;

template <int D>
Points<D> SsVarden(size_t n, uint64_t seed, size_t block = 0) {
  std::vector<Points<D>> parts;
  for (int cls = 0; cls < kDensityClasses; ++cls) {
    pdbscan::data::SeedSpreaderParams p;
    p.n = n / kDensityClasses +
          (static_cast<size_t>(cls) < n % kDensityClasses ? 1 : 0);
    p.seed = seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(cls);
    p.vicinity *= 1 << cls;
    p.shift *= 1 << cls;
    p.restart_expected = kRestartsPerClass;
    parts.push_back(pdbscan::data::SeedSpreader<D>(p));
  }
  if (block == 0) block = n;
  Points<D> out;
  out.reserve(n);
  for (size_t at = 0; out.size() < n; at += block) {
    for (const Points<D>& part : parts) {
      if (at >= part.size()) continue;
      const size_t end = std::min(part.size(), at + block);
      out.insert(out.end(), part.begin() + at, part.begin() + end);
    }
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;

  size_t Scaled(size_t n) const {
    return std::max<size_t>(1000, static_cast<size_t>(n * scale));
  }
};

// Everything a run reports; main prints one of the two metric sets.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  size_t attempted = 0;
  size_t failed = 0;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

bool TraceRoomLeft() {
  const auto& ring = telemetry::GlobalTraceRing();
  return !telemetry::TraceEnabled() || ring.appended() < ring.capacity() / 2;
}

// Runs `work(trace_id, root_span_id)` with tracing on, under a benchmark
// root span, and returns the self-time analysis of everything recorded.
template <typename F>
SpanReport Traced(F&& work) {
  telemetry::SetTraceEnabled(true);
  const uint64_t trace_id = telemetry::NewTraceId();
  uint64_t root_id = 0;
  {
    telemetry::ScopedTraceContext ctx(trace_id);
    telemetry::TraceSpan root("perfbench.root");
    root_id = root.span_id();
    work(trace_id, root_id);
  }
  telemetry::SetTraceEnabled(false);
  return AnalyzeSpans(root_id);
}

// --- One clustering: CellIndex::Build then QueryContext::Run ---------------

struct ClusterSample {
  double build_s = 0;  // CellIndex::Build.
  double query_s = 0;  // QueryContext::Run.
  StageStats build;    // The Build call's PipelineStats sink.
  StageStats query;    // The Run call's PipelineStats sink.
  double cells = 0;
  uint64_t digest = 0;
  uint64_t checksum = 0;  // quality::LabelChecksum of the primary labels.

  double total_s() const { return build_s + query_s; }
};

template <int D>
ClusterSample ClusterOnce(const Points<D>& pts, double eps, size_t cap,
                          Clustering* keep = nullptr) {
  ClusterSample s;
  PipelineStats build_sink;
  PipelineStats query_sink;
  std::shared_ptr<const CellIndex<D>> index;
  s.build_s = TimeCall("perfbench.build", [&]() {
    index = CellIndex<D>::Build(pts, eps, cap, pdbscan::Options(), &build_sink);
  });
  QueryContext<D> ctx(&query_sink);
  Clustering c;
  s.query_s = TimeCall("perfbench.query",
                       [&]() { c = ctx.Run(*index, kClusterMinPts); });
  s.build = Read(build_sink);
  s.query = Read(query_sink);
  s.cells = static_cast<double>(index->num_cells());
  {
    BenchSpan check("perfbench.check");
    s.digest = Digest(c);
    s.checksum = pdbscan::quality::LabelChecksum(c.cluster);
  }
  if (keep != nullptr) *keep = std::move(c);
  return s;
}

// Clusters repeatedly at `workers` for `budget_s` (at least kMinSamples).
template <int D>
std::vector<ClusterSample> ClusterFor(const Points<D>& pts, double eps,
                                      size_t cap, int workers,
                                      double budget_s) {
  pdbscan::parallel::set_num_workers(workers);
  std::vector<ClusterSample> out;
  const auto start = SteadyClock::now();
  while (out.size() < kMinSamples || SecondsSince(start) < budget_s) {
    out.push_back(ClusterOnce<D>(pts, eps, cap));
  }
  return out;
}

// Clusters alternately at `workers` and at 1 worker for `budget_s` (at least
// kMinSamples each), so both arms see the same host conditions.
template <int D>
void ClusterAlternating(const Points<D>& pts, double eps, size_t cap,
                        int workers, double budget_s,
                        std::vector<ClusterSample>& par,
                        std::vector<ClusterSample>& serial) {
  const auto start = SteadyClock::now();
  while (serial.size() < kMinSamples || SecondsSince(start) < budget_s) {
    pdbscan::parallel::set_num_workers(workers);
    par.push_back(ClusterOnce<D>(pts, eps, cap));
    pdbscan::parallel::set_num_workers(1);
    serial.push_back(ClusterOnce<D>(pts, eps, cap));
  }
  pdbscan::parallel::set_num_workers(workers);
}

// The clustering phase of the serving workloads. The end-to-end metrics read
// only P-worker clusterings, so an untraced run spends the whole phase on
// them; a traced run alternates with 1-worker ones for the `_serial_s`
// layer metrics.
template <int D>
void ClusterPhase(const Args& args, const Points<D>& pts, double eps,
                  size_t cap, int workers, double budget_s,
                  std::vector<ClusterSample>& par,
                  std::vector<ClusterSample>& serial) {
  if (args.trace) {
    ClusterAlternating<D>(pts, eps, cap, workers, budget_s, par, serial);
  } else {
    par = ClusterFor<D>(pts, eps, cap, workers, budget_s);
  }
}

template <typename F>
double MedianOf(const std::vector<ClusterSample>& v, F&& field) {
  std::vector<double> x;
  for (const ClusterSample& s : v) x.push_back(field(s));
  return Median(x);
}

std::vector<double> Ms(const std::vector<ClusterSample>& v,
                       double (*field)(const ClusterSample&)) {
  std::vector<double> x;
  for (const ClusterSample& s : v) x.push_back(1e3 * field(s));
  return x;
}

// --- Closed-loop serving clients -------------------------------------------

struct ClientLog {
  std::vector<double> latency_ms;
  size_t submitted = 0;
  size_t ok = 0;
  size_t failed = 0;
  // One workload-defined (key, value) pair per kOk response, checked after
  // the loop: (min_pts, digest) on serve_2d, (generation, points) on
  // stream_2d.
  std::vector<std::pair<uint64_t, uint64_t>> served;
  double busy_s = 0;  // First submit to last result.
};

struct LoopResult {
  std::vector<double> latency_ms;
  size_t submitted = 0;
  size_t ok = 0;
  size_t failed = 0;
  // Sum over clients of completed requests / the client's busy time, per
  // loop; a closed-loop client is busy from its first submit to its last
  // result, so this has no idle tail at the end of the window.
  double rate_sum = 0;
  int loops = 1;
  std::vector<std::pair<uint64_t, uint64_t>> served;

  void Merge(const LoopResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    submitted += o.submitted;
    ok += o.ok;
    failed += o.failed;
    rate_sum += o.rate_sum;
    loops += o.loops;
    served.insert(served.end(), o.served.begin(), o.served.end());
  }
  double Qps() const { return rate_sum / loops; }
};

// `clients` threads each Submit(min_pts) until `seconds` pass;
// `verify(result)` runs off the clock and returns whether the response is
// correct. Every kRepeatEvery-th request of a client repeats its previous
// min_pts, a result-cache hit unless the generation moved; the others take
// the next value of one seeded permutation of [kServeMinPtsLo,
// kServeMinPtsHi], shared by all clients, so they miss: the permutation,
// cycled, is longer than the 64-entry LRU result cache. Independent
// uniform draws would make the hit share grow with the number of requests
// a run completes: a slower host would complete fewer, hit fewer and look
// slower still.
// Requests carry no deadline: at the seed commit one takes ~2.5 s behind
// P closed-loop clients, so the default 5 s deadline turned a loaded host
// into failed requests instead of longer latencies.
constexpr size_t kRepeatEvery = 4;

template <int D, typename Verify>
LoopResult RunClients(ServingScheduler<D>& sched, int clients, uint64_t seed,
                      uint64_t round, double seconds, uint64_t trace_id,
                      uint64_t root_id, Verify&& verify) {
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::vector<size_t> fresh(kServeMinPtsHi - kServeMinPtsLo + 1);
  std::iota(fresh.begin(), fresh.end(), kServeMinPtsLo);
  std::mt19937_64 rng(seed * 7919);
  std::shuffle(fresh.begin(), fresh.end(), rng);
  // A second round (the traced half) starts half-way through the same
  // permutation, so it does not replay the first round's cached values.
  std::atomic<size_t> next_fresh{round * fresh.size() / 2};
  const auto deadline =
      SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      telemetry::ScopedTraceContext ctx(trace_id, root_id);
      ClientLog& log = logs[static_cast<size_t>(c)];
      size_t min_pts = 0;
      const auto start = SteadyClock::now();
      while (SteadyClock::now() < deadline && TraceRoomLeft()) {
        if (log.submitted % kRepeatEvery != kRepeatEvery - 1) {
          min_pts = fresh[next_fresh.fetch_add(1) % fresh.size()];
        }
        ServeResult res;
        bool threw = false;
        {
          BenchSpan span("perfbench.submit");
          try {
            res = sched.Submit(min_pts, pdbscan::parallel::kNeverNanos);
          } catch (const std::exception&) {
            threw = true;
          }
          log.latency_ms.push_back(1e3 * span.Seconds());
        }
        ++log.submitted;
        BenchSpan check("perfbench.check");
        if (!threw && res.ok() && verify(res, log)) {
          ++log.ok;
        } else {
          ++log.failed;
        }
      }
      log.busy_s = SecondsSince(start);
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  for (const ClientLog& log : logs) {
    out.latency_ms.insert(out.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
    out.submitted += log.submitted;
    out.ok += log.ok;
    out.failed += log.failed;
    out.rate_sum += Ratio(static_cast<double>(log.ok), log.busy_s);
    out.served.insert(out.served.end(), log.served.begin(), log.served.end());
  }
  return out;
}

// --- Metric assembly -------------------------------------------------------

// Inputs of the per-layer metric set. Fields a workload does not exercise
// stay 0.
struct LayerInputs {
  double generate_s = 0;
  const std::vector<ClusterSample>* par = nullptr;
  const std::vector<ClusterSample>* serial = nullptr;
  // Kernel counters per clustering build (batch_3d, serve_2d) or per
  // ApplyUpdates batch (stream_2d).
  double kernel_batches = 0;
  double kernel_pruned_box = 0;
  double kernel_pruned_norm = 0;
  double kernel_level = 0;
  int workers = 1;
  double pfor_ms = 0;
  double pfor_serial_ms = 0;
  double queue_wait_p50_ms = 0;
  double execute_p50_ms = 0;
  StageStats serving;  // ServingScheduler::AggregateStats.
  double contexts_created = 0;
  StageStats streaming;  // StreamingClusterer::update_stats, timed loop only.
  SpanReport spans;
  double overhead_ratio = 0;
  double calibration_ms = 0;
  double calibration_serial_ms = 0;
};

double MedianSelf(const SpanReport& r, const char* name) {
  auto it = r.self_s.find(name);
  return it == r.self_s.end() ? 0 : Median(it->second);
}

std::vector<Metric> PerLayer(const LayerInputs& in) {
  std::vector<Metric> m;
  m.push_back({"data.generate_s", in.generate_s, "s"});
  for (const bool serial : {false, true}) {
    const auto& v = serial ? *in.serial : *in.par;
    const std::string sfx = serial ? "_serial_s" : "_s";
    auto add = [&](const char* stage, double value) {
      m.push_back({std::string("dbscan.") + stage + sfx, value, "s"});
    };
    add("build_index", MedianOf(v, [](auto& s) { return s.build_s; }));
    add("build_cells",
        MedianOf(v, [](auto& s) { return s.build.build_cells_s; }));
    add("mark_core_counts",
        MedianOf(v, [](auto& s) { return s.build.mark_core_s; }));
    add("query", MedianOf(v, [](auto& s) { return s.query_s; }));
    add("cluster_core",
        MedianOf(v, [](auto& s) { return s.query.cluster_core_s; }));
    add("cluster_border",
        MedianOf(v, [](auto& s) { return s.query.cluster_border_s; }));
    add("finalize", MedianOf(v, [](auto& s) { return s.query.finalize_s; }));
  }
  const ClusterSample& first = in.par->front();
  m.push_back({"dbscan.cells", first.cells, "count"});
  m.push_back({"dbscan.connectivity_queries", first.query.connectivity_queries,
               "count"});
  m.push_back({"dbscan.pruned_query_ratio",
               Ratio(first.query.pruned_queries,
                     first.query.pruned_queries +
                         first.query.connectivity_queries),
               "ratio"});
  m.push_back({"kernels.batches", in.kernel_batches, "count"});
  m.push_back({"kernels.points_pruned_box", in.kernel_pruned_box, "count"});
  m.push_back({"kernels.points_pruned_norm", in.kernel_pruned_norm, "count"});
  m.push_back({"kernels.dispatch_level", in.kernel_level, "level"});
  m.push_back({"parallel.workers", static_cast<double>(in.workers), "count"});
  m.push_back({"parallel.pfor_grain1_ms", in.pfor_ms, "ms"});
  m.push_back({"parallel.pfor_grain1_serial_ms", in.pfor_serial_ms, "ms"});
  const StageStats& sv = in.serving;
  m.push_back(
      {"parallel.serving_queue_wait_p50_ms", in.queue_wait_p50_ms, "ms"});
  m.push_back({"parallel.serving_execute_p50_ms", in.execute_p50_ms, "ms"});
  m.push_back({"parallel.serving_coalesced_ratio",
               Ratio(sv.requests_coalesced,
                     sv.requests_admitted - sv.cache_hits),
               "ratio"});
  m.push_back({"parallel.serving_cache_hit_ratio",
               Ratio(sv.cache_hits, sv.cache_hits + sv.cache_misses),
               "ratio"});
  m.push_back(
      {"parallel.serving_queue_depth_peak", sv.queue_depth_peak, "count"});
  m.push_back({"parallel.serving_rejected", sv.requests_rejected, "count"});
  m.push_back({"parallel.serving_timed_out", sv.requests_timed_out, "count"});
  m.push_back(
      {"parallel.pool_contexts_created", in.contexts_created, "count"});
  const StageStats& st = in.streaming;
  m.push_back({"streaming.cells_rebuilt_ratio",
               Ratio(st.cells_rebuilt, st.cells_rebuilt + st.cells_retained),
               "ratio"});
  m.push_back(
      {"streaming.snapshots_published", st.snapshots_published, "count"});
  m.push_back({"dbscan.build_grid_self_s", MedianSelf(in.spans, "build_grid"),
               "s"});
  m.push_back({"parallel.lease_acquire_self_s",
               MedianSelf(in.spans, "lease_acquire"), "s"});
  m.push_back({"parallel.coalesced_sweep_self_s",
               MedianSelf(in.spans, "coalesced_sweep"), "s"});
  m.push_back({"streaming.recount_self_s",
               MedianSelf(in.spans, "streaming_recount"), "s"});
  m.push_back({"telemetry.untraced_share",
               Ratio(in.spans.root_self_s, in.spans.root_duration_s),
               "ratio"});
  m.push_back({"telemetry.overhead_ratio", in.overhead_ratio, "ratio"});
  m.push_back({"telemetry.spans_dropped",
               static_cast<double>(in.spans.spans_lost), "count"});
  m.push_back({"host.calibration_ms", in.calibration_ms, "ms"});
  m.push_back({"host.calibration_serial_ms", in.calibration_serial_ms, "ms"});
  return m;
}

struct EndToEndInputs {
  std::vector<double> setup_s;
  const std::vector<ClusterSample>* par = nullptr;
  double qps = 0;
  std::vector<double> latency_ms;
  std::vector<double> update_ms;
};

std::vector<Metric> EndToEnd(const EndToEndInputs& in) {
  return {
      {"setup_s", Median(in.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"cluster_s", MedianOf(*in.par, [](auto& s) { return s.total_s(); }),
       "s"},
      {"qps", in.qps, "1/s"},
      {"latency_p50_ms", Median(in.latency_ms), "ms"},
      {"update_p50_ms", Median(in.update_ms), "ms"},
  };
}

// Kernel counters per clustering build, from the Build calls' sinks.
void KernelsFromBuilds(const std::vector<ClusterSample>& par,
                       LayerInputs& layer) {
  layer.kernel_batches =
      MedianOf(par, [](auto& s) { return s.build.kernel_batches; });
  layer.kernel_pruned_box =
      MedianOf(par, [](auto& s) { return s.build.kernel_pruned_box; });
  layer.kernel_pruned_norm =
      MedianOf(par, [](auto& s) { return s.build.kernel_pruned_norm; });
  layer.kernel_level = par.front().build.kernel_level;
}

void AddParallelProbes(const Args& args, int workers, LayerInputs& layer) {
  layer.workers = workers;
  if (!args.trace) return;  // Per-layer only.
  layer.pfor_ms = PforGrain1Ms(workers);
  layer.pfor_serial_ms = PforGrain1Ms(1);
}

// --- batch_3d ----------------------------------------------------------------

// The paper's task: SS-varden 3D, eps 400, min_pts 10. An untraced run
// clusters repeatedly at P workers, then once at 1 worker off the clock for
// the correctness gate; a traced run clusters repeatedly at both.
Report BatchWorkload(const Args& args, int workers, LayerInputs& layer) {
  const size_t n = args.Scaled(500'000);
  const double eps = 400;
  const size_t cap = 10;
  Report report;
  EndToEndInputs e2e;
  std::vector<double> gen_s;
  Points<3> pts;
  uint64_t want = 0;
  pdbscan::parallel::set_num_workers(workers);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = SteadyClock::now();
    gen_s.push_back(TimeCall("perfbench.generate", [&]() {
      pts = SsVarden<3>(n, args.seed);
    }));
    const ClusterSample warm = ClusterOnce<3>(pts, eps, cap);  // Untimed.
    e2e.setup_s.push_back(SecondsSince(start));
    if (rep == 0) want = warm.checksum;
    report.Check(warm.checksum == want);
  }
  layer.generate_s = Median(gen_s);

  const double half = args.seconds / 2;
  std::vector<ClusterSample> par;
  std::vector<ClusterSample> serial;
  if (!args.trace) {
    par = ClusterFor<3>(pts, eps, cap, workers, args.seconds);
    pdbscan::parallel::ScopedNumWorkers solo(1);
    serial.push_back(ClusterOnce<3>(pts, eps, cap));
  } else {
    par = ClusterFor<3>(pts, eps, cap, workers, half / 2);
    std::vector<ClusterSample> traced;
    layer.spans = Traced([&](uint64_t, uint64_t) {
      traced = ClusterFor<3>(pts, eps, cap, workers, half / 2);
    });
    serial = ClusterFor<3>(pts, eps, cap, 1, half);
    layer.overhead_ratio =
        MedianOf(traced, [](auto& s) { return s.total_s(); }) /
            MedianOf(par, [](auto& s) { return s.total_s(); }) -
        1;
    par.insert(par.end(), traced.begin(), traced.end());
  }
  // Correctness: every clustering, at P workers and at 1, has the label
  // checksum of the first.
  for (const auto* phase : {&par, &serial}) {
    for (const ClusterSample& s : *phase) report.Check(s.checksum == want);
  }

  double total_s = 0;
  for (const ClusterSample& s : par) total_s += s.total_s();
  e2e.par = &par;
  e2e.qps = Ratio(static_cast<double>(par.size()), total_s);
  e2e.latency_ms = Ms(par, [](const ClusterSample& s) { return s.query_s; });
  e2e.update_ms = Ms(par, [](const ClusterSample& s) { return s.build_s; });
  report.end_to_end = EndToEnd(e2e);

  layer.par = &par;
  layer.serial = &serial;
  KernelsFromBuilds(par, layer);
  AddParallelProbes(args, workers, layer);
  report.per_layer = PerLayer(layer);
  return report;
}

// Serving-layer readings shared by serve_2d and stream_2d.
template <int D>
void ReadServing(const ServingScheduler<D>& sched, EnginePool<D>& pool,
                 LayerInputs& layer) {
  PipelineStats agg;
  sched.AggregateStats(agg);
  layer.serving = Read(agg);
  const auto& h = sched.histograms();
  layer.queue_wait_p50_ms =
      static_cast<double>(h.queue_wait_nanos.PercentileNanos(0.5)) / 1e6;
  layer.execute_p50_ms =
      static_cast<double>(h.execute_nanos.PercentileNanos(0.5)) / 1e6;
  layer.contexts_created = static_cast<double>(pool.contexts_created());
}

// --- serve_2d ----------------------------------------------------------------

// SS-varden 2D, eps 100. The index is built in set-up; P closed-loop
// clients query one ServingScheduler (default options) over an EnginePool.
Report ServeWorkload(const Args& args, int workers, LayerInputs& layer) {
  const size_t n = args.Scaled(200'000);
  const double eps = 100;
  const size_t cap = 128;
  Report report;
  EndToEndInputs e2e;
  std::vector<double> gen_s;
  Points<2> pts;
  std::shared_ptr<const CellIndex<2>> index;
  std::unique_ptr<EnginePool<2>> pool;
  std::unique_ptr<ServingScheduler<2>> sched;
  pdbscan::parallel::set_num_workers(workers);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sched.reset();
    pool.reset();
    const auto start = SteadyClock::now();
    gen_s.push_back(TimeCall("perfbench.generate", [&]() {
      pts = SsVarden<2>(n, args.seed);
    }));
    TimeCall("perfbench.build",
             [&]() { index = CellIndex<2>::Build(pts, eps, cap); });
    pool = std::make_unique<EnginePool<2>>(index);
    sched = std::make_unique<ServingScheduler<2>>(*pool);
    e2e.setup_s.push_back(SecondsSince(start));
  }
  layer.generate_s = Median(gen_s);

  // Responses are digested on the client, off the clock, and compared
  // after the loop with a solo QueryContext::Run at the same min_pts.
  auto verify = [](const ServeResult& res, ClientLog& log) {
    log.served.emplace_back(res.min_pts, Digest(res.clustering));
    return true;
  };

  const double loop_s = kLoopShare * args.seconds;
  const double phase_s = args.seconds - loop_s;
  LoopResult loop;
  std::vector<ClusterSample> par;
  std::vector<ClusterSample> serial;
  if (!args.trace) {
    loop = RunClients<2>(*sched, workers, args.seed, 0, loop_s, 0, 0, verify);
  } else {
    loop = RunClients<2>(*sched, workers, args.seed, 0, loop_s / 2, 0, 0,
                         verify);
    LoopResult traced;
    layer.spans = Traced([&](uint64_t trace_id, uint64_t root_id) {
      traced = RunClients<2>(*sched, workers, args.seed, 1, loop_s / 2,
                             trace_id, root_id, verify);
    });
    layer.overhead_ratio =
        Median(traced.latency_ms) / Median(loop.latency_ms) - 1;
    loop.Merge(traced);
  }
  ClusterPhase<2>(args, pts, eps, cap, workers, phase_s, par, serial);
  // Correctness: every kOk response, and every clustering of the phase
  // above, is bit-identical (hence SameClustering) to a solo
  // QueryContext::Run at 1 worker at its min_pts.
  std::map<uint64_t, uint64_t> want;  // min_pts -> digest.
  want[kClusterMinPts] = 0;
  for (const auto& [min_pts, digest] : loop.served) want[min_pts] = 0;
  {
    // With 1 worker every library call runs inline on its caller, so P
    // threads compute independent solo references side by side.
    pdbscan::parallel::ScopedNumWorkers solo(1);
    std::vector<std::pair<const uint64_t, uint64_t>*> slots;
    for (auto& entry : want) slots.push_back(&entry);
    std::vector<std::thread> threads;
    for (int t = 0; t < workers; ++t) {
      threads.emplace_back([&, t]() {
        QueryContext<2> ctx;
        for (size_t i = t; i < slots.size(); i += workers) {
          slots[i]->second = Digest(ctx.Run(*index, slots[i]->first));
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  report.attempted += loop.submitted;
  report.failed += loop.failed;
  for (const auto& [min_pts, digest] : loop.served) {
    if (want.at(min_pts) != digest) ++report.failed;
  }
  for (const auto* phase : {&par, &serial}) {
    for (const ClusterSample& s : *phase) {
      report.Check(s.digest == want.at(kClusterMinPts));
    }
  }

  e2e.par = &par;
  e2e.qps = loop.Qps();
  e2e.latency_ms = loop.latency_ms;
  e2e.update_ms = Ms(par, [](const ClusterSample& s) { return s.build_s; });
  report.end_to_end = EndToEnd(e2e);

  layer.par = &par;
  layer.serial = &serial;
  KernelsFromBuilds(par, layer);
  ReadServing(*sched, *pool, layer);
  AddParallelProbes(args, workers, layer);
  report.per_layer = PerLayer(layer);
  sched->Shutdown();
  return report;
}

// --- stream_2d ---------------------------------------------------------------

// The serve_2d points loaded into a StreamingClusterer. One closed-loop
// writer replaces the oldest points batch by batch while max(1, P-1)
// readers query through a ServingScheduler over the stream's pool.

// Fresh points, in batches, that the writer cycles through: 12 turns of
// the five density classes.
constexpr size_t kFreshBatches = 12 * kDensityClasses;

struct StreamWriter {
  pdbscan::streaming::StreamingClusterer<2>* stream = nullptr;
  const Points<2>* fresh = nullptr;  // Cycled through, `batch` at a time.
  size_t batch = 0;
  uint64_t next_erase = 0;  // Oldest live id.
  size_t batches_done = 0;
  std::vector<double> update_ms;
  std::map<uint64_t, size_t> live_at;  // Generation -> live points.
  size_t failed = 0;

  void Run(double seconds) {
    const auto start = SteadyClock::now();
    const size_t chunks = fresh->size() / batch;
    std::vector<uint64_t> erase(batch);
    while (SecondsSince(start) < seconds && TraceRoomLeft()) {
      for (size_t i = 0; i < batch; ++i) erase[i] = next_erase + i;
      const std::span<const pdbscan::geometry::Point<2>> ins(
          fresh->data() + (batches_done % chunks) * batch, batch);
      try {
        update_ms.push_back(1e3 * TimeCall("perfbench.apply_updates", [&]() {
                              stream->ApplyUpdates(ins, erase);
                            }));
        live_at[stream->generation()] = stream->num_points();
      } catch (const std::exception&) {
        ++failed;
      }
      next_erase += batch;
      ++batches_done;
    }
  }
};

Report StreamWorkload(const Args& args, int workers, LayerInputs& layer) {
  const size_t n = args.Scaled(200'000);
  const size_t batch = std::max<size_t>(1, n / 100);
  const double eps = 100;
  const size_t cap = 128;
  const int readers = std::max(1, workers - 1);
  Report report;
  EndToEndInputs e2e;
  std::vector<double> gen_s;
  Points<2> pts;
  Points<2> fresh;
  std::unique_ptr<pdbscan::streaming::StreamingClusterer<2>> stream;
  std::unique_ptr<ServingScheduler<2>> sched;
  uint64_t first_id = 0;
  pdbscan::parallel::set_num_workers(workers);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sched.reset();
    stream.reset();
    const auto start = SteadyClock::now();
    // Both streams take the density classes in turn, one batch each, so
    // every batch erases and inserts points of the same class and the live
    // set keeps its density mix however many batches the writer applies.
    gen_s.push_back(TimeCall("perfbench.generate", [&]() {
      pts = SsVarden<2>(n, args.seed, batch);
      fresh = SsVarden<2>(kFreshBatches * batch, args.seed ^ 0x5eed5eed5eedull,
                          batch);
    }));
    stream = std::make_unique<pdbscan::streaming::StreamingClusterer<2>>(
        eps, cap);
    TimeCall("perfbench.apply_updates",
             [&]() { first_id = stream->Insert(pts); });
    sched = std::make_unique<ServingScheduler<2>>(stream->pool());
    e2e.setup_s.push_back(SecondsSince(start));
  }
  layer.generate_s = Median(gen_s);

  StreamWriter writer;
  writer.stream = stream.get();
  writer.fresh = &fresh;
  writer.batch = batch;
  writer.next_erase = first_id;
  writer.live_at[stream->generation()] = stream->num_points();
  const StageStats before = Read(stream->update_stats());
  auto verify = [](const ServeResult& res, ClientLog& log) {
    log.served.emplace_back(res.generation, res.clustering.size());
    return true;  // Sizes are checked against the writer's log afterwards.
  };
  // Writer and readers run side by side for `seconds`.
  auto run_loop = [&](double seconds, uint64_t round, uint64_t trace_id,
                      uint64_t root_id) {
    std::thread writer_thread([&]() {
      telemetry::ScopedTraceContext ctx(trace_id, root_id);
      writer.Run(seconds);
    });
    LoopResult r = RunClients<2>(*sched, readers, args.seed, round, seconds,
                                 trace_id, root_id, verify);
    writer_thread.join();
    return r;
  };

  const double loop_s = kLoopShare * args.seconds;
  const double phase_s = args.seconds - loop_s;
  LoopResult loop;
  std::vector<ClusterSample> par;
  std::vector<ClusterSample> serial;
  Clustering fresh_build;
  auto final_phase = [&]() {
    const Points<2> live = stream->LivePoints();
    ClusterOnce<2>(live, eps, cap, &fresh_build);
    ClusterPhase<2>(args, live, eps, cap, workers, phase_s, par, serial);
  };
  if (!args.trace) {
    loop = run_loop(loop_s, 0, 0, 0);
    final_phase();
  } else {
    loop = run_loop(loop_s / 2, 0, 0, 0);
    LoopResult traced;
    layer.spans = Traced([&](uint64_t trace_id, uint64_t root_id) {
      traced = run_loop(loop_s / 2, 1, trace_id, root_id);
    });
    final_phase();
    layer.overhead_ratio =
        Median(traced.latency_ms) / Median(loop.latency_ms) - 1;
    loop.Merge(traced);
  }

  // Correctness: every response has the live count of its generation, the
  // final snapshot clusters like a fresh CellIndex::Build over the live
  // points, and every update batch applied.
  report.attempted += loop.submitted;
  report.failed += loop.failed;
  for (const auto& [generation, size] : loop.served) {
    auto it = writer.live_at.find(generation);
    if (it == writer.live_at.end() || it->second != size) ++report.failed;
  }
  report.attempted += writer.batches_done;
  report.failed += writer.failed;
  report.Check(pdbscan::dbscan::SameClustering(stream->Run(kClusterMinPts),
                                               fresh_build));
  const uint64_t want = Digest(fresh_build);
  for (const auto* phase : {&par, &serial}) {
    for (const ClusterSample& s : *phase) report.Check(s.digest == want);
  }

  e2e.par = &par;
  e2e.qps = loop.Qps();
  e2e.latency_ms = loop.latency_ms;
  e2e.update_ms = writer.update_ms;
  report.end_to_end = EndToEnd(e2e);

  StageStats after = Read(stream->update_stats());
  const double updates =
      std::max(1.0, static_cast<double>(writer.update_ms.size()));
  layer.par = &par;
  layer.serial = &serial;
  layer.kernel_batches =
      (after.kernel_batches - before.kernel_batches) / updates;
  layer.kernel_pruned_box =
      (after.kernel_pruned_box - before.kernel_pruned_box) / updates;
  layer.kernel_pruned_norm =
      (after.kernel_pruned_norm - before.kernel_pruned_norm) / updates;
  layer.kernel_level = after.kernel_level;
  after.cells_rebuilt -= before.cells_rebuilt;
  after.cells_retained -= before.cells_retained;
  after.snapshots_published -= before.snapshots_published;
  layer.streaming = after;
  ReadServing(*sched, stream->pool(), layer);
  AddParallelProbes(args, workers, layer);
  report.per_layer = PerLayer(layer);
  sched->Shutdown();
  return report;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val != "0";
    } else if (key == "--scale") {
      a.scale = std::stod(val);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0) || !(a.scale > 0)) {
    throw std::invalid_argument("--seconds and --scale must be positive");
  }
  return a;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.trace) {
    setenv("PDBSCAN_TRACE_RING", std::to_string(kTraceRingSlots).c_str(), 1);
  }
  const int nproc = AvailableCpus();
  const int workers = std::min(4, nproc);
  pdbscan::parallel::set_num_workers(workers);

  LayerInputs layer;
  layer.calibration_ms = MedianCalibrationMs(workers);
  layer.calibration_serial_ms = MedianCalibrationMs(1);

  Report report;
  if (args.workload == "batch_3d") {
    report = BatchWorkload(args, workers, layer);
  } else if (args.workload == "serve_2d") {
    report = ServeWorkload(args, workers, layer);
  } else if (args.workload == "stream_2d") {
    report = StreamWorkload(args, workers, layer);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }

  char host[512];
  std::snprintf(host, sizeof(host),
                "{\"host\": {\"nproc\": %d, \"workers\": %d, "
                "\"dispatch_level\": %s, \"compiler\": %s, "
                "\"calibration_ms\": %.3f, \"calibration_serial_ms\": %.3f}}",
                nproc, workers,
                JsonString(pdbscan::kernels::LevelName(
                               pdbscan::kernels::ActiveLevel()))
                    .c_str(),
                JsonString(__VERSION__).c_str(),
                layer.calibration_ms, layer.calibration_serial_ms);
  std::printf("%s\n", host);
  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              MetricsJson(args.trace ? report.per_layer : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
