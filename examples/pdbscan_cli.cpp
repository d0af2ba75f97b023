// Command-line DBSCAN over CSV files, with index persistence.
//
// Usage:
//   pdbscan_cli <input.csv> <epsilon> <minpts> [options]
//     --method NAME     our-exact (default), our-exact-qt, our-approx,
//                       our-approx-qt, grid-bcp, grid-usec, grid-delaunay,
//                       box-bcp, box-usec, box-delaunay
//     --metric NAME     l2 (default), l1, linf — non-L2 metrics require the
//                       grid + bcp + scan configuration (our-exact)
//     --mode NAME       execution surface: engine (default, one-shot),
//                       pool (frozen CellIndex + EnginePool), sharded,
//                       streaming (batched inserts), serving
//                       (ServingScheduler in front of a pool)
//     --repeat N        timed query repetitions after the build (default 1);
//                       p50/p99 in the #perf record come from these
//     --shards N        shard count for --mode sharded (default 4)
//     --quality FILE    grade the labels against a ground-truth label file
//                       (one integer per line): ARI / NMI / noise ratio to
//                       stderr plus a machine-readable #quality line
//     --rho R           approximation parameter (default 0.01)
//     --bucketing       enable the bucketing heuristic
//     --threads T       worker count (default: hardware)
//     --out FILE        write "cluster_id" per input row (default: stdout
//                       summary only)
//     --save-index FILE build a frozen CellIndex from the input and persist
//                       it as a versioned snapshot before querying
//     --counts-cap N    min_pts cap baked into a saved index (default:
//                       max(minpts, 64); larger min_pts queries recount)
//     --load-index FILE serve from a persisted snapshot instead of
//                       building: <input.csv> may be "-" and <epsilon> is
//                       taken from the snapshot (pass 0). The snapshot's
//                       dimension is auto-detected.
//     --load-mode MODE  owned (default) copies the snapshot into memory;
//                       mapped serves it zero-copy from the file mapping
//     --trace           enable tracing spans for the run and print the
//                       assembled span tree (total/self times) to stderr;
//                       PDBSCAN_TRACE=1 in the environment does the same
//
// The input CSV holds one point per line, comma-separated coordinates.
//
// Machine-readable output (what tools/bench_runner.py scrapes): stdout
// carries at most one `#perf {...}` line (build seconds, per-query p50/p99
// and qps over --repeat runs, the full config echo), one `#telemetry {...}`
// line (pdbscan-telemetry-v1 JSON with the per-query latency histogram over
// --repeat runs) and, with --quality, one `#quality {...}` line (ARI, NMI,
// noise ratios, cluster counts, label checksum). Everything human-oriented
// goes to stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "data/io.h"
#include "dbscan/stats.h"
#include "kernels/kernel_api.h"
#include "pdbscan/pdbscan.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/timer.h"

namespace {

pdbscan::Options MethodByName(const std::string& name) {
  using namespace pdbscan;
  if (name == "our-exact") return OurExact();
  if (name == "our-exact-qt") return OurExactQt();
  if (name == "our-approx") return OurApprox();
  if (name == "our-approx-qt") return OurApproxQt();
  if (name == "grid-bcp") return Our2dGridBcp();
  if (name == "grid-usec") return Our2dGridUsec();
  if (name == "grid-delaunay") return Our2dGridDelaunay();
  if (name == "box-bcp") return Our2dBoxBcp();
  if (name == "box-usec") return Our2dBoxUsec();
  if (name == "box-delaunay") return Our2dBoxDelaunay();
  std::fprintf(stderr, "unknown method: %s\n", name.c_str());
  std::exit(2);
}

void PrintSummary(const pdbscan::Clustering& result, const std::string& label,
                  double secs) {
  size_t core = 0, noise = 0;
  for (size_t i = 0; i < result.size(); ++i) {
    core += result.is_core[i];
    noise += result.cluster[i] == pdbscan::Clustering::kNoise;
  }
  std::fprintf(stderr,
               "%s: %zu clusters, %zu core / %zu noise of %zu points, %.3fs "
               "(%d threads)\n",
               label.c_str(), result.num_clusters, core, noise, result.size(),
               secs, pdbscan::parallel::num_workers());
  const auto& stats = pdbscan::dbscan::GlobalStats();
  std::fprintf(
      stderr,
      "kernels: %s dispatch, %zu simd batches, %zu box-pruned / %zu "
      "norm-pruned points\n",
      pdbscan::kernels::LevelName(static_cast<pdbscan::kernels::Level>(
          stats.kernel_dispatch_level.load(std::memory_order_relaxed))),
      stats.kernel_batches.load(std::memory_order_relaxed),
      stats.kernel_points_pruned_box.load(std::memory_order_relaxed),
      stats.kernel_points_pruned_norm.load(std::memory_order_relaxed));
}

int WriteLabels(const pdbscan::Clustering& result,
                const std::string& out_path) {
  if (out_path.empty()) return 0;
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "cluster_id\n";
  for (size_t i = 0; i < result.size(); ++i) out << result.cluster[i] << '\n';
  std::fprintf(stderr, "labels written to %s\n", out_path.c_str());
  return 0;
}

// Grades `result` against a ground-truth label file and prints both the
// human summary (stderr) and the machine-readable #quality line (stdout).
// Returns nonzero on a malformed/mismatched truth file.
int EmitQuality(const pdbscan::Clustering& result,
                const std::string& quality_path) {
  if (quality_path.empty()) return 0;
  std::vector<int64_t> truth;
  try {
    truth = pdbscan::ReadLabelsFile(quality_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (truth.size() != result.size()) {
    std::fprintf(stderr,
                 "error: %s has %zu labels but the run produced %zu\n",
                 quality_path.c_str(), truth.size(), result.size());
    return 1;
  }
  const pdbscan::QualityReport q =
      pdbscan::EvaluateQuality(result, std::span<const int64_t>(truth));
  std::fprintf(stderr,
               "quality vs %s: ARI=%.6f NMI=%.6f noise=%.4f (truth %.4f), "
               "%zu clusters (truth %zu)\n",
               quality_path.c_str(), q.ari, q.nmi, q.predicted_noise_ratio,
               q.truth_noise_ratio, q.predicted_clusters, q.truth_clusters);
  std::string histogram = "[";
  for (size_t k = 0; k < q.cluster_size_histogram.size(); ++k) {
    if (k > 0) histogram += ",";
    histogram += std::to_string(q.cluster_size_histogram[k]);
  }
  histogram += "]";
  std::printf(
      "#quality {\"schema\":\"pdbscan-quality-v1\",\"ari\":%.17g,"
      "\"nmi\":%.17g,\"noise_ratio\":%.17g,\"truth_noise_ratio\":%.17g,"
      "\"clusters\":%zu,\"truth_clusters\":%zu,\"n\":%zu,"
      "\"cluster_size_histogram\":%s,\"label_checksum\":\"0x%016llx\"}\n",
      q.ari, q.nmi, q.predicted_noise_ratio, q.truth_noise_ratio,
      q.predicted_clusters, q.truth_clusters, q.n, histogram.c_str(),
      static_cast<unsigned long long>(q.label_checksum));
  return 0;
}

// Prints the assembled span tree of the run's trace to stderr.
void PrintTrace(bool enabled, uint64_t trace_id) {
  if (!enabled) return;
  const std::vector<pdbscan::telemetry::SpanRecord> spans =
      pdbscan::telemetry::GlobalTraceRing().CollectTrace(trace_id);
  std::fprintf(stderr, "trace (%zu spans):\n", spans.size());
  std::fputs(pdbscan::telemetry::FormatSpanTree(spans).c_str(), stderr);
}

// Build + timed-query measurements of one mode run.
struct PerfRecord {
  double build_seconds = 0;
  std::vector<double> query_seconds;  // One entry per --repeat query.
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

void EmitPerf(const PerfRecord& perf, const std::string& mode,
              const pdbscan::Options& options, double epsilon, size_t minpts,
              size_t n, int dim) {
  double total = 0;
  for (const double s : perf.query_seconds) total += s;
  const double qps =
      total > 0 ? static_cast<double>(perf.query_seconds.size()) / total : 0;
  std::printf(
      "#perf {\"schema\":\"pdbscan-perf-v1\",\"mode\":\"%s\","
      "\"method\":\"%s\",\"metric\":\"%s\",\"eps\":%.17g,\"min_pts\":%zu,"
      "\"n\":%zu,\"dim\":%d,\"threads\":%d,\"repeat\":%zu,"
      "\"build_seconds\":%.17g,\"qps\":%.17g,\"p50_ms\":%.17g,"
      "\"p99_ms\":%.17g}\n",
      mode.c_str(), options.Name().c_str(),
      pdbscan::MetricName(options.metric), epsilon, minpts, n, dim,
      pdbscan::parallel::num_workers(), perf.query_seconds.size(),
      perf.build_seconds, qps, 1e3 * Percentile(perf.query_seconds, 0.5),
      1e3 * Percentile(perf.query_seconds, 0.99));
}

// The telemetry histogram snapshot of the run: the per-query latency
// distribution over --repeat queries, in the same pdbscan-telemetry-v1
// JSON a Stats scrape returns (bench_runner.py attaches it per arm).
void EmitTelemetry(const PerfRecord& perf) {
  pdbscan::telemetry::LatencyHistogram hist;
  for (const double s : perf.query_seconds) {
    hist.Record(static_cast<uint64_t>(s * 1e9));
  }
  std::vector<pdbscan::telemetry::MetricValue> values;
  pdbscan::telemetry::AppendHistogram(values, "query_latency",
                                      hist.Snapshot());
  pdbscan::telemetry::AppendCounter(
      values, "trace_spans_recorded",
      static_cast<double>(pdbscan::telemetry::GlobalTraceRing().appended()));
  pdbscan::telemetry::AppendCounter(
      values, "trace_spans_dropped",
      static_cast<double>(pdbscan::telemetry::GlobalTraceRing().dropped()));
  std::printf("#telemetry %s\n",
              pdbscan::telemetry::RenderJson(std::move(values)).c_str());
}

// Runs the requested execution surface: one timed build, then `repeat`
// timed queries (all identical by the bit-identity contract — the repeats
// measure latency, not different answers). Returns the last clustering.
template <int D>
pdbscan::Clustering RunMode(const std::vector<pdbscan::Point<D>>& points,
                            double epsilon, size_t minpts,
                            const pdbscan::Options& options,
                            const std::string& mode, size_t repeat,
                            size_t shards, size_t counts_cap,
                            PerfRecord* perf) {
  const size_t cap =
      counts_cap != 0 ? counts_cap : std::max<size_t>(minpts, 64);
  pdbscan::Clustering result;
  pdbscan::util::Timer timer;
  auto time_queries = [&](auto&& run_once) {
    perf->query_seconds.reserve(repeat);
    for (size_t r = 0; r < repeat; ++r) {
      timer.Reset();
      result = run_once();
      perf->query_seconds.push_back(timer.Seconds());
    }
  };
  if (mode == "engine") {
    pdbscan::DbscanEngine<D> engine(options);
    engine.SetPoints(points);
    result = engine.Run(epsilon, minpts);  // Build: cells + counts + query.
    perf->build_seconds = timer.Seconds();
    time_queries([&] { return engine.Run(epsilon, minpts); });
  } else if (mode == "pool") {
    auto index = pdbscan::CellIndex<D>::Build(points, epsilon, cap, options);
    pdbscan::EnginePool<D> pool(index);
    perf->build_seconds = timer.Seconds();
    time_queries([&] { return pool.Run(minpts); });
  } else if (mode == "sharded") {
    pdbscan::ShardedClusterer<D> sharded(points, epsilon, cap, shards,
                                         options);
    perf->build_seconds = timer.Seconds();
    time_queries([&] { return sharded.Run(minpts); });
  } else if (mode == "streaming") {
    // Feed the dataset as 8 insert batches — the representative streaming
    // pattern (each batch recounts only its dirty footprint).
    pdbscan::StreamingClusterer<D> stream(epsilon, cap, options);
    const size_t batches = 8;
    for (size_t b = 0; b < batches; ++b) {
      const size_t begin = points.size() * b / batches;
      const size_t end = points.size() * (b + 1) / batches;
      stream.Insert(std::span<const pdbscan::Point<D>>(points.data() + begin,
                                                       end - begin));
    }
    perf->build_seconds = timer.Seconds();
    time_queries([&] { return stream.Run(minpts); });
  } else if (mode == "serving") {
    auto index = pdbscan::CellIndex<D>::Build(points, epsilon, cap, options);
    pdbscan::EnginePool<D> pool(index);
    pdbscan::ServingScheduler<D> server(pool);
    perf->build_seconds = timer.Seconds();
    time_queries([&] {
      pdbscan::ServeResult r = server.Submit(minpts);
      if (!r.ok()) throw std::runtime_error("serving request failed");
      return std::move(r.clustering);
    });
  } else {
    throw std::invalid_argument("unknown --mode: " + mode);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <input.csv> <epsilon> <minpts> "
                 "[--method NAME] [--metric l2|l1|linf] "
                 "[--mode engine|pool|sharded|streaming|serving] "
                 "[--repeat N] [--shards N] [--quality FILE] "
                 "[--rho R] [--bucketing] [--threads T] "
                 "[--out FILE] [--save-index FILE] [--counts-cap N] "
                 "[--load-index FILE] [--load-mode owned|mapped] "
                 "[--trace]\n",
                 argv[0]);
    return 2;
  }
  const std::string input = argv[1];
  const double epsilon = std::atof(argv[2]);
  const size_t minpts = static_cast<size_t>(std::atoll(argv[3]));
  pdbscan::Options options;
  std::string out_path, save_index, load_index, quality_path;
  std::string mode = "engine";
  pdbscan::LoadMode load_mode = pdbscan::LoadMode::kOwned;
  size_t counts_cap = 0;
  size_t repeat = 1;
  size_t shards = 4;
  bool trace = false;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--method") {
      const double rho = options.rho;
      const pdbscan::Metric metric = options.metric;
      options = MethodByName(next());
      options.rho = rho;
      options.metric = metric;
    } else if (arg == "--metric") {
      const std::string name = next();
      if (!pdbscan::ParseMetric(name, &options.metric)) {
        std::fprintf(stderr, "unknown --metric: %s\n", name.c_str());
        return 2;
      }
    } else if (arg == "--mode") {
      mode = next();
    } else if (arg == "--repeat") {
      repeat = std::max<size_t>(1, static_cast<size_t>(std::atoll(next())));
    } else if (arg == "--shards") {
      shards = std::max<size_t>(1, static_cast<size_t>(std::atoll(next())));
    } else if (arg == "--quality") {
      quality_path = next();
    } else if (arg == "--rho") {
      options.rho = std::atof(next());
    } else if (arg == "--bucketing") {
      options.bucketing = true;
    } else if (arg == "--threads") {
      pdbscan::parallel::set_num_workers(std::atoi(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--save-index") {
      save_index = next();
    } else if (arg == "--counts-cap") {
      counts_cap = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--load-index") {
      load_index = next();
    } else if (arg == "--load-mode") {
      const std::string mode = next();
      if (mode == "owned") {
        load_mode = pdbscan::LoadMode::kOwned;
      } else if (mode == "mapped") {
        load_mode = pdbscan::LoadMode::kMapped;
      } else {
        std::fprintf(stderr, "unknown --load-mode: %s\n", mode.c_str());
        return 2;
      }
    } else if (arg == "--trace") {
      trace = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  pdbscan::telemetry::InitTraceFromEnv();
  if (trace) pdbscan::telemetry::SetTraceEnabled(true);
  trace = pdbscan::telemetry::TraceEnabled();
  const uint64_t trace_id = trace ? pdbscan::telemetry::NewTraceId() : 0;
  // Every span opened on this thread (and everything the serving scheduler
  // propagates from it) carries the run's trace id.
  pdbscan::telemetry::ScopedTraceContext trace_ctx(trace_id);

  // --- Serve from a persisted snapshot. ----------------------------------
  if (!load_index.empty()) {
    try {
      const pdbscan::SnapshotInfo info = pdbscan::PeekSnapshot(load_index);
      std::fprintf(stderr,
                   "snapshot %s: d=%d, %llu points, %llu cells, eps=%g, "
                   "cap=%zu, %.1f MB%s\n",
                   load_index.c_str(), info.dim,
                   static_cast<unsigned long long>(info.num_points),
                   static_cast<unsigned long long>(info.num_cells),
                   info.epsilon, info.counts_cap,
                   static_cast<double>(info.file_bytes) / (1024.0 * 1024.0),
                   info.has_stream_state ? ", streaming checkpoint" : "");
      return pdbscan::DispatchDim(info.dim, [&]<int D>() -> int {
        pdbscan::util::Timer load_timer;
        auto index = pdbscan::LoadIndex<D>(load_index, load_mode);
        std::fprintf(stderr, "loaded in %.3fs (%s)\n", load_timer.Seconds(),
                     load_mode == pdbscan::LoadMode::kMapped ? "mapped"
                                                             : "owned");
        pdbscan::util::Timer run_timer;
        pdbscan::QueryContext<D> ctx;
        const pdbscan::Clustering result = ctx.Run(*index, minpts);
        PrintSummary(result, "loaded-index", run_timer.Seconds());
        const int quality_rc = EmitQuality(result, quality_path);
        if (quality_rc != 0) return quality_rc;
        PrintTrace(trace, trace_id);
        return WriteLabels(result, out_path);
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  // --- Build from CSV (optionally persisting the index). ------------------
  pdbscan::util::Timer load_timer;
  pdbscan::data::FlatDataset dataset;
  try {
    dataset = pdbscan::data::ReadCsv(input);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "loaded %zu points (d=%d) in %.3fs\n", dataset.size(),
               dataset.dim, load_timer.Seconds());

  pdbscan::util::Timer run_timer;
  pdbscan::Clustering result;
  PerfRecord perf;
  try {
    if (!save_index.empty()) {
      // Freeze an index (so there is something durable to save), query it,
      // and persist it.
      const size_t cap =
          counts_cap != 0 ? counts_cap : std::max<size_t>(minpts, 64);
      result = pdbscan::DispatchDim(dataset.dim, [&]<int D>() {
        const auto points = pdbscan::data::FromFlat<D>(dataset);
        auto index = pdbscan::CellIndex<D>::Build(points, epsilon, cap,
                                                  options);
        pdbscan::SaveIndex<D>(save_index, *index);
        std::fprintf(stderr, "index saved to %s (%.1f MB)\n",
                     save_index.c_str(),
                     static_cast<double>(
                         pdbscan::persist::FileBytes(save_index)) /
                         (1024.0 * 1024.0));
        pdbscan::QueryContext<D> ctx;
        return ctx.Run(*index, minpts);
      });
    } else {
      {
        pdbscan::telemetry::TraceSpan root_span("cli_run");
        result = pdbscan::DispatchDim(dataset.dim, [&]<int D>() {
          const auto points = pdbscan::data::FromFlat<D>(dataset);
          return RunMode<D>(points, epsilon, minpts, options, mode, repeat,
                            shards, counts_cap, &perf);
        });
      }
      EmitPerf(perf, mode, options, epsilon, minpts, dataset.size(),
               dataset.dim);
      EmitTelemetry(perf);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  PrintSummary(result, options.Name() + "/" + mode, run_timer.Seconds());
  PrintTrace(trace, trace_id);
  const int quality_rc = EmitQuality(result, quality_path);
  if (quality_rc != 0) return quality_rc;
  return WriteLabels(result, out_path);
}
