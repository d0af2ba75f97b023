// Command-line DBSCAN over CSV files, with index persistence.
//
// Usage:
//   pdbscan_cli <input.csv> <epsilon> <minpts> [options]
//     --method NAME     our-exact (default), our-exact-qt, our-approx,
//                       our-approx-qt, grid-bcp, grid-usec, grid-delaunay,
//                       box-bcp, box-usec, box-delaunay
//     --metric NAME     l2 (default), l1, linf — non-L2 metrics require the
//                       grid + bcp + scan configuration (our-exact)
//     --quality FILE    grade the labels against a ground-truth label file
//                       (one integer per line): ARI / NMI / noise ratio to
//                       stderr
//     --rho R           approximation parameter (default 0.01)
//     --bucketing       enable the bucketing heuristic
//     --threads T       worker count (default: hardware)
//     --out FILE        write "cluster_id" per input row (default: the
//                       stderr summary only)
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
// Without --save-index/--load-index the CSV is clustered once through a
// DbscanEngine. Summaries, the quality report and the trace go to stderr.
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

// Grades `result` against a ground-truth label file and prints the report
// to stderr. Returns nonzero on a malformed/mismatched truth file.
int PrintQuality(const pdbscan::Clustering& result,
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <input.csv> <epsilon> <minpts> "
                 "[--method NAME] [--metric l2|l1|linf] [--quality FILE] "
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
  pdbscan::LoadMode load_mode = pdbscan::LoadMode::kOwned;
  size_t counts_cap = 0;
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
        const int quality_rc = PrintQuality(result, quality_path);
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
      pdbscan::telemetry::TraceSpan root_span("cli_run");
      result = pdbscan::DispatchDim(dataset.dim, [&]<int D>() {
        pdbscan::DbscanEngine<D> engine(options);
        engine.SetPoints(pdbscan::data::FromFlat<D>(dataset));
        return engine.Run(epsilon, minpts);
      });
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  PrintSummary(result, options.Name(), run_timer.Seconds());
  PrintTrace(trace, trace_id);
  const int quality_rc = PrintQuality(result, quality_path);
  if (quality_rc != 0) return quality_rc;
  return WriteLabels(result, out_path);
}
