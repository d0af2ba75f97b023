// pdbscan_server: one node of the distributed serving deployment.
//
//   pdbscan_server --mode writer  --dir /shared/ds --dim 2 --eps 300 \
//                  --counts-cap 100 --port 7777
//   pdbscan_server --mode replica --dir /shared/ds --dim 2 --eps 300 \
//                  --counts-cap 100 --port 7778
//
// The writer owns the dataset: it applies Update requests, WAL-journals
// every batch to rotating segments in --dir and checkpoints snapshots
// there on a cadence. Replicas cold-start from the newest checkpoint
// (mmap) and tail the segments; both roles serve Query/Info through a
// ServingScheduler speaking the net/protocol.h framing.
//
// --port 0 binds an ephemeral port; --port-file writes the bound port
// (atomically, temp + rename) so test harnesses can discover it. The
// process exits 0 on a client Shutdown request or SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"
#include "pdbscan/pdbscan.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

struct Args {
  std::string mode;
  std::string dir;
  int dim = 2;
  double eps = 0;
  size_t counts_cap = 100;
  int port = 0;
  std::string port_file;
  uint64_t checkpoint_every = 64;
  uint64_t rotate_bytes = 1 << 20;
  size_t keep_checkpoints = 2;
  uint64_t poll_ms = 20;
  size_t queue_limit = 256;
  uint64_t timeout_ms = 5000;
  size_t cache_capacity = 64;
  size_t num_executors = 1;
  int workers = 0;
  bool trace = false;
  uint64_t slow_query_ms = 0;  // 0 = slow-query logging off.
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: pdbscan_server --mode writer|replica --dir DIR --eps E\n"
      "  [--dim D] [--counts-cap C] [--port N] [--port-file PATH]\n"
      "  [--checkpoint-every N] [--rotate-bytes N] [--keep-checkpoints N]\n"
      "  [--poll-ms N] [--queue-limit N] [--timeout-ms N]\n"
      "  [--cache-capacity N] [--num-executors N>=1] [--workers N]\n"
      "  [--trace] [--slow-query-ms N]\n");
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (flag == "--mode") out->mode = next();
    else if (flag == "--dir") out->dir = next();
    else if (flag == "--dim") out->dim = std::atoi(next());
    else if (flag == "--eps") out->eps = std::atof(next());
    else if (flag == "--counts-cap") out->counts_cap = std::strtoull(next(), nullptr, 10);
    else if (flag == "--port") out->port = std::atoi(next());
    else if (flag == "--port-file") out->port_file = next();
    else if (flag == "--checkpoint-every") out->checkpoint_every = std::strtoull(next(), nullptr, 10);
    else if (flag == "--rotate-bytes") out->rotate_bytes = std::strtoull(next(), nullptr, 10);
    else if (flag == "--keep-checkpoints") out->keep_checkpoints = std::strtoull(next(), nullptr, 10);
    else if (flag == "--poll-ms") out->poll_ms = std::strtoull(next(), nullptr, 10);
    else if (flag == "--queue-limit") out->queue_limit = std::strtoull(next(), nullptr, 10);
    else if (flag == "--timeout-ms") out->timeout_ms = std::strtoull(next(), nullptr, 10);
    else if (flag == "--cache-capacity") out->cache_capacity = std::strtoull(next(), nullptr, 10);
    else if (flag == "--num-executors") out->num_executors = std::strtoull(next(), nullptr, 10);
    else if (flag == "--workers") out->workers = std::atoi(next());
    else if (flag == "--trace") out->trace = true;
    else if (flag == "--slow-query-ms") out->slow_query_ms = std::strtoull(next(), nullptr, 10);
    else Usage();
  }
  // Network queries block on the scheduler's executors: a server without
  // one would hang every query.
  return !out->mode.empty() && !out->dir.empty() && out->eps > 0 &&
         out->num_executors > 0;
}

// Written atomically so a polling harness never reads a partial number.
void WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::perror("port-file");
    std::exit(1);
  }
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  std::filesystem::rename(tmp, path);
}

template <int D>
int RunNode(const Args& args) {
  using namespace pdbscan;

  // The registry outlives everything below; nodes and the server register
  // pull sources into it and NetServer answers Stats requests from it.
  telemetry::MetricsRegistry registry;

  parallel::ServingOptions serve_opts;
  serve_opts.queue_limit = args.queue_limit;
  serve_opts.default_timeout_nanos = parallel::MillisToNanos(args.timeout_ms);
  serve_opts.cache_capacity = args.cache_capacity;
  serve_opts.num_executors = args.num_executors;
  if (args.slow_query_ms != 0) {
    serve_opts.slow_query_nanos = parallel::MillisToNanos(args.slow_query_ms);
  }

  net::ServerOptions server_opts;
  server_opts.port = static_cast<uint16_t>(args.port);
  server_opts.registry = &registry;

  std::unique_ptr<net::WriterNode<D>> writer;
  std::unique_ptr<net::ReplicaNode<D>> replica;
  parallel::EnginePool<D>* pool = nullptr;
  typename net::NetServer<D>::UpdateHandler on_update;

  if (args.mode == "writer") {
    net::WriterOptions wopts;
    wopts.rotate_bytes = args.rotate_bytes;
    wopts.checkpoint_every = args.checkpoint_every;
    wopts.keep_checkpoints = args.keep_checkpoints;
    wopts.on_checkpoint = [](uint64_t seq, uint64_t taken) {
      std::fprintf(stderr,
                   "pdbscan_server: checkpoint shipped seq=%llu (total=%llu)\n",
                   static_cast<unsigned long long>(seq),
                   static_cast<unsigned long long>(taken));
    };
    writer = std::make_unique<net::WriterNode<D>>(args.dir, args.eps,
                                                  args.counts_cap, Options(),
                                                  wopts);
    pool = &writer->pool();
    registry.AddSource([&w = *writer](
                           std::vector<telemetry::MetricValue>& out) {
      telemetry::AppendCounter(out, "writer_checkpoints_taken",
                               static_cast<double>(w.checkpoints_taken()));
      telemetry::AppendGauge(out, "writer_seq",
                             static_cast<double>(w.seq()));
    });
    on_update = [&w = *writer](std::span<const Point<D>> inserts,
                               std::span<const uint64_t> erases) {
      net::UpdateResponse resp;
      resp.first_id = w.ApplyUpdates(inserts, erases);
      resp.generation = w.generation();
      return resp;
    };
  } else if (args.mode == "replica") {
    net::ReplicaOptions ropts;
    ropts.poll_millis = args.poll_ms;
    ropts.on_gap_restart = [](uint64_t seq, size_t restarts) {
      std::fprintf(stderr,
                   "pdbscan_server: gap restart — re-based to seq=%llu "
                   "(gap_restarts=%zu)\n",
                   static_cast<unsigned long long>(seq), restarts);
    };
    replica = std::make_unique<net::ReplicaNode<D>>(args.dir, args.eps,
                                                    args.counts_cap,
                                                    Options(), ropts);
    replica->StartTailing();
    pool = &replica->pool();
    registry.AddSource([&r = *replica](
                           std::vector<telemetry::MetricValue>& out) {
      telemetry::AppendCounter(out, "replica_gap_restarts",
                               static_cast<double>(r.gap_restarts()));
      telemetry::AppendGauge(out, "replica_applied_seq",
                             static_cast<double>(r.applied_seq()));
    });
  } else {
    Usage();
  }

  parallel::ServingScheduler<D> scheduler(*pool, serve_opts);
  net::NetServer<D> server(scheduler, *pool, args.eps, args.counts_cap,
                           server_opts, on_update);
  server.Start();
  if (!args.port_file.empty()) WritePortFile(args.port_file, server.port());
  std::fprintf(stderr, "pdbscan_server: %s on 127.0.0.1:%u dir=%s gen=%llu\n",
               args.mode.c_str(), static_cast<unsigned>(server.port()),
               args.dir.c_str(),
               static_cast<unsigned long long>(pool->generation()));

  while (g_signal == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (replica) replica->StopTailing();
  scheduler.Shutdown();
  server.Stop();
  std::fprintf(stderr, "pdbscan_server: clean shutdown (gen=%llu)\n",
               static_cast<unsigned long long>(pool->generation()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) Usage();
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  if (args.workers > 0) pdbscan::parallel::set_num_workers(args.workers);
  pdbscan::telemetry::InitTraceFromEnv();
  if (args.trace) pdbscan::telemetry::SetTraceEnabled(true);
  try {
    return pdbscan::DispatchDim(args.dim,
                                [&]<int D>() { return RunNode<D>(args); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdbscan_server: fatal: %s\n", e.what());
    return 1;
  }
}
