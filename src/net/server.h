// The TCP front-end: speaks net/protocol.h on a loopback listener and
// serves queries from a ServingScheduler — one acceptor thread, one thread
// per connection, blocking Submit per request. Blocking per-connection
// Submits are not a throughput bug: they are what feeds the scheduler
// concurrent requests to COALESCE across connections (one batched Sweep
// per claim window serves many sockets).
//
// The server owns no engine state. It borrows a scheduler (queries), an
// EnginePool (Info snapshots) and an optional update handler (writer
// nodes); replicas pass no handler and answer kNotWriter. Stop order on
// teardown: scheduler.Shutdown() first — pending Submits drain with
// kShutdown — then NetServer::Stop(), which unblocks reads and joins the
// connection threads.
//
// Error handling follows the protocol contract (see protocol.h): semantic
// errors answer and keep the connection; framing errors answer
// best-effort and close, because a desynchronized length-prefixed stream
// cannot be re-synchronized.
#ifndef PDBSCAN_NET_SERVER_H_
#define PDBSCAN_NET_SERVER_H_

#include <sys/socket.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "parallel/engine_pool.h"
#include "parallel/serving_scheduler.h"
#include "telemetry/metrics.h"
#include "telemetry/stats_export.h"
#include "telemetry/trace.h"

namespace pdbscan::net {

struct ServerOptions {
  uint16_t port = 0;  // 0 = ephemeral; port() reports the bound one.
  ProtocolLimits limits;
  // Extra metrics joined into kStatsRequest responses (e.g. the replication
  // counters pdbscan_server registers). Must outlive the server; nullptr =
  // serving scheduler, parallel runtime and server counters only.
  telemetry::MetricsRegistry* registry = nullptr;
};

// Aggregate counters, all monotonically increasing. Reads are racy-fresh
// (relaxed), like the engine stats they sit beside.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_served{0};
  std::atomic<uint64_t> semantic_errors{0};
  std::atomic<uint64_t> framing_errors{0};
};

template <int D>
class NetServer {
 public:
  // Applies one update batch (writer nodes only); returns the response to
  // send. Calls are serialized by the server.
  using UpdateHandler = std::function<UpdateResponse(
      std::span<const geometry::Point<D>>, std::span<const uint64_t>)>;

  NetServer(parallel::ServingScheduler<D>& scheduler,
            parallel::EnginePool<D>& pool, double epsilon, size_t counts_cap,
            ServerOptions options = ServerOptions(),
            UpdateHandler on_update = nullptr)
      : scheduler_(scheduler),
        pool_(pool),
        epsilon_(epsilon),
        counts_cap_(counts_cap),
        options_(options),
        on_update_(std::move(on_update)),
        listener_(options.port) {}

  ~NetServer() { Stop(); }
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  uint16_t port() const { return listener_.port(); }

  void Start() {
    if (acceptor_.joinable()) return;
    acceptor_ = std::thread([this]() { AcceptLoop(); });
  }

  // Idempotent. Unblocks the acceptor and every connection read, then
  // joins all threads. In-flight scheduler Submits finish first (shut the
  // scheduler down beforehand to drain them as kShutdown).
  void Stop() {
    listener_.Interrupt();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      stopping_ = true;
      for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    if (acceptor_.joinable()) acceptor_.join();
    std::unordered_map<uint64_t, std::thread> workers;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      workers.swap(conn_threads_);
      finished_.clear();
    }
    for (auto& [id, t] : workers) t.join();
  }

  // Blocks until a client sent kShutdownRequest (the clean remote
  // shutdown path used by the CI smoke job) or Stop() was called.
  void WaitForShutdownRequest() {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [this]() { return shutdown_requested_; });
  }

  bool shutdown_requested() const {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    return shutdown_requested_;
  }

  const ServerStats& stats() const { return stats_; }

 private:
  void AcceptLoop() {
    for (;;) {
      TcpConn conn = listener_.Accept();
      if (!conn) return;  // Interrupted — shutting down.
      stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      std::vector<std::thread> done;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        if (stopping_) return;
        ReapFinishedLocked(&done);
        const uint64_t id = next_conn_id_++;
        conn_fds_.emplace(id, conn.fd());
        conn_threads_.emplace(
            id, std::thread(
                    [this, id](TcpConn c) {
                      ServeConnection(c);
                      // Unregister the fd BEFORE c's destructor closes it,
                      // so Stop() can never shutdown() a recycled
                      // descriptor, then queue this thread for reaping.
                      std::lock_guard<std::mutex> l(conns_mu_);
                      conn_fds_.erase(id);
                      finished_.push_back(id);
                    },
                    std::move(conn)));
      }
      // Joined OUTSIDE conns_mu_: an exiting worker's last act takes that
      // lock, so joining under it would deadlock.
      for (std::thread& t : done) t.join();
    }
  }

  // Moves threads whose connections have finished out of conn_threads_ so
  // a long-running server does not accumulate joinable handles forever.
  // Caller joins them after releasing conns_mu_.
  void ReapFinishedLocked(std::vector<std::thread>* done) {
    for (const uint64_t id : finished_) {
      auto it = conn_threads_.find(id);
      if (it != conn_threads_.end()) {
        done->push_back(std::move(it->second));
        conn_threads_.erase(it);
      }
    }
    finished_.clear();
  }

  void ServeConnection(TcpConn& conn) {
    FrameDecoder decoder(options_.limits);
    std::vector<uint8_t> buf(64 * 1024);
    uint64_t last_request_id = 0;
    try {
      for (;;) {
        while (auto frame = decoder.Next()) {
          last_request_id = frame->request_id;
          if (!HandleFrame(conn, *frame)) return;  // Semantic close paths.
        }
        if (decoder.error() != ErrorCode::kNone) {
          // Framing violation: best-effort error frame, then close.
          stats_.framing_errors.fetch_add(1, std::memory_order_relaxed);
          conn.SendAll(EncodeErrorFrame(decoder.error_request_id(),
                                        decoder.error(),
                                        "framing error; closing"));
          return;
        }
        const size_t n = conn.RecvSome(buf);
        if (n == 0) {
          // Orderly EOF. Leftover bytes mean the peer hung up mid-frame —
          // answer the truncation (it half-closed, so it can still read).
          if (decoder.buffered_bytes() > 0) {
            stats_.framing_errors.fetch_add(1, std::memory_order_relaxed);
            conn.SendAll(EncodeErrorFrame(0, ErrorCode::kTruncated,
                                          "connection ended mid-frame"));
          }
          return;
        }
        decoder.Feed(std::span<const uint8_t>(buf.data(), n));
      }
    } catch (const NetError&) {
      // Peer went away (or Stop() shut the socket down) — nothing to do.
    } catch (const std::exception& e) {
      // A handler failure — persist IO in an update, an allocation, a
      // scheduler fault — must not escape the thread body and terminate
      // the whole server. Answer best-effort and drop this connection.
      SendInternalError(conn, last_request_id, e.what());
    } catch (...) {
      SendInternalError(conn, last_request_id, "internal error");
    }
  }

  // Best-effort kInternal error frame; swallows transport failures (the
  // peer may already be gone).
  void SendInternalError(TcpConn& conn, uint64_t request_id,
                         const char* what) noexcept {
    stats_.semantic_errors.fetch_add(1, std::memory_order_relaxed);
    try {
      conn.SendAll(EncodeErrorFrame(request_id, ErrorCode::kInternal, what));
    } catch (...) {
    }
  }

  // Serves one intact frame. Returns false to close the connection.
  bool HandleFrame(TcpConn& conn, const Frame& frame) {
    switch (frame.type) {
      case MessageType::kQueryRequest: {
        const uint64_t decode_start =
            telemetry::TraceEnabled() ? telemetry::NowNanos() : 0;
        QueryRequest req;
        if (!DecodeQueryRequest(frame.payload, &req)) {
          return SendSemanticError(conn, frame.request_id,
                                   ErrorCode::kBadPayload,
                                   "malformed query payload");
        }
        if (req.min_pts == 0) {
          return SendSemanticError(conn, frame.request_id,
                                   ErrorCode::kBadPayload,
                                   "min_pts must be >= 1");
        }
        // A nonzero trace_id asks for this request's span breakdown. The
        // root "serve_request" span is recorded manually (its id is
        // preallocated so queue/executor spans can parent under it before
        // it lands in the ring), then the trace is collected into wire
        // spans appended to the response.
        const bool traced = req.trace_id != 0 && telemetry::TraceEnabled();
        parallel::ServeResult result;
        std::vector<WireSpan> wire_spans;
        if (traced) {
          const uint64_t root_span = telemetry::NextSpanId();
          telemetry::RecordSpan("frame_decode", req.trace_id, root_span,
                                decode_start, telemetry::NowNanos());
          const uint64_t root_start = decode_start;
          {
            telemetry::ScopedTraceContext ctx(req.trace_id, root_span);
            result = scheduler_.Submit(static_cast<size_t>(req.min_pts));
          }
          telemetry::RecordSpan("serve_request", req.trace_id, 0, root_start,
                                telemetry::NowNanos(), root_span);
          wire_spans = CollectWireSpans(req.trace_id);
        } else {
          result = scheduler_.Submit(static_cast<size_t>(req.min_pts));
        }
        switch (result.status) {
          case parallel::ServeStatus::kOk:
            break;
          case parallel::ServeStatus::kRejected:
            return SendSemanticError(conn, frame.request_id,
                                     ErrorCode::kRejected, "queue full");
          case parallel::ServeStatus::kTimedOut:
            return SendSemanticError(conn, frame.request_id,
                                     ErrorCode::kTimedOut,
                                     "deadline expired in queue");
          case parallel::ServeStatus::kShutdown:
            SendSemanticError(conn, frame.request_id, ErrorCode::kShutdown,
                              "server draining");
            return false;
        }
        QueryResponse resp;
        resp.generation = result.generation;
        resp.num_points = result.clustering.cluster.size();
        resp.num_clusters = result.clustering.num_clusters;
        resp.cluster = std::move(result.clustering.cluster);
        resp.is_core = std::move(result.clustering.is_core);
        resp.spans = std::move(wire_spans);
        conn.SendAll(EncodeFrame(MessageType::kQueryResponse,
                                 frame.request_id,
                                 EncodeQueryResponse(resp)));
        stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      case MessageType::kStatsRequest: {
        StatsRequest req;
        if (!DecodeStatsRequest(frame.payload, &req)) {
          return SendSemanticError(conn, frame.request_id,
                                   ErrorCode::kBadPayload,
                                   "malformed stats payload");
        }
        std::vector<telemetry::MetricValue> values;
        dbscan::PipelineStats agg;
        scheduler_.AggregateStats(agg);
        telemetry::AppendPipelineStats(agg, values);
        telemetry::AppendCounter(
            values, "connections_accepted",
            static_cast<double>(stats_.connections_accepted.load(
                std::memory_order_relaxed)));
        telemetry::AppendCounter(
            values, "requests_served",
            static_cast<double>(
                stats_.requests_served.load(std::memory_order_relaxed)));
        telemetry::AppendCounter(
            values, "semantic_errors",
            static_cast<double>(
                stats_.semantic_errors.load(std::memory_order_relaxed)));
        telemetry::AppendCounter(
            values, "framing_errors",
            static_cast<double>(
                stats_.framing_errors.load(std::memory_order_relaxed)));
        const parallel::ServingHistograms& h = scheduler_.histograms();
        telemetry::AppendHistogram(values, "request_latency",
                                   h.request_nanos.Snapshot());
        telemetry::AppendHistogram(values, "queue_wait_latency",
                                   h.queue_wait_nanos.Snapshot());
        telemetry::AppendHistogram(values, "execute_latency",
                                   h.execute_nanos.Snapshot());
        telemetry::AppendSchedulerCounters(values);
        if (options_.registry != nullptr) {
          options_.registry->CollectInto(values);
        }
        StatsResponse resp;
        resp.format = req.format;
        resp.text = req.format == 1 ? telemetry::RenderPrometheus(values)
                                    : telemetry::RenderJson(values);
        conn.SendAll(EncodeFrame(MessageType::kStatsResponse,
                                 frame.request_id,
                                 EncodeStatsResponse(resp)));
        stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      case MessageType::kInfoRequest: {
        const auto [index, generation] = pool_.SnapshotAndGeneration();
        InfoResponse resp;
        resp.generation = generation;
        resp.num_points = index->cells().num_points();
        resp.epsilon = epsilon_;
        resp.counts_cap = counts_cap_;
        resp.dim = static_cast<uint32_t>(D);
        resp.is_writer = on_update_ ? 1 : 0;
        conn.SendAll(EncodeFrame(MessageType::kInfoResponse, frame.request_id,
                                 EncodeInfoResponse(resp)));
        stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      case MessageType::kUpdateRequest: {
        if (!on_update_) {
          return SendSemanticError(conn, frame.request_id,
                                   ErrorCode::kNotWriter,
                                   "this node is a replica");
        }
        UpdateRequest<D> req;
        if (!DecodeUpdateRequest<D>(frame.payload, &req)) {
          return SendSemanticError(conn, frame.request_id,
                                   ErrorCode::kBadPayload,
                                   "malformed update payload");
        }
        UpdateResponse resp;
        {
          std::lock_guard<std::mutex> lock(update_mu_);
          resp = on_update_(
              std::span<const geometry::Point<D>>(req.inserts),
              std::span<const uint64_t>(req.erases));
        }
        conn.SendAll(EncodeFrame(MessageType::kUpdateResponse,
                                 frame.request_id,
                                 EncodeUpdateResponse(resp)));
        stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      case MessageType::kShutdownRequest: {
        conn.SendAll(EncodeFrame(MessageType::kShutdownResponse,
                                 frame.request_id, {}));
        {
          std::lock_guard<std::mutex> lock(shutdown_mu_);
          shutdown_requested_ = true;
        }
        shutdown_cv_.notify_all();
        return false;
      }
      default:
        return SendSemanticError(conn, frame.request_id,
                                 ErrorCode::kUnknownType,
                                 "unknown message type");
    }
  }

  // Turns one trace's ring records into wire spans: chronological order
  // (CollectTrace sorts by start), parent expressed as an index into the
  // same vector so the client needs no span-id namespace.
  static std::vector<WireSpan> CollectWireSpans(uint64_t trace_id) {
    const std::vector<telemetry::SpanRecord> spans =
        telemetry::GlobalTraceRing().CollectTrace(trace_id);
    std::unordered_map<uint64_t, int32_t> index_of;
    index_of.reserve(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      index_of.emplace(spans[i].span_id, static_cast<int32_t>(i));
    }
    std::vector<WireSpan> out(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      out[i].name = spans[i].name != nullptr ? spans[i].name : "?";
      const auto it = index_of.find(spans[i].parent_id);
      out[i].parent = it != index_of.end() && spans[i].parent_id != 0
                          ? it->second
                          : -1;
      out[i].start_nanos = spans[i].start_nanos;
      out[i].duration_nanos = spans[i].duration_nanos();
    }
    return out;
  }

  // Semantic errors keep the connection open (framing was intact).
  bool SendSemanticError(TcpConn& conn, uint64_t request_id, ErrorCode code,
                         const std::string& message) {
    stats_.semantic_errors.fetch_add(1, std::memory_order_relaxed);
    conn.SendAll(EncodeErrorFrame(request_id, code, message));
    return true;
  }

  parallel::ServingScheduler<D>& scheduler_;
  parallel::EnginePool<D>& pool_;
  double epsilon_;
  size_t counts_cap_;
  ServerOptions options_;
  UpdateHandler on_update_;
  TcpListener listener_;
  std::thread acceptor_;
  std::mutex update_mu_;

  // Connections are tracked by a unique id, not by fd: an fd is erased
  // from conn_fds_ before the worker closes it, so Stop() never touches a
  // recycled descriptor, and duplicate fd values across a connection's
  // lifetime cannot alias.
  std::mutex conns_mu_;
  bool stopping_ = false;
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, int> conn_fds_;
  std::unordered_map<uint64_t, std::thread> conn_threads_;
  std::vector<uint64_t> finished_;

  mutable std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  ServerStats stats_;
};

}  // namespace pdbscan::net

#endif  // PDBSCAN_NET_SERVER_H_
