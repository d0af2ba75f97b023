// Wire protocol for the distributed serving front-end: length-prefixed
// binary frames over TCP, decoded incrementally by FrameDecoder.
//
// Frame layout (all integers little-endian, as everywhere in persist/):
//
//   FrameHeader {
//     uint32 magic        "pDBn"
//     uint8  version      kProtocolVersion
//     uint8  type         MessageType
//     uint8  pad[2]       zero
//     uint64 request_id   echoed verbatim in the response (pipelining key)
//     uint64 payload_bytes
//   }
//   payload[payload_bytes]
//   uint64 checksum       Checksum64 over header + payload
//
// The checksum covers the HEADER too, so a bit-flip anywhere in the frame —
// magic, type, request_id, length, payload — is caught, not just payload
// damage. Payload sizes are capped (ProtocolLimits::max_payload_bytes)
// before any allocation, so a hostile length prefix cannot balloon memory.
//
// Error contract (enforced by the server, fuzz-tested in tests/test_net.cpp):
//   - SEMANTIC errors — unknown message type, malformed payload, overload
//     rejection, update sent to a replica — get an ErrorResponse frame and
//     the connection stays open: framing was intact, so the stream is still
//     synchronized and subsequent valid requests are served.
//   - FRAMING errors — bad magic, bad version, checksum mismatch, oversized
//     length — poison the stream (there is no way to find the next frame
//     boundary reliably). The server sends a best-effort ErrorResponse and
//     closes the connection.
//
// Requests: Query (min_pts), Info, Update (writer only), Shutdown.
// Responses carry the GENERATION the answer was computed at; the
// cross-replica identity contract (docs/ARCHITECTURE.md) is that labels for
// the same (generation, eps, min_pts) are bit-identical from any node.
#ifndef PDBSCAN_NET_PROTOCOL_H_
#define PDBSCAN_NET_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "persist/format.h"

namespace pdbscan::net {

inline constexpr uint32_t kNetMagic = 0x6e424470u;  // "pDBn"
inline constexpr uint8_t kProtocolVersion = 1;

enum class MessageType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kInfoRequest = 3,
  kInfoResponse = 4,
  kUpdateRequest = 5,
  kUpdateResponse = 6,
  kShutdownRequest = 7,
  kShutdownResponse = 8,
  kErrorResponse = 9,
  kStatsRequest = 10,
  kStatsResponse = 11,
};

enum class ErrorCode : uint16_t {
  kNone = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadChecksum = 3,
  kOversized = 4,
  kBadPayload = 5,
  kUnknownType = 6,
  kRejected = 7,   // Admission queue full (ServeStatus::kRejected).
  kTimedOut = 8,   // Deadline expired in the queue (ServeStatus::kTimedOut).
  kShutdown = 9,   // Server is draining.
  kNotWriter = 10, // Update sent to a replica.
  kInternal = 11,
  kTruncated = 12, // Connection ended mid-frame.
};

// Whether an error leaves the byte stream synchronized (connection can keep
// serving) or poisoned (server closes after the error frame).
inline bool IsFramingError(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic:
    case ErrorCode::kBadVersion:
    case ErrorCode::kBadChecksum:
    case ErrorCode::kOversized:
    case ErrorCode::kTruncated:
      return true;
    default:
      return false;
  }
}

struct FrameHeader {
  uint32_t magic = kNetMagic;
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint8_t pad[2] = {0, 0};
  uint64_t request_id = 0;
  uint64_t payload_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(sizeof(FrameHeader) == 24);

struct ProtocolLimits {
  // Caps payloads BEFORE allocation. Large enough for a QueryResponse over
  // a few hundred million points is not the goal here — serving nodes that
  // big would stream; this cap bounds a fuzzer's (or attacker's) ability
  // to make the peer allocate.
  uint64_t max_payload_bytes = 256ull << 20;
};

// --- Frame encoding ---------------------------------------------------------

inline std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t request_id,
                                        std::span<const uint8_t> payload) {
  FrameHeader h;
  h.type = static_cast<uint8_t>(type);
  h.request_id = request_id;
  h.payload_bytes = payload.size();
  std::vector<uint8_t> frame;
  frame.reserve(sizeof(FrameHeader) + payload.size() + sizeof(uint64_t));
  const auto* hp = reinterpret_cast<const uint8_t*>(&h);
  frame.insert(frame.end(), hp, hp + sizeof(h));
  frame.insert(frame.end(), payload.begin(), payload.end());
  const uint64_t checksum = persist::Checksum64(frame.data(), frame.size());
  const auto* cp = reinterpret_cast<const uint8_t*>(&checksum);
  frame.insert(frame.end(), cp, cp + sizeof(checksum));
  return frame;
}

// --- Incremental frame decoder ----------------------------------------------

// One decoded frame, payload copied out of the stream buffer.
struct Frame {
  MessageType type = MessageType::kErrorResponse;
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;
};

// Feed bytes as they arrive; Next() yields complete frames. The first
// framing violation (bad magic/version/checksum, oversized length) sets a
// permanent error — after that the decoder refuses further input, because
// a desynchronized length-prefixed stream has no recoverable frame
// boundary. The request_id of the frame being decoded when the error hit
// is retained (best-effort) so the peer's error frame can echo it.
class FrameDecoder {
 public:
  explicit FrameDecoder(ProtocolLimits limits = ProtocolLimits())
      : limits_(limits) {}

  void Feed(std::span<const uint8_t> bytes) {
    if (error_ != ErrorCode::kNone) return;
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  // Returns the next complete frame, or nullopt when more bytes are needed
  // or the stream is poisoned (check error()).
  std::optional<Frame> Next() {
    if (error_ != ErrorCode::kNone) return std::nullopt;
    if (buffer_.size() < sizeof(FrameHeader)) return std::nullopt;
    FrameHeader h;
    std::memcpy(&h, buffer_.data(), sizeof(h));
    if (h.magic != kNetMagic) return Poison(ErrorCode::kBadMagic, 0);
    if (h.version != kProtocolVersion) {
      return Poison(ErrorCode::kBadVersion, h.request_id);
    }
    if (h.payload_bytes > limits_.max_payload_bytes) {
      return Poison(ErrorCode::kOversized, h.request_id);
    }
    const size_t frame_bytes =
        sizeof(FrameHeader) + static_cast<size_t>(h.payload_bytes) +
        sizeof(uint64_t);
    if (buffer_.size() < frame_bytes) return std::nullopt;
    uint64_t stored;
    std::memcpy(&stored, buffer_.data() + frame_bytes - sizeof(uint64_t),
                sizeof(stored));
    const uint64_t computed = persist::Checksum64(
        buffer_.data(), frame_bytes - sizeof(uint64_t));
    if (stored != computed) {
      return Poison(ErrorCode::kBadChecksum, h.request_id);
    }
    Frame frame;
    frame.type = static_cast<MessageType>(h.type);
    frame.request_id = h.request_id;
    frame.payload.assign(buffer_.begin() + sizeof(FrameHeader),
                         buffer_.begin() + (frame_bytes - sizeof(uint64_t)));
    buffer_.erase(buffer_.begin(), buffer_.begin() + frame_bytes);
    return frame;
  }

  ErrorCode error() const { return error_; }
  // request_id of the frame whose framing failed (0 when the header itself
  // was unreadable) — echoed in the best-effort error frame.
  uint64_t error_request_id() const { return error_request_id_; }
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::optional<Frame> Poison(ErrorCode code, uint64_t request_id) {
    error_ = code;
    error_request_id_ = request_id;
    buffer_.clear();
    return std::nullopt;
  }

  ProtocolLimits limits_;
  std::vector<uint8_t> buffer_;
  ErrorCode error_ = ErrorCode::kNone;
  uint64_t error_request_id_ = 0;
};

// --- Payload codecs ---------------------------------------------------------
//
// Payloads are flat little-endian structs (static_asserted trivially
// copyable) followed by their arrays, mirroring the persist/ format idiom.
// Every decoder validates lengths against the actual payload size before
// reading and reports failure by returning false — a malformed payload is
// a SEMANTIC error (the frame itself was intact).

struct QueryRequest {
  uint64_t min_pts = 0;
  // Nonzero asks the server to trace this request and return its span
  // breakdown. Encoded only when nonzero, and tolerated as absent on
  // decode, so traced clients interoperate with pre-telemetry peers in
  // both directions.
  uint64_t trace_id = 0;
};

// One server-side span shipped back in a traced QueryResponse. `parent` is
// the index of the parent span within the same vector (-1 = root), so the
// client can rebuild the tree without global span ids.
struct WireSpan {
  std::string name;
  int32_t parent = -1;
  uint64_t start_nanos = 0;     // Server steady-clock; relative use only.
  uint64_t duration_nanos = 0;
};

struct QueryResponse {
  uint64_t generation = 0;
  uint64_t num_points = 0;
  uint64_t num_clusters = 0;
  std::vector<int64_t> cluster;   // Label per point, kNoise = -1.
  std::vector<uint8_t> is_core;   // 1 per core point.
  // Span breakdown; present only when the request carried a trace_id.
  // Encoded as an optional trailing section old clients never receive
  // (servers omit it for untraced requests).
  std::vector<WireSpan> spans;
};

// Stats scrape: format 0 = JSON, 1 = Prometheus text.
struct StatsRequest {
  uint8_t format = 0;
};

struct StatsResponse {
  uint8_t format = 0;
  std::string text;
};

struct InfoResponse {
  uint64_t generation = 0;
  uint64_t num_points = 0;
  double epsilon = 0;
  uint64_t counts_cap = 0;
  uint32_t dim = 0;
  uint8_t is_writer = 0;
};

template <int D>
struct UpdateRequest {
  std::vector<geometry::Point<D>> inserts;
  std::vector<uint64_t> erases;
};

struct UpdateResponse {
  uint64_t generation = 0;  // Generation the batch PRODUCED.
  uint64_t first_id = 0;    // Id assigned to inserts[0].
};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

namespace detail {

class PayloadWriter {
 public:
  void Raw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&value, sizeof(T));
  }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}
  bool Raw(void* out, size_t n) {
    if (bytes_.size() - pos_ < n) return false;
    // An empty array decodes into a null data(), which memcpy forbids.
    if (n != 0) std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  template <typename T>
  bool Pod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Raw(out, sizeof(T));
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace detail

inline std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& req) {
  detail::PayloadWriter w;
  w.Pod(req.min_pts);
  // trace_id travels as an optional trailing field: omitted when zero so
  // untraced queries stay byte-identical with the pre-telemetry wire form
  // (and decodable by old servers, which require AtEnd after min_pts).
  if (req.trace_id != 0) w.Pod(req.trace_id);
  return w.Take();
}

inline bool DecodeQueryRequest(std::span<const uint8_t> payload,
                               QueryRequest* out) {
  detail::PayloadReader r(payload);
  if (!r.Pod(&out->min_pts)) return false;
  out->trace_id = 0;
  if (r.AtEnd()) return true;  // Old-version frame: no trace_id.
  return r.Pod(&out->trace_id) && r.AtEnd();
}

inline std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& resp) {
  detail::PayloadWriter w;
  w.Pod(resp.generation);
  w.Pod(resp.num_points);
  w.Pod(resp.num_clusters);
  w.Raw(resp.cluster.data(), resp.cluster.size() * sizeof(int64_t));
  w.Raw(resp.is_core.data(), resp.is_core.size());
  // Optional trailing span section (traced requests only). Old decoders
  // required the payload to end exactly after is_core, so servers only
  // append this when the client asked for a trace — i.e. when the client
  // is new enough to parse it.
  if (!resp.spans.empty()) {
    w.Pod(static_cast<uint32_t>(resp.spans.size()));
    for (const WireSpan& s : resp.spans) {
      w.Pod(static_cast<uint16_t>(
          s.name.size() < 0xffff ? s.name.size() : 0xffff));
      w.Raw(s.name.data(),
            s.name.size() < 0xffff ? s.name.size() : 0xffff);
      w.Pod(s.parent);
      w.Pod(s.start_nanos);
      w.Pod(s.duration_nanos);
    }
  }
  return w.Take();
}

inline bool DecodeQueryResponse(std::span<const uint8_t> payload,
                                QueryResponse* out) {
  detail::PayloadReader r(payload);
  if (!r.Pod(&out->generation) || !r.Pod(&out->num_points) ||
      !r.Pod(&out->num_clusters)) {
    return false;
  }
  const uint64_t n = out->num_points;
  // Bound the count BEFORE multiplying: a hostile num_points can make
  // n * stride wrap mod 2^64 and match remaining(), then blow up resize.
  constexpr uint64_t kStride = sizeof(int64_t) + 1;
  if (n > r.remaining() / kStride) return false;
  if (r.remaining() < n * kStride) return false;
  out->cluster.resize(n);
  out->is_core.resize(n);
  if (!r.Raw(out->cluster.data(), n * sizeof(int64_t)) ||
      !r.Raw(out->is_core.data(), n)) {
    return false;
  }
  out->spans.clear();
  if (r.AtEnd()) return true;  // Untraced (or old-version) response.
  uint32_t num_spans;
  if (!r.Pod(&num_spans)) return false;
  // Minimum wire size per span: empty name (2) + parent (4) + start (8) +
  // duration (8). Bound before reserving, same discipline as above.
  constexpr uint64_t kMinSpanBytes = 2 + 4 + 8 + 8;
  if (num_spans > r.remaining() / kMinSpanBytes) return false;
  out->spans.resize(num_spans);
  for (uint32_t i = 0; i < num_spans; ++i) {
    WireSpan& s = out->spans[i];
    uint16_t name_len;
    if (!r.Pod(&name_len)) return false;
    if (name_len > r.remaining()) return false;
    s.name.resize(name_len);
    if (!r.Raw(s.name.data(), name_len) || !r.Pod(&s.parent) ||
        !r.Pod(&s.start_nanos) || !r.Pod(&s.duration_nanos)) {
      return false;
    }
  }
  return r.AtEnd();
}

inline std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& req) {
  detail::PayloadWriter w;
  w.Pod(req.format);
  return w.Take();
}

inline bool DecodeStatsRequest(std::span<const uint8_t> payload,
                               StatsRequest* out) {
  detail::PayloadReader r(payload);
  return r.Pod(&out->format) && r.AtEnd();
}

inline std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& resp) {
  detail::PayloadWriter w;
  w.Pod(resp.format);
  w.Pod(static_cast<uint32_t>(resp.text.size()));
  w.Raw(resp.text.data(), resp.text.size());
  return w.Take();
}

inline bool DecodeStatsResponse(std::span<const uint8_t> payload,
                                StatsResponse* out) {
  detail::PayloadReader r(payload);
  uint32_t text_len;
  if (!r.Pod(&out->format) || !r.Pod(&text_len)) return false;
  if (r.remaining() != text_len) return false;
  out->text.resize(text_len);
  return r.Raw(out->text.data(), text_len) && r.AtEnd();
}

inline std::vector<uint8_t> EncodeInfoResponse(const InfoResponse& resp) {
  detail::PayloadWriter w;
  w.Pod(resp.generation);
  w.Pod(resp.num_points);
  w.Pod(resp.epsilon);
  w.Pod(resp.counts_cap);
  w.Pod(resp.dim);
  w.Pod(resp.is_writer);
  return w.Take();
}

inline bool DecodeInfoResponse(std::span<const uint8_t> payload,
                               InfoResponse* out) {
  detail::PayloadReader r(payload);
  return r.Pod(&out->generation) && r.Pod(&out->num_points) &&
         r.Pod(&out->epsilon) && r.Pod(&out->counts_cap) && r.Pod(&out->dim) &&
         r.Pod(&out->is_writer) && r.AtEnd();
}

template <int D>
std::vector<uint8_t> EncodeUpdateRequest(const UpdateRequest<D>& req) {
  detail::PayloadWriter w;
  w.Pod(static_cast<uint32_t>(D));
  w.Pod(static_cast<uint64_t>(req.inserts.size()));
  w.Pod(static_cast<uint64_t>(req.erases.size()));
  for (const geometry::Point<D>& p : req.inserts) {
    w.Raw(p.x.data(), D * sizeof(double));
  }
  w.Raw(req.erases.data(), req.erases.size() * sizeof(uint64_t));
  return w.Take();
}

template <int D>
bool DecodeUpdateRequest(std::span<const uint8_t> payload,
                         UpdateRequest<D>* out) {
  detail::PayloadReader r(payload);
  uint32_t dim;
  uint64_t num_inserts, num_erases;
  if (!r.Pod(&dim) || !r.Pod(&num_inserts) || !r.Pod(&num_erases)) {
    return false;
  }
  if (dim != static_cast<uint32_t>(D)) return false;
  // Counts are attacker-controlled: bound each against the bytes actually
  // present BEFORE multiplying, so the exact-size check below cannot wrap
  // mod 2^64 and admit a resize() that throws past the payload cap.
  constexpr uint64_t kInsertStride = static_cast<uint64_t>(D) * sizeof(double);
  if (num_inserts > r.remaining() / kInsertStride) return false;
  if (num_erases > r.remaining() / sizeof(uint64_t)) return false;
  if (r.remaining() !=
      num_inserts * kInsertStride + num_erases * sizeof(uint64_t)) {
    return false;
  }
  out->inserts.resize(num_inserts);
  for (uint64_t i = 0; i < num_inserts; ++i) {
    if (!r.Raw(out->inserts[i].x.data(), D * sizeof(double))) {
      return false;
    }
  }
  out->erases.resize(num_erases);
  return r.Raw(out->erases.data(), num_erases * sizeof(uint64_t)) && r.AtEnd();
}

inline std::vector<uint8_t> EncodeUpdateResponse(const UpdateResponse& resp) {
  detail::PayloadWriter w;
  w.Pod(resp.generation);
  w.Pod(resp.first_id);
  return w.Take();
}

inline bool DecodeUpdateResponse(std::span<const uint8_t> payload,
                                 UpdateResponse* out) {
  detail::PayloadReader r(payload);
  return r.Pod(&out->generation) && r.Pod(&out->first_id) && r.AtEnd();
}

inline std::vector<uint8_t> EncodeErrorResponse(const ErrorResponse& resp) {
  detail::PayloadWriter w;
  w.Pod(static_cast<uint16_t>(resp.code));
  w.Pod(static_cast<uint16_t>(resp.message.size()));
  w.Raw(resp.message.data(), resp.message.size());
  return w.Take();
}

inline bool DecodeErrorResponse(std::span<const uint8_t> payload,
                                ErrorResponse* out) {
  detail::PayloadReader r(payload);
  uint16_t code, msg_len;
  if (!r.Pod(&code) || !r.Pod(&msg_len)) return false;
  if (r.remaining() != msg_len) return false;
  out->code = static_cast<ErrorCode>(code);
  out->message.resize(msg_len);
  return r.Raw(out->message.data(), msg_len) && r.AtEnd();
}

inline std::vector<uint8_t> EncodeErrorFrame(uint64_t request_id,
                                             ErrorCode code,
                                             const std::string& message) {
  ErrorResponse resp;
  resp.code = code;
  resp.message = message;
  const std::vector<uint8_t> payload = EncodeErrorResponse(resp);
  return EncodeFrame(MessageType::kErrorResponse, request_id, payload);
}

}  // namespace pdbscan::net

#endif  // PDBSCAN_NET_PROTOCOL_H_
