// Tests for the distributed serving layer (src/net/): frame codec round
// trips, protocol fuzzing against the decoder and against a live TCP
// server (truncated / oversized / garbage-magic / bit-flipped frames plus
// a randomized mutation loop), writer→replica snapshot-shipping
// convergence, the stale-generation window, and — in the *MultiProcess*
// cases (ctest label slow-net, separate entry) — kill -9 fault injection
// against real pdbscan_server child processes.
//
// The invariant every serving test enforces is the cross-replica identity
// contract: labels for the same (generation, eps, min_pts) are
// bit-identical no matter which node (or process) answered.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pdbscan/pdbscan.h"
#include "testing_util.h"
#include "util/subprocess.h"

namespace pdbscan {
namespace {

namespace fs = std::filesystem;
using geometry::Point;
using pdbscan::testing::BlobPoints;

constexpr double kEps = 2.0;
constexpr size_t kCountsCap = 50;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("pdbscan_net_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

// The response carries labels + core flags (not memberships) — compare
// what traveled.
void ExpectResponseMatches(const net::QueryResponse& resp,
                           const Clustering& expected,
                           const std::string& tag) {
  EXPECT_EQ(resp.num_clusters, expected.num_clusters) << tag;
  EXPECT_EQ(resp.cluster, expected.cluster) << tag;
  EXPECT_EQ(resp.is_core, expected.is_core) << tag;
}

std::vector<Point<2>> Batch(uint64_t seed, size_t n = 60) {
  return BlobPoints<2>(n, /*blobs=*/3, /*side=*/30.0, /*sigma=*/1.0, seed);
}

// --- Frame codec ------------------------------------------------------------

TEST(FrameCodec, QueryRoundTrip) {
  net::QueryRequest req;
  req.min_pts = 17;
  const auto frame = net::EncodeFrame(net::MessageType::kQueryRequest, 99,
                                      net::EncodeQueryRequest(req));
  net::FrameDecoder dec;
  dec.Feed(frame);
  const auto got = dec.Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, net::MessageType::kQueryRequest);
  EXPECT_EQ(got->request_id, 99u);
  net::QueryRequest back;
  ASSERT_TRUE(net::DecodeQueryRequest(got->payload, &back));
  EXPECT_EQ(back.min_pts, 17u);
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_EQ(dec.error(), net::ErrorCode::kNone);
}

TEST(FrameCodec, QueryResponseRoundTrip) {
  net::QueryResponse resp;
  resp.generation = 7;
  resp.num_points = 4;
  resp.num_clusters = 2;
  resp.cluster = {0, 1, -1, 0};
  resp.is_core = {1, 1, 0, 0};
  net::QueryResponse back;
  ASSERT_TRUE(net::DecodeQueryResponse(net::EncodeQueryResponse(resp), &back));
  EXPECT_EQ(back.generation, 7u);
  EXPECT_EQ(back.cluster, resp.cluster);
  EXPECT_EQ(back.is_core, resp.is_core);
  EXPECT_EQ(back.num_clusters, 2u);
}

TEST(FrameCodec, UpdateRoundTrip) {
  net::UpdateRequest<3> req;
  req.inserts.resize(2);
  req.inserts[0].x = {1.0, 2.0, 3.0};
  req.inserts[1].x = {-4.5, 0.0, 9.25};
  req.erases = {11, 42};
  net::UpdateRequest<3> back;
  ASSERT_TRUE(
      net::DecodeUpdateRequest<3>(net::EncodeUpdateRequest<3>(req), &back));
  EXPECT_EQ(back.inserts.size(), 2u);
  EXPECT_EQ(back.inserts[1].x, req.inserts[1].x);
  EXPECT_EQ(back.erases, req.erases);
  // A 2D decoder must refuse the 3D payload (dim is part of the wire
  // format), not misread it.
  net::UpdateRequest<2> wrong;
  EXPECT_FALSE(
      net::DecodeUpdateRequest<2>(net::EncodeUpdateRequest<3>(req), &wrong));
}

TEST(FrameCodec, IncrementalByteAtATimeFeed) {
  net::QueryRequest req;
  req.min_pts = 5;
  const auto frame = net::EncodeFrame(net::MessageType::kQueryRequest, 3,
                                      net::EncodeQueryRequest(req));
  net::FrameDecoder dec;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.Feed(std::span<const uint8_t>(&frame[i], 1));
    ASSERT_FALSE(dec.Next().has_value()) << "frame complete early at " << i;
    ASSERT_EQ(dec.error(), net::ErrorCode::kNone);
  }
  dec.Feed(std::span<const uint8_t>(&frame.back(), 1));
  ASSERT_TRUE(dec.Next().has_value());
}

TEST(FrameCodec, TwoFramesInOneFeed) {
  net::QueryRequest req;
  req.min_pts = 5;
  auto bytes = net::EncodeFrame(net::MessageType::kQueryRequest, 1,
                                net::EncodeQueryRequest(req));
  const auto second = net::EncodeFrame(net::MessageType::kInfoRequest, 2, {});
  bytes.insert(bytes.end(), second.begin(), second.end());
  net::FrameDecoder dec;
  dec.Feed(bytes);
  const auto a = dec.Next();
  const auto b = dec.Next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->request_id, 1u);
  EXPECT_EQ(b->request_id, 2u);
  EXPECT_EQ(b->type, net::MessageType::kInfoRequest);
}

// --- Decoder fuzz -----------------------------------------------------------

TEST(DecoderFuzz, GarbageMagicPoisons) {
  std::vector<uint8_t> junk(64, 0xAB);
  net::FrameDecoder dec;
  dec.Feed(junk);
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_EQ(dec.error(), net::ErrorCode::kBadMagic);
  // Poisoned: further feeds are refused.
  net::QueryRequest req;
  req.min_pts = 5;
  dec.Feed(net::EncodeFrame(net::MessageType::kQueryRequest, 1,
                            net::EncodeQueryRequest(req)));
  EXPECT_FALSE(dec.Next().has_value());
}

TEST(DecoderFuzz, OversizedLengthRejectedBeforeAllocation) {
  net::FrameHeader h;
  h.type = static_cast<uint8_t>(net::MessageType::kQueryRequest);
  h.request_id = 4;
  h.payload_bytes = ~0ull;  // A hostile length prefix.
  std::vector<uint8_t> bytes(sizeof(h));
  std::memcpy(bytes.data(), &h, sizeof(h));
  net::FrameDecoder dec;
  dec.Feed(bytes);
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_EQ(dec.error(), net::ErrorCode::kOversized);
  EXPECT_EQ(dec.error_request_id(), 4u);
}

TEST(DecoderFuzz, TruncatedFrameNeedsMoreWithoutError) {
  net::QueryRequest req;
  req.min_pts = 5;
  const auto frame = net::EncodeFrame(net::MessageType::kQueryRequest, 1,
                                      net::EncodeQueryRequest(req));
  net::FrameDecoder dec;
  dec.Feed(std::span<const uint8_t>(frame.data(), frame.size() - 3));
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_EQ(dec.error(), net::ErrorCode::kNone);
  EXPECT_GT(dec.buffered_bytes(), 0u);
}

TEST(DecoderFuzz, EverySingleBitFlipIsRejected) {
  net::QueryRequest req;
  req.min_pts = 10;
  const auto frame = net::EncodeFrame(net::MessageType::kQueryRequest, 12345,
                                      net::EncodeQueryRequest(req));
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = frame;
      mutated[byte] ^= static_cast<uint8_t>(1 << bit);
      net::FrameDecoder dec;
      dec.Feed(mutated);
      const auto got = dec.Next();
      // Either an immediate framing error, or the decoder is still
      // waiting for bytes a corrupted length promised — never a valid
      // frame.
      EXPECT_FALSE(got.has_value())
          << "bit flip at byte " << byte << " bit " << bit
          << " produced a valid frame";
    }
  }
}

// Counts whose product wraps mod 2^64 must be rejected by the size
// checks, not survive into a resize() that throws (and used to take the
// whole server down — the catch in ServeConnection only expected
// NetError at the time).
TEST(DecoderFuzz, UpdateCountOverflowRejectedWithoutAllocation) {
  std::vector<uint8_t> payload(4 + 8 + 8, 0);
  const uint32_t dim = 2;
  // 2^60 inserts * 2 dims * 8 bytes == 2^64 == 0 mod 2^64: the naive
  // exact-size check sees remaining() == 0 and passes.
  uint64_t num_inserts = 1ull << 60;
  uint64_t num_erases = 0;
  std::memcpy(payload.data(), &dim, 4);
  std::memcpy(payload.data() + 4, &num_inserts, 8);
  std::memcpy(payload.data() + 12, &num_erases, 8);
  net::UpdateRequest<2> out;
  EXPECT_FALSE(net::DecodeUpdateRequest<2>(payload, &out));
  // Same trick through the erase count: 2^61 * 8 == 0 mod 2^64.
  num_inserts = 0;
  num_erases = 1ull << 61;
  std::memcpy(payload.data() + 4, &num_inserts, 8);
  std::memcpy(payload.data() + 12, &num_erases, 8);
  EXPECT_FALSE(net::DecodeUpdateRequest<2>(payload, &out));
}

TEST(DecoderFuzz, QueryResponseCountOverflowRejectedWithoutAllocation) {
  // The per-point stride is 9 (int64 label + core byte). 9 is invertible
  // mod 2^64, so for ONE trailing byte there is exactly one num_points
  // whose product wraps to 1: 9^-1 mod 2^64. The naive exact-size check
  // accepts it; the client must reject before resizing.
  std::vector<uint8_t> payload(8 * 3 + 1, 0);
  const uint64_t generation = 1, num_clusters = 0;
  const uint64_t num_points = 0x8e38e38e38e38e39ull;  // 9^-1 mod 2^64.
  std::memcpy(payload.data(), &generation, 8);
  std::memcpy(payload.data() + 8, &num_points, 8);
  std::memcpy(payload.data() + 16, &num_clusters, 8);
  net::QueryResponse out;
  EXPECT_FALSE(net::DecodeQueryResponse(payload, &out));
}

TEST(DecoderFuzz, RandomMutationLoopNeverYieldsAFrame) {
  std::mt19937_64 rng(7);
  net::QueryRequest req;
  for (int round = 0; round < 500; ++round) {
    req.min_pts = 1 + rng() % 100;
    auto frame = net::EncodeFrame(net::MessageType::kQueryRequest, rng(),
                                  net::EncodeQueryRequest(req));
    // One of: flip a random bit, truncate, or splice random garbage.
    switch (rng() % 3) {
      case 0:
        frame[rng() % frame.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
        break;
      case 1:
        frame.resize(rng() % frame.size());
        break;
      case 2: {
        const size_t at = rng() % frame.size();
        frame.insert(frame.begin() + static_cast<ptrdiff_t>(at),
                     static_cast<uint8_t>(rng()));
        break;
      }
    }
    net::FrameDecoder dec;
    dec.Feed(frame);
    size_t decoded = 0;
    while (dec.Next().has_value()) ++decoded;
    EXPECT_EQ(decoded, 0u) << "mutated frame decoded on round " << round;
  }
}

// --- In-process server + client over real TCP -------------------------------

// One writer node serving over TCP; tears down in the documented order.
class NetServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("serving");
    net::WriterOptions wopts;
    wopts.rotate_bytes = 4096;
    wopts.checkpoint_every = 0;  // Manual.
    writer_ = std::make_unique<net::WriterNode<2>>(dir_->str(), kEps,
                                                   kCountsCap, Options(),
                                                   wopts);
    scheduler_ = std::make_unique<parallel::ServingScheduler<2>>(
        writer_->pool(), parallel::ServingOptions());
    server_ = std::make_unique<net::NetServer<2>>(
        *scheduler_, writer_->pool(), kEps, kCountsCap, net::ServerOptions(),
        [this](std::span<const Point<2>> ins, std::span<const uint64_t> er) {
          net::UpdateResponse resp;
          resp.first_id = writer_->ApplyUpdates(ins, er);
          resp.generation = writer_->generation();
          return resp;
        });
    server_->Start();
  }

  void TearDown() override {
    scheduler_->Shutdown();
    server_->Stop();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<net::WriterNode<2>> writer_;
  std::unique_ptr<parallel::ServingScheduler<2>> scheduler_;
  std::unique_ptr<net::NetServer<2>> server_;
};

TEST_F(NetServingTest, QueryMatchesLocalRunBitIdentically) {
  writer_->ApplyUpdates(Batch(1), {});
  writer_->ApplyUpdates(Batch(2), {});
  net::Client client(server_->port());
  for (const size_t min_pts : {2u, 4u, 8u}) {
    const net::QueryResponse resp = client.Query(min_pts);
    EXPECT_EQ(resp.generation, writer_->generation());
    ExpectResponseMatches(resp, writer_->pool().Run(min_pts),
                          "min_pts=" + std::to_string(min_pts));
  }
}

TEST_F(NetServingTest, InfoReportsNodeState) {
  writer_->ApplyUpdates(Batch(3), {});
  net::Client client(server_->port());
  const net::InfoResponse info = client.Info();
  EXPECT_EQ(info.generation, writer_->generation());
  EXPECT_EQ(info.num_points, 60u);
  EXPECT_EQ(info.epsilon, kEps);
  EXPECT_EQ(info.counts_cap, kCountsCap);
  EXPECT_EQ(info.dim, 2u);
  EXPECT_EQ(info.is_writer, 1);
}

TEST_F(NetServingTest, UpdateOverTheWireAdvancesGeneration) {
  net::Client client(server_->port());
  net::UpdateRequest<2> req;
  req.inserts = Batch(4);
  const net::UpdateResponse up = client.Update<2>(req);
  EXPECT_EQ(up.generation, 2u);
  EXPECT_EQ(up.first_id, 0u);
  const net::QueryResponse resp = client.Query(3);
  EXPECT_EQ(resp.generation, 2u);
  EXPECT_EQ(resp.num_points, req.inserts.size());
  ExpectResponseMatches(resp, writer_->pool().Run(3), "after wire update");
}

TEST_F(NetServingTest, PipelinedRequestsAnswerInOrder) {
  writer_->ApplyUpdates(Batch(5), {});
  net::Client client(server_->port());
  std::vector<uint64_t> ids;
  for (const size_t m : {2u, 3u, 4u, 5u, 6u}) ids.push_back(client.SendQuery(m));
  for (const uint64_t id : ids) {
    const net::ClientResponse resp = client.Receive();
    ASSERT_EQ(resp.type, net::MessageType::kQueryResponse);
    EXPECT_EQ(resp.request_id, id);
  }
}

TEST_F(NetServingTest, ConcurrentClientsAllBitIdentical) {
  writer_->ApplyUpdates(Batch(6, 120), {});
  const Clustering expected = writer_->pool().Run(4);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&]() {
      net::Client client(server_->port());
      for (int q = 0; q < 8; ++q) {
        const net::QueryResponse resp = client.Query(4);
        if (resp.cluster != expected.cluster ||
            resp.is_core != expected.is_core) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Server-level protocol fuzz ---------------------------------------------

using ServerFuzzTest = NetServingTest;

TEST_F(ServerFuzzTest, GarbageMagicAnsweredAndClosed) {
  writer_->ApplyUpdates(Batch(7), {});
  {
    net::Client client(server_->port());
    std::vector<uint8_t> junk(128);
    std::mt19937_64 rng(11);
    for (auto& b : junk) b = static_cast<uint8_t>(rng());
    junk[0] = 0x00;  // Guarantee the magic is wrong.
    client.SendRaw(junk);
    client.ShutdownWrite();
    const net::ClientResponse resp = client.Receive();
    ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
    EXPECT_TRUE(net::IsFramingError(resp.error.code));
    EXPECT_THROW(client.Receive(), net::NetError);  // Connection closed.
  }
  // The server keeps serving fresh connections.
  net::Client client(server_->port());
  EXPECT_EQ(client.Query(4).generation, writer_->generation());
}

TEST_F(ServerFuzzTest, BitFlippedFrameAnsweredAndClosed) {
  writer_->ApplyUpdates(Batch(8), {});
  {
    net::Client client(server_->port());
    net::QueryRequest req;
    req.min_pts = 4;
    auto frame = net::EncodeFrame(net::MessageType::kQueryRequest, 9,
                                  net::EncodeQueryRequest(req));
    frame[sizeof(net::FrameHeader)] ^= 0x10;  // Payload bit; checksum catches.
    client.SendRaw(frame);
    client.ShutdownWrite();
    const net::ClientResponse resp = client.Receive();
    ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
    EXPECT_EQ(resp.error.code, net::ErrorCode::kBadChecksum);
    EXPECT_THROW(client.Receive(), net::NetError);
  }
  net::Client client(server_->port());
  EXPECT_EQ(client.Query(4).generation, writer_->generation());
}

TEST_F(ServerFuzzTest, TruncatedFrameAnsweredAtEof) {
  writer_->ApplyUpdates(Batch(9), {});
  {
    net::Client client(server_->port());
    net::QueryRequest req;
    req.min_pts = 4;
    const auto frame = net::EncodeFrame(net::MessageType::kQueryRequest, 5,
                                        net::EncodeQueryRequest(req));
    client.SendRaw(std::span<const uint8_t>(frame.data(), frame.size() - 4));
    client.ShutdownWrite();  // "That was all" — server must answer the cut.
    const net::ClientResponse resp = client.Receive();
    ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
    EXPECT_EQ(resp.error.code, net::ErrorCode::kTruncated);
  }
  net::Client client(server_->port());
  EXPECT_EQ(client.Query(4).generation, writer_->generation());
}

TEST_F(ServerFuzzTest, OversizedFrameAnsweredAndClosed) {
  writer_->ApplyUpdates(Batch(10), {});
  {
    net::Client client(server_->port());
    net::FrameHeader h;
    h.type = static_cast<uint8_t>(net::MessageType::kQueryRequest);
    h.request_id = 77;
    h.payload_bytes = (512ull << 20);  // Past the server's cap.
    std::vector<uint8_t> bytes(sizeof(h));
    std::memcpy(bytes.data(), &h, sizeof(h));
    client.SendRaw(bytes);
    client.ShutdownWrite();
    const net::ClientResponse resp = client.Receive();
    ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
    EXPECT_EQ(resp.error.code, net::ErrorCode::kOversized);
    EXPECT_EQ(resp.request_id, 77u);  // Echoed from the bad frame.
  }
  net::Client client(server_->port());
  EXPECT_EQ(client.Query(4).generation, writer_->generation());
}

TEST_F(ServerFuzzTest, SemanticErrorsKeepTheConnection) {
  writer_->ApplyUpdates(Batch(11), {});
  net::Client client(server_->port());
  // Unknown message type: intact framing, unknown type byte.
  client.SendRaw(net::EncodeFrame(static_cast<net::MessageType>(200), 1, {}));
  net::ClientResponse resp = client.Receive();
  ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
  EXPECT_EQ(resp.error.code, net::ErrorCode::kUnknownType);
  // Malformed payload: a query with a short payload.
  const std::vector<uint8_t> short_payload = {1, 2, 3};
  client.SendRaw(net::EncodeFrame(net::MessageType::kQueryRequest, 2,
                                  short_payload));
  resp = client.Receive();
  ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
  EXPECT_EQ(resp.error.code, net::ErrorCode::kBadPayload);
  // min_pts = 0 is semantically invalid.
  net::QueryRequest zero;
  zero.min_pts = 0;
  client.SendRaw(net::EncodeFrame(net::MessageType::kQueryRequest, 3,
                                  net::EncodeQueryRequest(zero)));
  resp = client.Receive();
  ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
  EXPECT_EQ(resp.error.code, net::ErrorCode::kBadPayload);
  // SAME connection still serves valid requests — that is the contract.
  const net::QueryResponse ok = client.Query(4);
  EXPECT_EQ(ok.generation, writer_->generation());
  ExpectResponseMatches(ok, writer_->pool().Run(4), "after semantic errors");
}

TEST_F(ServerFuzzTest, OverflowingUpdateCountsAnsweredAsBadPayload) {
  writer_->ApplyUpdates(Batch(13), {});
  net::Client client(server_->port());
  // A checksum-valid frame whose update payload claims 2^60 inserts (the
  // byte count wraps mod 2^64 to match the 0 bytes present). The server
  // must answer kBadPayload on a live connection — this exact frame used
  // to throw out of resize() and kill the process.
  std::vector<uint8_t> payload(4 + 8 + 8, 0);
  const uint32_t dim = 2;
  const uint64_t num_inserts = 1ull << 60;
  std::memcpy(payload.data(), &dim, 4);
  std::memcpy(payload.data() + 4, &num_inserts, 8);
  client.SendRaw(net::EncodeFrame(net::MessageType::kUpdateRequest, 6,
                                  payload));
  const net::ClientResponse resp = client.Receive();
  ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
  EXPECT_EQ(resp.error.code, net::ErrorCode::kBadPayload);
  // Semantic error: the SAME connection keeps serving.
  const net::QueryResponse ok = client.Query(4);
  EXPECT_EQ(ok.generation, writer_->generation());
}

// An update handler that throws (e.g. persist IO failure mid-checkpoint)
// must cost only that connection, never the process.
TEST(NetServerInternalError, ThrowingHandlerAnsweredAndServerSurvives) {
  TempDir dir("internal");
  net::WriterOptions wopts;
  wopts.checkpoint_every = 0;
  net::WriterNode<2> writer(dir.str(), kEps, kCountsCap, Options(), wopts);
  writer.ApplyUpdates(Batch(14), {});
  parallel::ServingScheduler<2> scheduler(writer.pool(),
                                          parallel::ServingOptions());
  net::NetServer<2> server(
      scheduler, writer.pool(), kEps, kCountsCap, net::ServerOptions(),
      [](std::span<const Point<2>>,
         std::span<const uint64_t>) -> net::UpdateResponse {
        throw std::runtime_error("journal disk failure");
      });
  server.Start();
  {
    net::Client client(server.port());
    net::UpdateRequest<2> req;
    req.inserts = Batch(15);
    const uint64_t id = client.SendUpdate<2>(req);
    const net::ClientResponse resp = client.Receive();
    ASSERT_EQ(resp.type, net::MessageType::kErrorResponse);
    EXPECT_EQ(resp.request_id, id);
    EXPECT_EQ(resp.error.code, net::ErrorCode::kInternal);
    EXPECT_THROW(client.Receive(), net::NetError);  // Connection closed.
  }
  // Fresh connections still serve queries.
  net::Client probe(server.port());
  EXPECT_EQ(probe.Query(4).generation, writer.generation());
  scheduler.Shutdown();
  server.Stop();
}

TEST_F(ServerFuzzTest, RandomMutationLoopServerStaysHealthy) {
  writer_->ApplyUpdates(Batch(12), {});
  const Clustering expected = writer_->pool().Run(4);
  std::mt19937_64 rng(23);
  for (int round = 0; round < 40; ++round) {
    net::Client fuzz(server_->port());
    net::QueryRequest req;
    req.min_pts = 4;
    auto frame = net::EncodeFrame(net::MessageType::kQueryRequest, rng(),
                                  net::EncodeQueryRequest(req));
    switch (rng() % 3) {
      case 0:
        frame[rng() % frame.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
        break;
      case 1:
        frame.resize(rng() % frame.size());
        break;
      case 2:
        for (auto& b : frame) b = static_cast<uint8_t>(rng());
        break;
    }
    try {
      fuzz.SendRaw(frame);
      fuzz.ShutdownWrite();
      // Drain whatever the server answers until it closes; it must never
      // send a successful QueryResponse for a mutated frame unless the
      // mutation happened to leave the frame checksum-valid (flipping and
      // unflipping is impossible with a single mutation here).
      for (;;) {
        const net::ClientResponse resp = fuzz.Receive();
        if (resp.type == net::MessageType::kQueryResponse) {
          ExpectResponseMatches(resp.query, expected,
                                "mutated-but-valid frame");
        }
      }
    } catch (const net::NetError&) {
      // Connection over — expected for framing violations and EOF.
    }
    // Health probe every few rounds: valid queries still serve.
    if (round % 8 == 0) {
      net::Client probe(server_->port());
      const net::QueryResponse resp = probe.Query(4);
      ExpectResponseMatches(resp, expected, "health probe");
    }
  }
  net::Client probe(server_->port());
  ExpectResponseMatches(probe.Query(4), expected, "final health probe");
}

// --- Replication: writer → replica convergence ------------------------------

void PumpUntilCaughtUp(net::ReplicaNode<2>& replica, uint64_t writer_seq) {
  for (int spins = 0; replica.applied_seq() < writer_seq && spins < 10000;
       ++spins) {
    replica.TailOnce();
  }
  ASSERT_EQ(replica.applied_seq(), writer_seq);
}

TEST(Replication, ReplicaConvergesBitIdentically) {
  TempDir dir("converge");
  net::WriterOptions wopts;
  wopts.rotate_bytes = 2048;  // Several rotations over the run.
  wopts.checkpoint_every = 3;
  net::WriterNode<2> writer(dir.str(), kEps, kCountsCap, Options(), wopts);
  std::vector<uint64_t> live;
  std::mt19937_64 rng(31);
  for (int b = 0; b < 8; ++b) {
    const auto ins = Batch(100 + b);
    std::vector<uint64_t> del;
    if (!live.empty()) del.push_back(live[rng() % live.size()]);
    for (const uint64_t d : del) {
      live.erase(std::find(live.begin(), live.end(), d));
    }
    const uint64_t first = writer.ApplyUpdates(ins, del);
    for (size_t i = 0; i < ins.size(); ++i) live.push_back(first + i);
  }

  net::ReplicaNode<2> replica(dir.str(), kEps, kCountsCap);
  PumpUntilCaughtUp(replica, writer.seq());
  EXPECT_EQ(replica.generation(), writer.generation());
  for (const size_t min_pts : {2u, 4u, 8u, 16u}) {
    pdbscan::testing::ExpectIdentical(
        writer.pool().Run(min_pts), replica.pool().Run(min_pts),
        "replica vs writer, min_pts=" + std::to_string(min_pts));
  }
}

TEST(Replication, LateJoinColdStartsFromCheckpointNotFullLog) {
  TempDir dir("latejoin");
  net::WriterOptions wopts;
  wopts.rotate_bytes = 512;  // Guarantees a rotation after every batch.
  wopts.checkpoint_every = 4;
  wopts.keep_checkpoints = 1;
  net::WriterNode<2> writer(dir.str(), kEps, kCountsCap, Options(), wopts);
  for (int b = 0; b < 10; ++b) writer.ApplyUpdates(Batch(200 + b), {});
  // Segments before the last checkpoint (seq 8) were pruned: a late
  // replica must come up through the checkpoint, not the full history.
  const auto segments = persist::ListJournalSegments(dir.str());
  ASSERT_FALSE(segments.empty());
  EXPECT_GE(segments.front().start_seq, 8u);

  net::ReplicaNode<2> replica(dir.str(), kEps, kCountsCap);
  PumpUntilCaughtUp(replica, writer.seq());
  pdbscan::testing::ExpectIdentical(writer.pool().Run(4),
                                    replica.pool().Run(4), "late join");
}

TEST(Replication, WriterRecoversItsOwnStateAfterRestart) {
  TempDir dir("wrecover");
  std::vector<Clustering> before;
  uint64_t seq_before = 0;
  {
    net::WriterOptions wopts;
    wopts.rotate_bytes = 1024;
    wopts.checkpoint_every = 3;
    net::WriterNode<2> writer(dir.str(), kEps, kCountsCap, Options(), wopts);
    for (int b = 0; b < 7; ++b) writer.ApplyUpdates(Batch(300 + b), {});
    seq_before = writer.seq();
    before.push_back(writer.pool().Run(4));
    before.push_back(writer.pool().Run(9));
  }
  net::WriterNode<2> writer(dir.str(), kEps, kCountsCap);
  EXPECT_EQ(writer.seq(), seq_before);
  pdbscan::testing::ExpectIdentical(before[0], writer.pool().Run(4),
                                    "writer restart minpts=4");
  pdbscan::testing::ExpectIdentical(before[1], writer.pool().Run(9),
                                    "writer restart minpts=9");
  // And it keeps accepting updates on the recovered log.
  writer.ApplyUpdates(Batch(399), {});
  EXPECT_EQ(writer.seq(), seq_before + 1);
}

TEST(Replication, StaleGenerationWindowForcesReColdStart) {
  TempDir dir("stale");
  net::WriterOptions wopts;
  wopts.rotate_bytes = 256;  // Rotate every batch.
  wopts.checkpoint_every = 0;
  wopts.keep_checkpoints = 1;
  net::WriterNode<2> writer(dir.str(), kEps, kCountsCap, Options(), wopts);
  for (int b = 0; b < 4; ++b) writer.ApplyUpdates(Batch(400 + b), {});
  writer.Checkpoint();  // checkpoint-4; earlier segments pruned.

  // The hook runs INSIDE the replica's cold start, after it committed to
  // checkpoint-4 but before it lists segments: the writer advances and
  // re-checkpoints in that window, pruning the records the replica was
  // about to tail.
  int fires = 0;
  net::ReplicaOptions ropts;
  ropts.on_cold_start_loaded = [&](uint64_t seq) {
    if (fires++ != 0) return;
    EXPECT_EQ(seq, 4u);
    for (int b = 0; b < 4; ++b) writer.ApplyUpdates(Batch(500 + b), {});
    writer.Checkpoint();  // checkpoint-8 replaces checkpoint-4, prunes.
  };
  net::ReplicaNode<2> replica(dir.str(), kEps, kCountsCap, Options(), ropts);
  PumpUntilCaughtUp(replica, writer.seq());
  EXPECT_GE(replica.gap_restarts(), 1u);
  EXPECT_EQ(replica.generation(), writer.generation());
  pdbscan::testing::ExpectIdentical(writer.pool().Run(4),
                                    replica.pool().Run(4),
                                    "after stale-generation restart");
}

TEST(Replication, BackgroundTailingConverges) {
  TempDir dir("bgtail");
  net::WriterOptions wopts;
  wopts.checkpoint_every = 5;
  net::WriterNode<2> writer(dir.str(), kEps, kCountsCap, Options(), wopts);
  writer.ApplyUpdates(Batch(600), {});

  net::ReplicaOptions ropts;
  ropts.poll_millis = 2;
  net::ReplicaNode<2> replica(dir.str(), kEps, kCountsCap, Options(), ropts);
  replica.StartTailing();
  for (int b = 1; b < 6; ++b) writer.ApplyUpdates(Batch(600 + b), {});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (replica.applied_seq() < writer.seq() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  replica.StopTailing();
  ASSERT_EQ(replica.applied_seq(), writer.seq());
  pdbscan::testing::ExpectIdentical(writer.pool().Run(3),
                                    replica.pool().Run(3),
                                    "background tailing");
}

// --- Multi-process fault injection (ctest entry test_net_multiprocess, ------
// --- label slow-net) --------------------------------------------------------

std::string ServerBinary() {
  if (const char* env = std::getenv("PDBSCAN_SERVER_BIN")) return env;
#ifdef PDBSCAN_SERVER_BINARY
  return PDBSCAN_SERVER_BINARY;
#else
  return std::string();
#endif
}

util::ChildProcess SpawnServer(const std::string& mode, const TempDir& dir,
                               const std::string& port_file,
                               const std::string& extra_flag = "",
                               const std::string& extra_value = "") {
  std::vector<std::string> argv = {
      ServerBinary(), "--mode", mode, "--dir", dir.str(),
      "--dim", "2", "--eps", std::to_string(kEps),
      "--counts-cap", std::to_string(kCountsCap),
      "--port", "0", "--port-file", dir.File(port_file),
      "--poll-ms", "5", "--checkpoint-every", "4",
      "--rotate-bytes", "2048"};
  if (!extra_flag.empty()) {
    argv.push_back(extra_flag);
    argv.push_back(extra_value);
  }
  return util::SpawnProcess(argv);
}

class MultiProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (ServerBinary().empty()) {
      GTEST_SKIP() << "pdbscan_server binary not configured";
    }
  }
};

TEST_F(MultiProcessTest, CleanProtocolShutdown) {
  TempDir dir("mp_shutdown");
  util::ChildProcess server = SpawnServer("writer", dir, "port");
  const uint16_t port = util::ReadPortFile(dir.File("port"));
  {
    net::Client client(port);
    client.Shutdown();
  }
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(MultiProcessTest, KillReplicaMidTailRestartReconverges) {
  TempDir dir("mp_kill");
  util::ChildProcess writer = SpawnServer("writer", dir, "wport");
  const uint16_t wport = util::ReadPortFile(dir.File("wport"));

  // The local mirror applies the SAME batches — the independent reference
  // the acceptance criterion demands (fresh local run at the reported
  // generation).
  StreamingClusterer<2> mirror(kEps, kCountsCap);
  net::Client wclient(wport);
  auto apply = [&](uint64_t seed) {
    net::UpdateRequest<2> req;
    req.inserts = Batch(seed);
    const net::UpdateResponse resp = wclient.Update<2>(req);
    const uint64_t first = mirror.ApplyUpdates(
        std::span<const Point<2>>(req.inserts), {});
    ASSERT_EQ(resp.first_id, first);
    ASSERT_EQ(resp.generation, mirror.generation());
  };
  for (uint64_t s = 700; s < 703; ++s) apply(s);

  util::ChildProcess replica = SpawnServer("replica", dir, "rport");
  const uint16_t rport = util::ReadPortFile(dir.File("rport"));

  // More batches while the replica tails, then kill -9 mid-tail.
  for (uint64_t s = 703; s < 705; ++s) apply(s);
  replica.KillAndWait(SIGKILL);

  // The writer advances past the kill; crosses a checkpoint boundary.
  for (uint64_t s = 705; s < 709; ++s) apply(s);

  // Restart from the same shared directory; it must reconverge to the
  // writer's generation.
  util::ChildProcess replica2 = SpawnServer("replica", dir, "rport2");
  const uint16_t rport2 = util::ReadPortFile(dir.File("rport2"));
  net::Client rclient(rport2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (rclient.Info().generation < mirror.generation()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "restarted replica never reconverged";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Bit-identical answers: restarted replica vs writer vs fresh local run.
  for (const size_t min_pts : {3u, 6u}) {
    const net::QueryResponse from_replica = rclient.Query(min_pts);
    const net::QueryResponse from_writer = wclient.Query(min_pts);
    ASSERT_EQ(from_replica.generation, mirror.generation());
    ASSERT_EQ(from_writer.generation, mirror.generation());
    const Clustering local = mirror.Run(min_pts);
    ExpectResponseMatches(from_replica, local, "replica vs local mirror");
    ExpectResponseMatches(from_writer, local, "writer vs local mirror");
  }

  net::Client(wport).Shutdown();
  const int status = writer.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // replica2 is reaped by its destructor (SIGKILL) — replicas hold no
  // state that needs a clean exit.
}

TEST_F(MultiProcessTest, KillAndRestartWriterContinuesTheLog) {
  TempDir dir("mp_wkill");
  StreamingClusterer<2> mirror(kEps, kCountsCap);
  uint64_t expect_first = 0;
  {
    util::ChildProcess writer = SpawnServer("writer", dir, "wport");
    const uint16_t wport = util::ReadPortFile(dir.File("wport"));
    net::Client wclient(wport);
    for (uint64_t s = 800; s < 805; ++s) {
      net::UpdateRequest<2> req;
      req.inserts = Batch(s);
      wclient.Update<2>(req);
      expect_first = mirror.ApplyUpdates(
          std::span<const Point<2>>(req.inserts), {}) + req.inserts.size();
    }
    writer.KillAndWait(SIGKILL);  // Power-loss-shaped writer death.
  }
  util::ChildProcess writer = SpawnServer("writer", dir, "wport2");
  const uint16_t wport = util::ReadPortFile(dir.File("wport2"));
  net::Client wclient(wport);
  const net::InfoResponse info = wclient.Info();
  EXPECT_EQ(info.generation, mirror.generation());
  net::UpdateRequest<2> req;
  req.inserts = Batch(805);
  const net::UpdateResponse up = wclient.Update<2>(req);
  EXPECT_EQ(up.first_id, expect_first);  // Id sequence continued, no reuse.
  mirror.ApplyUpdates(std::span<const Point<2>>(req.inserts), {});
  const net::QueryResponse resp = wclient.Query(4);
  ExpectResponseMatches(resp, mirror.Run(4), "writer restart over wire");
  net::Client(wport).Shutdown();
  writer.Wait();
}

// Replica answers on a MOVING generation: 2 client threads query a replica
// process while the writer keeps taking batches, so responses land on
// whatever generation the replica has tailed to. Each one must equal the
// local mirror's clustering at the generation it reports.
TEST_F(MultiProcessTest, ReplicaServesWhileTheWriterAdvances) {
  TempDir dir("mp_moving");
  util::ChildProcess writer = SpawnServer("writer", dir, "wport");
  const uint16_t wport = util::ReadPortFile(dir.File("wport"));
  const std::vector<size_t> minpts_list = {3, 6};

  // One reference per (generation, min_pts), recorded as the mirror moves.
  StreamingClusterer<2> mirror(kEps, kCountsCap);
  std::map<uint64_t, std::map<size_t, Clustering>> reference;
  net::Client wclient(wport);
  auto apply = [&](uint64_t seed) {
    net::UpdateRequest<2> req;
    req.inserts = Batch(seed);
    const net::UpdateResponse resp = wclient.Update<2>(req);
    mirror.ApplyUpdates(std::span<const Point<2>>(req.inserts), {});
    ASSERT_EQ(resp.generation, mirror.generation());
    for (const size_t m : minpts_list) {
      reference[mirror.generation()][m] = mirror.Run(m);
    }
  };
  for (uint64_t s = 900; s < 903; ++s) apply(s);

  util::ChildProcess replica = SpawnServer("replica", dir, "rport");
  const uint16_t rport = util::ReadPortFile(dir.File("rport"));
  {
    net::Client probe(rport);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (probe.Info().generation < mirror.generation()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "replica never caught up";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  struct Served {
    size_t min_pts;
    net::QueryResponse resp;
  };
  // The clients query until the writer has taken 8 more batches.
  std::vector<std::vector<Served>> served(2);
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < served.size(); ++c) {
    clients.emplace_back([&, c]() {
      net::Client client(rport);
      for (size_t q = 0; q < 4 || !writer_done.load(); ++q) {
        const size_t m = minpts_list[(c + q) % minpts_list.size()];
        served[c].push_back(Served{m, client.Query(m)});
      }
    });
  }
  for (uint64_t s = 903; s < 911; ++s) apply(s);
  writer_done.store(true);
  for (auto& t : clients) t.join();

  for (const auto& mine : served) {
    for (const Served& s : mine) {
      const auto gen = reference.find(s.resp.generation);
      ASSERT_NE(gen, reference.end())
          << "replica reported unknown generation " << s.resp.generation;
      ExpectResponseMatches(s.resp, gen->second.at(s.min_pts),
                            "replica at generation " +
                                std::to_string(s.resp.generation));
    }
  }

  net::Client(wport).Shutdown();
  const int status = writer.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace pdbscan
