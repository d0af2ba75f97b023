// Tests for the persistence layer (src/persist/): snapshot round trips in
// both load modes with bit-identical serving, corruption/truncation/version
// rejection, journal replay equivalence, crash-shaped recovery of durable
// live datasets through WriterNode / ReplicaNode.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pdbscan/pdbscan.h"
#include "persist/format.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

namespace fs = std::filesystem;
using testing::BlobPoints;
using testing::ExpectIdentical;

// A per-test scratch directory under the system temp dir, removed on exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("pdbscan_persist_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }
  std::string str() const { return path_.string(); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<uint8_t> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Save -> load (both modes) -> Run + Sweep must be bit-identical to the
// live index, including min_pts beyond the shared-counts cap (which forces
// the per-context recount path — and, for kQuadtree configs, the rebuilt
// trees).
template <int D>
void CheckRoundTrip(const Options& options, const std::string& tag) {
  TempDir dir("roundtrip_" + tag + std::to_string(D));
  const auto pts = BlobPoints<D>(600, 4, 18.0, 0.8, /*seed=*/D * 31 + 7);
  const double epsilon = 1.0;
  const size_t cap = 16;
  auto live = CellIndex<D>::Build(pts, epsilon, cap, options);
  const std::string path = dir.File("index.pdbsnap");
  SaveIndex<D>(path, *live);

  QueryContext<D> live_ctx;
  for (const LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
    const std::string mode_tag =
        tag + (mode == LoadMode::kMapped ? "/mapped" : "/owned");
    auto loaded = LoadIndex<D>(path, mode);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->epsilon(), live->epsilon());
    EXPECT_EQ(loaded->counts_cap(), live->counts_cap());
    EXPECT_EQ(loaded->num_points(), live->num_points());
    EXPECT_EQ(loaded->num_cells(), live->num_cells());
    QueryContext<D> ctx;
    for (const size_t min_pts : {size_t{2}, size_t{8}, size_t{40}}) {
      ExpectIdentical(live_ctx.Run(*live, min_pts), ctx.Run(*loaded, min_pts),
                      mode_tag + " min_pts=" + std::to_string(min_pts));
    }
    const std::vector<size_t> sweep = {2, 5, 12, 33};
    const auto expect = live_ctx.Sweep(*live, std::span<const size_t>(sweep));
    const auto got = ctx.Sweep(*loaded, std::span<const size_t>(sweep));
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < sweep.size(); ++i) {
      ExpectIdentical(expect[i], got[i],
                      mode_tag + " sweep@" + std::to_string(sweep[i]));
    }
    // EnginePool serves a loaded index like any other.
    EnginePool<D> pool(loaded);
    ExpectIdentical(live_ctx.Run(*live, 8), pool.Run(8), mode_tag + " pool");
  }
}

TEST(SnapshotRoundTrip, Exact2d) { CheckRoundTrip<2>(OurExact(), "exact"); }
TEST(SnapshotRoundTrip, Exact3d) { CheckRoundTrip<3>(OurExact(), "exact"); }
TEST(SnapshotRoundTrip, Exact5d) { CheckRoundTrip<5>(OurExact(), "exact"); }
TEST(SnapshotRoundTrip, Approx2d) {
  CheckRoundTrip<2>(OurApprox(0.05), "approx");
}
TEST(SnapshotRoundTrip, Approx3d) {
  CheckRoundTrip<3>(OurApprox(0.05), "approx");
}
TEST(SnapshotRoundTrip, Approx5d) {
  CheckRoundTrip<5>(OurApprox(0.05), "approx");
}
TEST(SnapshotRoundTrip, ExactQuadtree2d) {
  // kQuadtree range counting: trees are rebuilt at load.
  CheckRoundTrip<2>(OurExactQt(), "exact-qt");
}
TEST(SnapshotRoundTrip, ApproxQuadtree3d) {
  CheckRoundTrip<3>(OurApproxQt(0.05), "approx-qt");
}
TEST(SnapshotRoundTrip, Box2d) { CheckRoundTrip<2>(Our2dBoxBcp(), "box"); }
TEST(SnapshotRoundTrip, Usec2d) { CheckRoundTrip<2>(Our2dGridUsec(), "usec"); }

TEST(SnapshotRoundTrip, EmptyIndex) {
  TempDir dir("empty");
  const std::vector<Point<2>> none;
  auto live = CellIndex<2>::Build(none, 1.0, 8);
  const std::string path = dir.File("empty.pdbsnap");
  SaveIndex<2>(path, *live);
  for (const LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
    auto loaded = LoadIndex<2>(path, mode);
    EXPECT_EQ(loaded->num_points(), 0u);
    QueryContext<2> ctx;
    EXPECT_EQ(ctx.Run(*loaded, 3).size(), 0u);
  }
}

TEST(SnapshotRoundTrip, MappedIndexSurvivesFileUnlink) {
  // The index pins the mapping: POSIX keeps mapped pages valid after the
  // directory entry is gone, so serving continues.
  TempDir dir("unlink");
  const auto pts = BlobPoints<2>(400, 3, 15.0, 0.7, 99);
  auto live = CellIndex<2>::Build(pts, 1.0, 16);
  const std::string path = dir.File("index.pdbsnap");
  SaveIndex<2>(path, *live);
  auto loaded = LoadIndex<2>(path, LoadMode::kMapped);
  fs::remove(path);
  QueryContext<2> ctx, live_ctx;
  ExpectIdentical(live_ctx.Run(*live, 6), ctx.Run(*loaded, 6),
                  "post-unlink mapped serve");
}

TEST(SnapshotRoundTrip, PeekReportsHeader) {
  TempDir dir("peek");
  const auto pts = BlobPoints<3>(300, 3, 12.0, 0.6, 5);
  auto live = CellIndex<3>::Build(pts, 1.5, 32, OurApprox(0.02));
  const std::string path = dir.File("index.pdbsnap");
  SaveIndex<3>(path, *live);
  const SnapshotInfo info = PeekSnapshot(path);
  EXPECT_EQ(info.dim, 3);
  EXPECT_EQ(info.num_points, 300u);
  EXPECT_EQ(info.epsilon, 1.5);
  EXPECT_EQ(info.counts_cap, 32u);
  EXPECT_FALSE(info.has_stream_state);
  EXPECT_EQ(info.options.connect_method, ConnectMethod::kApproxQuadtree);
  EXPECT_EQ(info.options.rho, 0.02);
  EXPECT_EQ(info.file_bytes, persist::FileBytes(path));
}

class SnapshotRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("reject");
    const auto pts = BlobPoints<2>(500, 4, 16.0, 0.7, 11);
    auto live = CellIndex<2>::Build(pts, 1.0, 16);
    path_ = dir_->File("index.pdbsnap");
    SaveIndex<2>(path_, *live);
    bytes_ = Slurp(path_);
    ASSERT_GT(bytes_.size(), sizeof(persist::SnapshotHeader));
  }

  void ExpectRejected(const std::string& why) {
    for (const LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
      EXPECT_THROW((void)LoadIndex<2>(path_, mode), PersistError) << why;
    }
  }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotRejection, CorruptedPayloadByte) {
  auto corrupt = bytes_;
  corrupt[sizeof(persist::SnapshotHeader) + 192] ^= 0x40;
  Dump(path_, corrupt);
  ExpectRejected("flipped payload byte");
}

TEST_F(SnapshotRejection, CorruptedHeaderByte) {
  auto corrupt = bytes_;
  corrupt[offsetof(persist::SnapshotHeader, num_points)] ^= 0x01;
  Dump(path_, corrupt);
  ExpectRejected("flipped header byte");
}

TEST_F(SnapshotRejection, TruncatedFile) {
  for (const size_t keep :
       {bytes_.size() - 1, bytes_.size() / 2, sizeof(persist::SnapshotHeader),
        size_t{17}, size_t{0}}) {
    Dump(path_, std::vector<uint8_t>(bytes_.begin(),
                                     bytes_.begin() +
                                         static_cast<ptrdiff_t>(keep)));
    ExpectRejected("truncated to " + std::to_string(keep));
  }
}

TEST_F(SnapshotRejection, TrailingJunk) {
  auto extended = bytes_;
  extended.insert(extended.end(), {1, 2, 3, 4});
  Dump(path_, extended);
  ExpectRejected("trailing junk");
}

TEST_F(SnapshotRejection, VersionMismatch) {
  // A genuinely future version (header checksum recomputed so the version
  // check itself is what fires).
  auto skewed = bytes_;
  persist::SnapshotHeader h;
  std::memcpy(&h, skewed.data(), sizeof(h));
  h.version = persist::kSnapshotVersion + 1;
  h.header_checksum = 0;
  h.header_checksum = persist::Checksum64(&h, sizeof(h));
  std::memcpy(skewed.data(), &h, sizeof(h));
  Dump(path_, skewed);
  try {
    (void)LoadIndex<2>(path_);
    FAIL() << "future version accepted";
  } catch (const PersistError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(SnapshotRejection, DimensionMismatch) {
  EXPECT_THROW((void)LoadIndex<3>(path_), PersistError);
  EXPECT_EQ(PeekSnapshot(path_).dim, 2);  // Peek + dispatch is the remedy.
}

TEST_F(SnapshotRejection, ForeignFile) {
  Dump(path_, std::vector<uint8_t>(4096, 0x5a));
  ExpectRejected("foreign bytes");
  EXPECT_THROW((void)PeekSnapshot(path_), PersistError);
}

// --- Streaming checkpoints and the journal. --------------------------------

template <int D>
std::vector<Point<D>> Batch(size_t n, uint64_t seed) {
  return BlobPoints<D>(n, 3, 14.0, 0.9, seed);
}

TEST(StreamCheckpoint, RestoreContinuesBitIdentically) {
  TempDir dir("restore");
  dbscan::PipelineStats stats;
  DynamicCellIndex<3> live(1.0, 16, Options(), &stats);
  live.ApplyUpdates(Batch<3>(300, 1), {});
  const std::vector<uint64_t> erase = {3, 77, 150};
  live.ApplyUpdates(Batch<3>(100, 2), erase);

  const std::string path = dir.File("ckpt.pdbsnap");
  SnapshotWriter<3>::Write(path, *live.snapshot(), live.LiveIds(),
                           live.next_id(), /*journal_generation=*/5);

  for (const LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
    auto loaded = SnapshotReader<3>::Load(path, mode);
    ASSERT_TRUE(loaded.has_stream_state);
    EXPECT_EQ(loaded.next_id, live.next_id());
    EXPECT_EQ(loaded.journal_generation, 5u);
    EXPECT_EQ(loaded.live_ids, live.LiveIds());
    DynamicCellIndex<3> restored(loaded.index,
                                 std::span<const uint64_t>(loaded.live_ids),
                                 loaded.next_id);
    QueryContext<3> ca, cb;
    ExpectIdentical(ca.Run(*live.snapshot(), 6),
                    cb.Run(*restored.snapshot(), 6), "restored snapshot");
    // The restored writer must evolve exactly like the uninterrupted one.
    DynamicCellIndex<3> reference(1.0, 16);
    reference.ApplyUpdates(Batch<3>(300, 1), {});
    reference.ApplyUpdates(Batch<3>(100, 2), erase);
    const std::vector<uint64_t> erase2 = {200, 201, 399};
    reference.ApplyUpdates(Batch<3>(80, 9), erase2);
    restored.ApplyUpdates(Batch<3>(80, 9), erase2);
    EXPECT_EQ(restored.LiveIds(), reference.LiveIds());
    ExpectIdentical(ca.Run(*reference.snapshot(), 6),
                    cb.Run(*restored.snapshot(), 6),
                    "restored writer after further updates");
  }
}

TEST(StreamCheckpoint, RestoreRejectsNonStreamingSnapshots) {
  // A CellIndex::Build snapshot is anchored at the dataset bounds, not the
  // origin — restoring streaming state from it must fail loudly.
  TempDir dir("restore_reject");
  const auto pts = BlobPoints<2>(200, 3, 9.0, 0.5, 3);
  auto built = CellIndex<2>::Build(pts, 1.0, 16);
  std::vector<uint64_t> fake_ids(pts.size());
  for (size_t i = 0; i < fake_ids.size(); ++i) fake_ids[i] = i;
  EXPECT_THROW(DynamicCellIndex<2>(built,
                                   std::span<const uint64_t>(fake_ids),
                                   fake_ids.size()),
               std::invalid_argument);
}

TEST(Journal, ReplayEqualsUninterruptedRun) {
  TempDir dir("replay");
  const std::string jpath = dir.File("updates.pdbjnl");
  Options options;  // Grid + kScan.
  dbscan::PipelineStats stats;
  UpdateJournal<2> journal(jpath, 0.8, 16, options, /*generation=*/0,
                           FsyncPolicy::kEveryBatch, &stats);
  DynamicCellIndex<2> live(0.8, 16, options);
  live.set_journal(&journal);
  std::mt19937_64 rng(42);
  std::vector<uint64_t> alive;
  for (int b = 0; b < 6; ++b) {
    const auto inserts = Batch<2>(60 + 10 * b, 100 + b);
    std::vector<uint64_t> erases;
    for (const uint64_t id : alive) {
      if (rng() % 5 == 0) erases.push_back(id);
    }
    const uint64_t first = live.ApplyUpdates(inserts, erases);
    for (const uint64_t id : erases) {
      alive.erase(std::find(alive.begin(), alive.end(), id));
    }
    for (size_t k = 0; k < inserts.size(); ++k) alive.push_back(first + k);
  }

  // Recovery: an empty writer + full journal replay.
  const auto scan = UpdateJournal<2>::Scan(jpath, &stats);
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(scan.records.size(), 6u);
  UpdateJournal<2>::RequireMatch(jpath, scan, 0.8, 16, options);
  DynamicCellIndex<2> recovered(0.8, 16, options);
  for (const auto& rec : scan.records) {
    const uint64_t first = recovered.ApplyUpdates(
        std::span<const Point<2>>(rec.inserts),
        std::span<const uint64_t>(rec.erases));
    EXPECT_EQ(first, rec.first_id);
  }
  EXPECT_EQ(recovered.LiveIds(), live.LiveIds());
  QueryContext<2> ca, cb;
  for (const size_t min_pts : {size_t{2}, size_t{6}, size_t{25}}) {
    ExpectIdentical(ca.Run(*live.snapshot(), min_pts),
                    cb.Run(*recovered.snapshot(), min_pts),
                    "journal replay min_pts=" + std::to_string(min_pts));
  }
}

TEST(Journal, TornTailToleratedMidCorruptionRejected) {
  TempDir dir("torn");
  const std::string jpath = dir.File("updates.pdbjnl");
  Options options;
  {
    UpdateJournal<2> journal(jpath, 1.0, 8, options);
    DynamicCellIndex<2> live(1.0, 8, options);
    live.set_journal(&journal);
    for (int b = 0; b < 3; ++b) live.ApplyUpdates(Batch<2>(50, b), {});
  }
  const auto full = Slurp(jpath);

  // Torn tail: drop the last 11 bytes — the final record is incomplete,
  // the first two replay.
  Dump(jpath, std::vector<uint8_t>(full.begin(), full.end() - 11));
  auto scan = UpdateJournal<2>::Scan(jpath);
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(scan.records.size(), 2u);

  // Re-opening for append truncates the torn tail and keeps going.
  {
    UpdateJournal<2> journal(jpath, 1.0, 8, options);
    DynamicCellIndex<2> live(1.0, 8, options);
    live.set_journal(&journal);
    live.ApplyUpdates(Batch<2>(20, 77), {});
  }
  scan = UpdateJournal<2>::Scan(jpath);
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.records.size(), 3u);

  // Mid-file corruption (a byte inside the FIRST record, with records
  // after it) must throw, not silently truncate.
  auto corrupt = full;
  corrupt[sizeof(persist::JournalHeader) + sizeof(persist::JournalRecordHeader) +
          5] ^= 0x80;
  Dump(jpath, corrupt);
  EXPECT_THROW((void)UpdateJournal<2>::Scan(jpath), PersistError);
}

TEST(Journal, ConfigMismatchRejected) {
  TempDir dir("mismatch");
  const std::string jpath = dir.File("updates.pdbjnl");
  Options options;
  UpdateJournal<2> journal(jpath, 1.0, 8, options);
  const auto scan = UpdateJournal<2>::Scan(jpath);
  EXPECT_THROW(UpdateJournal<2>::RequireMatch(jpath, scan, 2.0, 8, options),
               PersistError);
  EXPECT_THROW(UpdateJournal<2>::RequireMatch(jpath, scan, 1.0, 9, options),
               PersistError);
  Options core = options;
  core.core_only = true;
  EXPECT_THROW(UpdateJournal<2>::RequireMatch(jpath, scan, 1.0, 8, core),
               PersistError);
  // And a dimension-skewed reader never gets that far.
  EXPECT_THROW((void)UpdateJournal<3>::Scan(jpath), PersistError);
}

// --- Durable live datasets: WriterNode recovery, ReplicaNode cold start. ----

// A writer that only checkpoints when told to — the durable single-process
// live dataset.
net::WriterOptions ManualCheckpoints() {
  net::WriterOptions wopts;
  wopts.checkpoint_every = 0;
  return wopts;
}

template <typename Target>
void Feed(Target& target, int b) {
  const auto inserts = Batch<2>(70 + 5 * b, 1000 + b);
  std::vector<uint64_t> erases;
  if (b >= 2) {
    erases = {static_cast<uint64_t>(3 * b), static_cast<uint64_t>(3 * b + 1)};
  }
  target.ApplyUpdates(std::span<const Point<2>>(inserts),
                      std::span<const uint64_t>(erases));
}

TEST(DurableRecovery, RecoveryMatchesUninterruptedRun) {
  TempDir dir("recover");
  const double eps = 0.9;
  const size_t cap = 16;
  StreamingClusterer<2> reference(eps, cap);  // The uninterrupted run.
  {
    WriterNode<2> live(dir.str(), eps, cap, Options(), ManualCheckpoints());
    for (int b = 0; b < 3; ++b) {
      Feed(live, b);
      Feed(reference, b);
    }
    live.Checkpoint();
    for (int b = 3; b < 6; ++b) {
      Feed(live, b);
      Feed(reference, b);
    }
    // `live` dies here without another checkpoint — the "crash".
  }
  auto expect_served = [&](EnginePool<2>& pool, const std::string& what) {
    for (const size_t min_pts : {size_t{3}, size_t{8}, size_t{30}}) {
      ExpectIdentical(reference.Run(min_pts), pool.Run(min_pts),
                      what + " min_pts=" + std::to_string(min_pts));
    }
  };

  {
    dbscan::PipelineStats stats;
    WriterNode<2> recovered(dir.str(), eps, cap, Options(),
                            ManualCheckpoints(), &stats);
    EXPECT_EQ(recovered.seq(), 6u);
    EXPECT_EQ(stats.journal_records_replayed.load(), 3u);
    EXPECT_EQ(recovered.index().LiveIds(), reference.LiveIds());
    expect_served(recovered.pool(), "writer recovery");
  }
  for (const LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
    const std::string tag =
        mode == LoadMode::kMapped ? "mapped replica" : "owned replica";
    dbscan::PipelineStats stats;
    net::ReplicaOptions ropts;
    ropts.load_mode = mode;
    ReplicaNode<2> replica(dir.str(), eps, cap, Options(), ropts, &stats);
    EXPECT_EQ(replica.applied_seq(), 6u) << tag;
    EXPECT_EQ(stats.journal_records_replayed.load(), 3u) << tag;
    expect_served(replica.pool(), tag);
  }

  // Recovery is repeatable AND the recovered writer keeps evolving
  // bit-identically (checkpoint, more updates, recover again).
  {
    WriterNode<2> recovered(dir.str(), eps, cap, Options(),
                            ManualCheckpoints());
    recovered.Checkpoint();
    Feed(recovered, 6);
    Feed(reference, 6);
    ExpectIdentical(reference.Run(5), recovered.pool().Run(5),
                    "post-checkpoint");
  }
  dbscan::PipelineStats stats;
  WriterNode<2> again(dir.str(), eps, cap, Options(), ManualCheckpoints(),
                      &stats);
  // Records 1..6 are still in the segment but covered by checkpoint-6.
  EXPECT_EQ(stats.journal_records_replayed.load(), 1u);
  EXPECT_EQ(again.index().LiveIds(), reference.LiveIds());
  ExpectIdentical(reference.Run(5), again.pool().Run(5), "second recovery");
}

TEST(DurableRecovery, ReplayCounterTicksPerAppliedRecord) {
  TempDir dir("replay_counter");
  WriterNode<2> writer(dir.str(), 1.0, 8, Options(), ManualCheckpoints());
  for (int b = 0; b < 2; ++b) Feed(writer, b);
  writer.Checkpoint();
  for (int b = 2; b < 5; ++b) Feed(writer, b);

  dbscan::PipelineStats stats;
  ReplicaNode<2> replica(dir.str(), 1.0, 8, Options(), net::ReplicaOptions(),
                         &stats);
  EXPECT_EQ(replica.applied_seq(), 5u);
  EXPECT_EQ(stats.journal_records_replayed.load(), 3u);
  EXPECT_EQ(replica.TailOnce(), 0u);  // Nothing new: nothing counted.
  EXPECT_EQ(stats.journal_records_replayed.load(), 3u);
  for (int b = 5; b < 7; ++b) Feed(writer, b);
  EXPECT_EQ(replica.TailOnce(), 2u);
  EXPECT_EQ(stats.journal_records_replayed.load(), 5u);
  ExpectIdentical(writer.pool().Run(4), replica.pool().Run(4), "tailed");
}

TEST(DurableRecovery, CheckpointWithoutPruneIsNotDoubleApplied) {
  // Crash after a checkpoint is written but before the prune: the journal
  // still holds every record the checkpoint covers. Recovery must skip
  // them, not apply them a second time.
  TempDir dir("unpruned");
  StreamingClusterer<2> reference(1.0, 8);
  {
    WriterNode<2> live(dir.str(), 1.0, 8, Options(), ManualCheckpoints());
    const auto batch = Batch<2>(120, 5);
    live.ApplyUpdates(batch, {});
    reference.Insert(batch);
    // The checkpoint's first step only:
    SnapshotWriter<2>::Write(dir.File(net::CheckpointName(live.seq())),
                             *live.index().snapshot(), live.index().LiveIds(),
                             live.index().next_id(),
                             /*journal_generation=*/live.seq());
  }
  ASSERT_EQ(persist::UpdateJournal<2>::Scan(dir.File("journal-0.pdbjnl"))
                .records.size(),
            1u);
  dbscan::PipelineStats stats;
  WriterNode<2> recovered(dir.str(), 1.0, 8, Options(), ManualCheckpoints(),
                          &stats);
  EXPECT_EQ(recovered.seq(), 1u);
  EXPECT_EQ(stats.journal_records_replayed.load(), 0u);  // Not re-applied.
  EXPECT_EQ(recovered.index().LiveIds(), reference.LiveIds());
  ExpectIdentical(reference.Run(4), recovered.pool().Run(4), "unpruned");
  ReplicaNode<2> replica(dir.str(), 1.0, 8, Options(), net::ReplicaOptions(),
                         &stats);
  EXPECT_EQ(replica.applied_seq(), 1u);
  EXPECT_EQ(stats.journal_records_replayed.load(), 0u);
  ExpectIdentical(reference.Run(4), replica.pool().Run(4), "unpruned replica");
}

TEST(DurableRecovery, TornSegmentHeaderIsReinitialized) {
  // A crash between creating the next segment on rotation and making its
  // header durable leaves a short newest segment. It holds no records, so
  // recovery stops there and the writer reinitializes it instead of
  // failing every restart.
  TempDir dir("torn_segment");
  net::WriterOptions wopts = ManualCheckpoints();
  wopts.rotate_bytes = 512;  // Every 60-point batch rotates.
  uint64_t seq_before = 0;
  {
    WriterNode<2> live(dir.str(), 1.0, 8, Options(), wopts);
    for (int b = 0; b < 3; ++b) live.ApplyUpdates(Batch<2>(60, 20 + b), {});
    seq_before = live.seq();
  }
  const auto segments = persist::ListJournalSegments(dir.str());
  ASSERT_GE(segments.size(), 2u);
  ASSERT_EQ(segments.back().start_seq, seq_before);
  Dump(segments.back().path, {});

  {
    ReplicaNode<2> replica(dir.str(), 1.0, 8);
    EXPECT_EQ(replica.applied_seq(), seq_before);
  }
  {
    dbscan::PipelineStats stats;
    WriterNode<2> recovered(dir.str(), 1.0, 8, Options(), wopts, &stats);
    EXPECT_EQ(recovered.seq(), seq_before);
    EXPECT_EQ(stats.journal_records_replayed.load(), seq_before);
    EXPECT_EQ(recovered.index().num_points(), 180u);
    recovered.ApplyUpdates(Batch<2>(10, 30), {});  // The log is usable.
  }
  dbscan::PipelineStats stats;
  WriterNode<2> again(dir.str(), 1.0, 8, Options(), wopts, &stats);
  EXPECT_EQ(again.seq(), seq_before + 1);
  EXPECT_EQ(stats.journal_records_replayed.load(), seq_before + 1);
  EXPECT_EQ(again.index().num_points(), 190u);
}

TEST(DurableRecovery, ConfigMismatchRejected) {
  // A directory written at L1, with a checkpoint and records past it.
  Options l1;
  l1.metric = Metric::kL1;
  TempDir dir("config");
  {
    WriterNode<2> live(dir.str(), 1.0, 8, l1, ManualCheckpoints());
    live.ApplyUpdates(Batch<2>(50, 1), {});
    live.Checkpoint();
    live.ApplyUpdates(Batch<2>(50, 2), {});
  }
  auto expect_rejected = [](const std::string& path, double eps, size_t cap,
                            const Options& options, const std::string& what) {
    EXPECT_THROW(WriterNode<2>(path, eps, cap, options, ManualCheckpoints()),
                 PersistError)
        << "writer, " << what;
    EXPECT_THROW(ReplicaNode<2>(path, eps, cap, options), PersistError)
        << "replica, " << what;
  };
  expect_rejected(dir.str(), 1.0, 8, Options(), "metric");
  expect_rejected(dir.str(), 2.0, 8, l1, "epsilon");
  expect_rejected(dir.str(), 1.0, 16, l1, "counts_cap");
  // The matching configuration still opens.
  WriterNode<2> ok(dir.str(), 1.0, 8, l1, ManualCheckpoints());
  EXPECT_EQ(ok.seq(), 2u);

  // Checkpoint only (no segment to catch it): the checkpoint check alone.
  TempDir ckpt_only("config_ckpt_only");
  fs::copy_file(dir.File(net::CheckpointName(1)),
                ckpt_only.File(net::CheckpointName(1)));
  expect_rejected(ckpt_only.str(), 2.0, 8, l1, "epsilon, checkpoint only");
  expect_rejected(ckpt_only.str(), 1.0, 8, Options(),
                  "metric, checkpoint only");

  // Journal only (no checkpoint): the journal header check alone.
  TempDir journal_only("config_journal_only");
  {
    WriterNode<2> live(journal_only.str(), 1.0, 8, l1, ManualCheckpoints());
    live.ApplyUpdates(Batch<2>(50, 3), {});
  }
  EXPECT_THROW(WriterNode<2>(journal_only.str(), 1.0, 8, Options(),
                             ManualCheckpoints()),
               PersistError);
  // A replica treats the unreadable tail as transient and applies nothing.
  ReplicaNode<2> replica(journal_only.str(), 1.0, 8, Options());
  EXPECT_EQ(replica.applied_seq(), 0u);
}

// --- Stats plumbing. --------------------------------------------------------

TEST(PersistStats, BytesAndLoadSecondsAreCounted) {
  TempDir dir("stats");
  const auto pts = BlobPoints<2>(300, 3, 12.0, 0.6, 8);
  auto live = CellIndex<2>::Build(pts, 1.0, 8);
  const std::string path = dir.File("index.pdbsnap");
  dbscan::PipelineStats stats;
  SaveIndex<2>(path, *live, &stats);
  const uint64_t file_bytes = persist::FileBytes(path);
  EXPECT_EQ(stats.snapshot_bytes_written.load(), file_bytes);
  (void)LoadIndex<2>(path, LoadMode::kMapped, &stats);
  EXPECT_EQ(stats.snapshot_bytes_read.load(), file_bytes);
  EXPECT_GT(stats.snapshot_load_seconds.load(), 0.0);
}

// --- Journal segments (the replication log of net/replication.h). -----------

TEST(JournalSegments, ListingFiltersForeignFilesAndSorts) {
  TempDir dir("seglist");
  for (const char* name :
       {"journal-10.pdbjnl", "journal-2.pdbjnl", "journal-0.pdbjnl"}) {
    Dump(dir.File(name), {});
  }
  // Foreign and malformed names must be ignored.
  for (const char* name :
       {"checkpoint-3.pdbsnap", "journal-.pdbjnl", "journal-x7.pdbjnl",
        "journal-5.pdbjnl.tmp", "notes.txt"}) {
    Dump(dir.File(name), {});
  }
  const auto segments = persist::ListJournalSegments(dir.str());
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].start_seq, 0u);
  EXPECT_EQ(segments[1].start_seq, 2u);
  EXPECT_EQ(segments[2].start_seq, 10u);
  EXPECT_TRUE(persist::ListJournalSegments(dir.File("missing")).empty());
}

TEST(JournalSegments, ListSegmentsSinceKeepsTheCoveringSegment) {
  TempDir dir("segsince");
  for (const char* name :
       {"journal-0.pdbjnl", "journal-5.pdbjnl", "journal-9.pdbjnl"}) {
    Dump(dir.File(name), {});
  }
  auto starts = [&](uint64_t seq) {
    std::vector<uint64_t> out;
    for (const auto& s : persist::ListSegmentsSince(dir.str(), seq)) {
      out.push_back(s.start_seq);
    }
    return out;
  };
  // A reader at seq 4 still needs journal-0 (it holds records 1..5).
  EXPECT_EQ(starts(4), (std::vector<uint64_t>{0, 5, 9}));
  // At seq 5 the covering segment is journal-5.
  EXPECT_EQ(starts(5), (std::vector<uint64_t>{5, 9}));
  EXPECT_EQ(starts(7), (std::vector<uint64_t>{5, 9}));
  // Far ahead: only the newest segment remains relevant.
  EXPECT_EQ(starts(100), (std::vector<uint64_t>{9}));
}

TEST(JournalSegments, PruneCoversOldSegmentsNeverTheNewest) {
  TempDir dir("segprune");
  for (const char* name :
       {"journal-0.pdbjnl", "journal-3.pdbjnl", "journal-6.pdbjnl"}) {
    Dump(dir.File(name), {});
  }
  // A checkpoint at seq 3 fully covers journal-0 (records 1..3) only.
  EXPECT_EQ(persist::PruneSegmentsBefore(dir.str(), 3), 1u);
  auto segments = persist::ListJournalSegments(dir.str());
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments.front().start_seq, 3u);
  // Even a checkpoint past everything keeps the active tail.
  EXPECT_EQ(persist::PruneSegmentsBefore(dir.str(), 100), 1u);
  segments = persist::ListJournalSegments(dir.str());
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments.front().start_seq, 6u);
}

TEST(JournalSegments, RotationProducesAReplayableChain) {
  TempDir dir("segrotate");
  Options options;
  persist::SegmentedJournal<2> journal(dir.str(), 0.8, 16, options,
                                       /*seq=*/0, /*active_start=*/0,
                                       /*rotate_bytes=*/512);
  DynamicCellIndex<2> live(0.8, 16, options);
  live.set_journal(journal.current());
  for (int b = 0; b < 6; ++b) {
    live.ApplyUpdates(Batch<2>(60, 700 + b), {});
    if (journal.OnBatchApplied()) live.set_journal(journal.current());
  }
  EXPECT_EQ(journal.seq(), 6u);

  // Several segments, each whose header generation matches its file name.
  const auto segments = persist::ListJournalSegments(dir.str());
  ASSERT_GT(segments.size(), 1u);
  size_t total_records = 0;
  for (const auto& seg : segments) {
    const auto scan = UpdateJournal<2>::Scan(seg.path);
    EXPECT_EQ(scan.generation, seg.start_seq) << seg.path;
    EXPECT_FALSE(scan.truncated_tail) << seg.path;
    total_records += scan.records.size();
  }
  EXPECT_EQ(total_records, 6u);

  // Replaying the chain in order reproduces the writer's state exactly.
  DynamicCellIndex<2> recovered(0.8, 16, options);
  for (const auto& seg : segments) {
    const auto scan = UpdateJournal<2>::Scan(seg.path);
    UpdateJournal<2>::RequireMatch(seg.path, scan, 0.8, 16, options);
    for (const auto& rec : scan.records) {
      EXPECT_EQ(recovered.ApplyUpdates(
                    std::span<const Point<2>>(rec.inserts),
                    std::span<const uint64_t>(rec.erases)),
                rec.first_id);
    }
  }
  EXPECT_EQ(recovered.LiveIds(), live.LiveIds());
  QueryContext<2> ca, cb;
  ExpectIdentical(ca.Run(*live.snapshot(), 4), cb.Run(*recovered.snapshot(), 4),
                  "segment chain replay");
}

TEST(JournalSegments, ReopenResumesTheActiveSegment) {
  TempDir dir("segreopen");
  Options options;
  std::vector<uint64_t> live_ids;
  {
    persist::SegmentedJournal<2> journal(dir.str(), 0.8, 16, options, 0, 0,
                                         /*rotate_bytes=*/512);
    DynamicCellIndex<2> live(0.8, 16, options);
    live.set_journal(journal.current());
    for (int b = 0; b < 3; ++b) {
      live.ApplyUpdates(Batch<2>(60, 800 + b), {});
      if (journal.OnBatchApplied()) live.set_journal(journal.current());
    }
    live_ids = live.LiveIds();
  }
  // A new process resumes: seq from its recovery, active segment = last on
  // disk. Appends continue the same chain.
  const auto before = persist::ListJournalSegments(dir.str());
  ASSERT_FALSE(before.empty());
  persist::SegmentedJournal<2> journal(dir.str(), 0.8, 16, options,
                                       /*seq=*/3,
                                       before.back().start_seq,
                                       /*rotate_bytes=*/512);
  DynamicCellIndex<2> live(0.8, 16, options);
  // Rebuild the writer state by replay, then keep appending.
  for (const auto& seg : persist::ListJournalSegments(dir.str())) {
    const auto scan = UpdateJournal<2>::Scan(seg.path);
    for (const auto& rec : scan.records) {
      live.ApplyUpdates(std::span<const Point<2>>(rec.inserts),
                        std::span<const uint64_t>(rec.erases));
    }
  }
  ASSERT_EQ(live.LiveIds(), live_ids);
  live.set_journal(journal.current());
  live.ApplyUpdates(Batch<2>(60, 803), {});
  journal.OnBatchApplied();
  EXPECT_EQ(journal.seq(), 4u);
  size_t total_records = 0;
  for (const auto& seg : persist::ListJournalSegments(dir.str())) {
    total_records += UpdateJournal<2>::Scan(seg.path).records.size();
  }
  EXPECT_EQ(total_records, 4u);
}

// SegmentedJournal refuses an active segment ahead of the sequence — that
// would fabricate history.
TEST(JournalSegments, ActiveStartAheadOfSequenceRejected) {
  TempDir dir("segbad");
  Options options;
  EXPECT_THROW(persist::SegmentedJournal<2>(dir.str(), 0.8, 16, options,
                                            /*seq=*/2, /*active_start=*/5,
                                            512),
               persist::PersistError);
}

}  // namespace
}  // namespace pdbscan
