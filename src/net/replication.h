// Snapshot-shipping replication: one writer, N replicas, a shared
// directory as the transport.
//
//   writer                                shared dir                 replica
//   ──────                                ──────────                 ───────
//   ApplyUpdates ──WAL──► journal-<s>.pdbjnl  ──────── tail ───────► replay
//        │                journal-<s'>.pdbjnl (rotated)                │
//        └─ every checkpoint_every batches:                            │
//           checkpoint-<k>.pdbsnap  ◄──────── cold start (mmap) ───────┘
//           (+ prune: old checkpoints, fully-covered segments)
//
// SEQUENCE NUMBERS are the shared clock: seq = number of update batches
// applied since the dataset was born. Checkpoint files are named by the
// seq they capture; journal segments by the seq before their first record.
// A node at sequence s serves pool generation s + 1 — the same numbering a
// local StreamingClusterer would report (empty = generation 1) — via
// EnginePool's explicit-generation surface. That is what makes the
// cross-replica identity contract meaningful: "generation G" names one
// specific point set on EVERY node, so labels for (G, eps, min_pts) are
// bit-identical wherever they were computed (per-process bit-identity is
// already guaranteed by the engine).
//
// Recovery is one path for both node kinds: LoadNewestCheckpoint
// restores the newest checkpoint-<k>.pdbsnap into a DynamicCellIndex, and
// ReplaySegments applies the journal records past k. A WriterNode runs it
// once at construction (owned load; a gap is data loss and throws); a
// ReplicaNode runs it as cold start + tail:
//   1. Cold start: the checkpoint (mmap by default).
//   2. Tail: ListSegmentsSince(k) → replay records k+1, k+2, ... Each
//      applied batch republishes the snapshot at its generation.
//   3. Stale-generation window: if the writer checkpointed and PRUNED
//      between the replica choosing checkpoint k and listing segments,
//      the list starts past k — the records in between are gone. The
//      replica detects the gap and re-cold-starts from the (newer)
//      checkpoint. ReplicaOptions::on_cold_start_loaded widens this
//      window deterministically for tests.
//
// A durable single-process live dataset is just a WriterNode with
// checkpoint_every = 0 and manual Checkpoint() calls; nothing needs to
// tail it.
//
// Crash safety: checkpoints are temp+rename (SnapshotWriter), segment
// appends are WAL-before-mutate with torn tails truncated on scan, and a
// newest segment with a torn header is reinitialized — all inherited from
// persist/. A replica killed at ANY instant holds no locks and wrote
// nothing; restart is just cold start + tail (fault-injection tests in
// tests/test_net.cpp kill -9 mid-tail and assert reconvergence).
//
// Threading contract: WriterNode::ApplyUpdates from one thread at a time;
// ReplicaNode tails on its own thread (StartTailing) or the caller's
// (TailOnce). pool() on either node is fully thread-safe — that is the
// serving surface.
#ifndef PDBSCAN_NET_REPLICATION_H_
#define PDBSCAN_NET_REPLICATION_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "parallel/engine_pool.h"
#include "persist/format.h"
#include "persist/io.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "streaming/dynamic_cell_index.h"
#include "telemetry/trace.h"

namespace pdbscan::net {

// One checkpoint file in the shared directory. `seq` is the number of
// batches the snapshot captures (its journal_generation field).
struct CheckpointFile {
  std::string path;
  uint64_t seq = 0;
};

inline std::string CheckpointName(uint64_t seq) {
  return "checkpoint-" + std::to_string(seq) + ".pdbsnap";
}

// All checkpoints in `dir`, sorted by seq ascending. Temp files (the
// AtomicFileWriter suffix) and foreign names are ignored.
inline std::vector<CheckpointFile> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointFile> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 19 || name.compare(0, 11, "checkpoint-") != 0 ||
        name.compare(name.size() - 8, 8, ".pdbsnap") != 0) {
      continue;
    }
    const std::string digits = name.substr(11, name.size() - 19);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(CheckpointFile{entry.path().string(), std::stoull(digits)});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.seq < b.seq;
            });
  return out;
}

// The newest checkpoint in `dir` restored into a DynamicCellIndex, plus
// the sequence it captures; an empty dataset at sequence 0 when the
// directory has none. The checkpoint must carry stream state and exactly
// the caller's (epsilon, counts_cap, options) — a mismatch throws
// PersistError rather than serving a silently different clustering.
template <int D>
struct RestoredCheckpoint {
  std::unique_ptr<streaming::DynamicCellIndex<D>> index;
  uint64_t seq = 0;
};

template <int D>
RestoredCheckpoint<D> LoadNewestCheckpoint(const std::string& dir,
                                           double epsilon, size_t counts_cap,
                                           const Options& options,
                                           persist::LoadMode mode,
                                           dbscan::PipelineStats* stats) {
  const std::vector<CheckpointFile> checkpoints = ListCheckpoints(dir);
  if (checkpoints.empty()) {
    return {std::make_unique<streaming::DynamicCellIndex<D>>(
                epsilon, counts_cap, options, stats),
            0};
  }
  const CheckpointFile& cp = checkpoints.back();
  persist::LoadedSnapshot<D> loaded =
      persist::SnapshotReader<D>::Load(cp.path, mode, stats);
  if (!loaded.has_stream_state || loaded.journal_generation != cp.seq) {
    throw persist::PersistError(
        cp.path + ": not a streaming checkpoint of sequence " +
        std::to_string(cp.seq));
  }
  if (loaded.index->epsilon() != epsilon ||
      loaded.index->counts_cap() != counts_cap ||
      !(loaded.index->options() == options)) {
    throw persist::PersistError(
        cp.path + ": checkpoint configuration does not match this node "
                  "(epsilon / counts_cap / options)");
  }
  return {std::make_unique<streaming::DynamicCellIndex<D>>(
              std::move(loaded.index),
              std::span<const uint64_t>(loaded.live_ids), loaded.next_id,
              stats),
          cp.seq};
}

// Replays onto `index` every record of `segments` (a ListSegmentsSince
// result) past sequence `seq`, advancing `seq` and calling `on_record`
// (when set) after each applied record; `stats` (non-null) counts one
// journal_records_replayed per applied record. A final segment shorter
// than one header holds no records yet (a writer mid-create, or a crash
// before its header was durable) and ends the replay. Returns false at a
// gap — a segment that starts past `seq`, i.e. the records in between
// were pruned under a newer checkpoint or lost — with `seq` at the last
// record applied.
template <int D>
[[nodiscard]] bool ReplaySegments(
    const std::vector<persist::JournalSegment>& segments, uint64_t& seq,
    streaming::DynamicCellIndex<D>& index, double epsilon, size_t counts_cap,
    const Options& options, dbscan::PipelineStats* stats,
    const std::function<void(uint64_t seq)>& on_record = nullptr) {
  telemetry::TraceSpan replay_span("journal_replay");
  for (size_t i = 0; i < segments.size(); ++i) {
    const persist::JournalSegment& seg = segments[i];
    if (seg.start_seq > seq) return false;
    if (i + 1 == segments.size() &&
        persist::FileBytes(seg.path) < sizeof(persist::JournalHeader)) {
      break;
    }
    const auto scan = persist::UpdateJournal<D>::Scan(seg.path, stats);
    persist::UpdateJournal<D>::RequireMatch(seg.path, scan, epsilon,
                                            counts_cap, options);
    if (scan.generation != seg.start_seq) {
      throw persist::PersistError(seg.path + ": segment generation " +
                                  std::to_string(scan.generation) +
                                  " does not match its file name");
    }
    uint64_t record_seq = seg.start_seq;
    for (const persist::JournalRecord<D>& rec : scan.records) {
      if (++record_seq <= seq) continue;  // Covered by the checkpoint.
      const uint64_t first_id = index.ApplyUpdates(
          std::span<const geometry::Point<D>>(rec.inserts),
          std::span<const uint64_t>(rec.erases));
      if (first_id != rec.first_id) {
        throw persist::PersistError(
            seg.path + ": journal ids do not align with the checkpoint");
      }
      seq = record_seq;
      stats->journal_records_replayed.fetch_add(1,
                                                std::memory_order_relaxed);
      if (on_record) on_record(seq);
    }
  }
  return true;
}

struct WriterOptions {
  // Rotate the active journal segment once it exceeds this size.
  uint64_t rotate_bytes = 1ull << 20;
  // Checkpoint (and prune) every N applied batches; 0 = manual only.
  uint64_t checkpoint_every = 64;
  // Checkpoints retained after a prune. Must be >= 1. Keeping 2 means a
  // replica that already CHOSE the previous checkpoint usually still finds
  // it; the stale window only opens when a replica falls a full prune
  // cycle behind.
  size_t keep_checkpoints = 2;
  persist::FsyncPolicy journal_fsync = persist::FsyncPolicy::kNone;
  // Invoked after every completed checkpoint (auto-cadence and manual) with
  // the sequence it captured and the writer's running checkpoint count —
  // the fleet-logging hook pdbscan_server wires to stderr. Runs on the
  // ApplyUpdates/Checkpoint caller thread; keep it cheap.
  std::function<void(uint64_t seq, uint64_t checkpoints_taken)> on_checkpoint;
};

// The single writer: owns the dataset, the journal segments, and the
// checkpoint cadence. Recovers its own state from the shared directory on
// construction (latest checkpoint + segment replay), so a writer crash is
// survivable with the same machinery replicas use.
template <int D>
class WriterNode {
 public:
  WriterNode(const std::string& dir, double epsilon, size_t counts_cap,
             Options options = Options(),
             WriterOptions writer_options = WriterOptions(),
             dbscan::PipelineStats* stats = nullptr)
      : dir_(dir),
        epsilon_(epsilon),
        counts_cap_(counts_cap),
        options_(std::move(options)),
        writer_options_(writer_options),
        stats_(stats != nullptr ? stats : &dbscan::GlobalStats()) {
    if (writer_options_.keep_checkpoints == 0) {
      throw persist::PersistError("keep_checkpoints must be >= 1");
    }
    std::filesystem::create_directories(dir_);

    // Base state: newest checkpoint, then every segment past it. A writer
    // must find its whole suffix — a gap here is data loss, not a stale
    // window.
    RestoredCheckpoint<D> base = LoadNewestCheckpoint<D>(
        dir_, epsilon_, counts_cap_, options_, persist::LoadMode::kOwned,
        stats_);
    index_ = std::move(base.index);
    uint64_t seq = base.seq;
    const auto segments = persist::ListSegmentsSince(dir_, seq);
    if (!ReplaySegments<D>(segments, seq, *index_, epsilon_, counts_cap_,
                           options_, stats_)) {
      throw persist::PersistError(
          dir_ + ": journal gap — records after sequence " +
          std::to_string(seq) + " are missing");
    }
    const uint64_t active_start =
        segments.empty() ? seq : segments.back().start_seq;

    journal_ = std::make_unique<persist::SegmentedJournal<D>>(
        dir_, epsilon_, counts_cap_, options_, seq, active_start,
        writer_options_.rotate_bytes, writer_options_.journal_fsync, stats_);
    index_->set_journal(journal_->current());
    pool_ = std::make_unique<parallel::EnginePool<D>>(index_->snapshot(),
                                                      seq + 1);
  }

  WriterNode(const WriterNode&) = delete;
  WriterNode& operator=(const WriterNode&) = delete;

  // Journals, applies and publishes one batch; returns the id of
  // inserts[0]. Checkpoints (and prunes) on the configured cadence.
  uint64_t ApplyUpdates(std::span<const geometry::Point<D>> inserts,
                        std::span<const uint64_t> erases) {
    const uint64_t first_id = index_->ApplyUpdates(inserts, erases);
    if (journal_->OnBatchApplied()) {
      index_->set_journal(journal_->current());
    }
    pool_->ReplaceIndex(index_->snapshot(), journal_->seq() + 1);
    if (writer_options_.checkpoint_every != 0 &&
        journal_->seq() % writer_options_.checkpoint_every == 0) {
      Checkpoint();
    }
    return first_id;
  }

  // Ships a checkpoint of the current state and prunes: checkpoints beyond
  // keep_checkpoints, then every segment fully covered by the OLDEST
  // retained checkpoint (replicas older than that must re-cold-start —
  // the stale-generation window the tests exercise).
  void Checkpoint() {
    const uint64_t seq = journal_->seq();
    persist::SnapshotWriter<D>::Write(dir_ + "/" + CheckpointName(seq),
                                      *index_->snapshot(), index_->LiveIds(),
                                      index_->next_id(),
                                      /*journal_generation=*/seq, stats_);
    std::vector<CheckpointFile> checkpoints = ListCheckpoints(dir_);
    while (checkpoints.size() > writer_options_.keep_checkpoints) {
      std::error_code ec;
      std::filesystem::remove(checkpoints.front().path, ec);
      checkpoints.erase(checkpoints.begin());
    }
    if (!checkpoints.empty()) {
      persist::PruneSegmentsBefore(dir_, checkpoints.front().seq);
    }
    const uint64_t taken =
        checkpoints_taken_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (writer_options_.on_checkpoint) {
      writer_options_.on_checkpoint(seq, taken);
    }
  }

  parallel::EnginePool<D>& pool() { return *pool_; }
  streaming::DynamicCellIndex<D>& index() { return *index_; }
  // Checkpoints this writer has shipped since construction. Thread-safe.
  uint64_t checkpoints_taken() const {
    return checkpoints_taken_.load(std::memory_order_relaxed);
  }
  uint64_t seq() const { return journal_->seq(); }
  uint64_t generation() const { return journal_->seq() + 1; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  double epsilon_;
  size_t counts_cap_;
  Options options_;
  WriterOptions writer_options_;
  dbscan::PipelineStats* stats_;
  std::unique_ptr<streaming::DynamicCellIndex<D>> index_;
  std::unique_ptr<persist::SegmentedJournal<D>> journal_;
  std::unique_ptr<parallel::EnginePool<D>> pool_;
  std::atomic<uint64_t> checkpoints_taken_{0};
};

struct ReplicaOptions {
  // How often StartTailing polls the shared directory.
  uint64_t poll_millis = 20;
  // Checkpoint load mode for cold starts. kMapped: O(validation) start,
  // pages fault in on demand (the checkpoint file must stay present while
  // mapped — the writer only ever unlinks PRUNED checkpoints, and an
  // unlinked-but-mapped file stays readable on POSIX).
  persist::LoadMode load_mode = persist::LoadMode::kMapped;
  // Consecutive failed tail passes before the replica gives up on the
  // current base and re-cold-starts from the newest checkpoint.
  size_t max_transient_failures = 50;
  // Test hook: runs after a cold start CHOSE and LOADED its checkpoint but
  // before it lists segments — exactly the stale-generation window (a
  // writer checkpoint + prune in this window forces the gap path).
  std::function<void(uint64_t seq)> on_cold_start_loaded;
  // Invoked after every gap-induced re-cold-start with the sequence the
  // replica re-based to and the running gap_restarts count — the
  // fleet-logging hook pdbscan_server wires to stderr. Runs on the tailing
  // thread; keep it cheap.
  std::function<void(uint64_t seq, size_t gap_restarts)> on_gap_restart;
};

// A read-only follower: cold-starts from the newest shipped checkpoint and
// tails journal segments, republishing every applied batch through its own
// EnginePool at the dataset generation. Never writes to the shared
// directory, so killing a replica at any instant cannot corrupt anything.
template <int D>
class ReplicaNode {
 public:
  ReplicaNode(const std::string& dir, double epsilon, size_t counts_cap,
              Options options = Options(),
              ReplicaOptions replica_options = ReplicaOptions(),
              dbscan::PipelineStats* stats = nullptr)
      : dir_(dir),
        epsilon_(epsilon),
        counts_cap_(counts_cap),
        options_(std::move(options)),
        replica_options_(std::move(replica_options)),
        stats_(stats != nullptr ? stats : &dbscan::GlobalStats()) {
    ColdStart();
    pool_ = std::make_unique<parallel::EnginePool<D>>(index_->snapshot(),
                                                      seq_.load() + 1);
    TailOnce();
  }

  ~ReplicaNode() { StopTailing(); }
  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  // One tail pass: apply every intact record now visible past seq(). Safe
  // to call from the tailing thread or (with tailing stopped) the caller.
  // Returns the number of batches applied. Transient read failures — the
  // writer mid-create, mid-append or mid-prune — count toward
  // max_transient_failures and then force a re-cold-start.
  size_t TailOnce() {
    size_t applied = 0;
    try {
      applied = TailPass();
      failures_ = 0;
    } catch (const std::exception&) {
      // PersistError (torn/missing files under the writer's feet) plus
      // anything else the filesystem can surface — the tailing thread
      // must survive every failure and just try again.
      if (++failures_ >= replica_options_.max_transient_failures) {
        failures_ = 0;
        try {
          Restart();
        } catch (const std::exception&) {
          // The newest checkpoint was itself unreadable (writer mid-ship,
          // persistent disk fault). Keep serving the current snapshot and
          // retry on the next poll.
        }
      }
    }
    return applied;
  }

  // Poll the directory on a background thread until StopTailing().
  void StartTailing() {
    if (tail_thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    tail_thread_ = std::thread([this]() {
      while (!stop_.load(std::memory_order_relaxed)) {
        TailOnce();
        std::unique_lock<std::mutex> lock(stop_mu_);
        stop_cv_.wait_for(
            lock, std::chrono::milliseconds(replica_options_.poll_millis),
            [this]() { return stop_.load(std::memory_order_relaxed); });
      }
    });
  }

  void StopTailing() {
    if (!tail_thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    stop_cv_.notify_all();
    tail_thread_.join();
  }

  parallel::EnginePool<D>& pool() { return *pool_; }
  // The last applied sequence / the generation being served. Thread-safe.
  uint64_t applied_seq() const { return seq_.load(std::memory_order_acquire); }
  uint64_t generation() const { return applied_seq() + 1; }
  // How many cold starts hit the stale-generation gap (diagnostics/tests).
  size_t gap_restarts() const { return gap_restarts_.load(); }

 private:
  // Loads the newest checkpoint into index_/seq_ (empty dataset when the
  // directory has none). Does not touch pool_ — callers publish.
  void ColdStart() {
    RestoredCheckpoint<D> base = LoadNewestCheckpoint<D>(
        dir_, epsilon_, counts_cap_, options_, replica_options_.load_mode,
        stats_);
    index_ = std::move(base.index);
    seq_.store(base.seq, std::memory_order_release);
    if (replica_options_.on_cold_start_loaded) {
      replica_options_.on_cold_start_loaded(base.seq);
    }
  }

  // Re-base on the newest checkpoint and republish. Reached past a gap or
  // repeated failures; the counter only ticks once the cold start
  // actually succeeded.
  void Restart() {
    ColdStart();
    const size_t restarts =
        gap_restarts_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (replica_options_.on_gap_restart) {
      replica_options_.on_gap_restart(seq_.load(std::memory_order_relaxed),
                                      restarts);
    }
    PublishIfNewer();
  }

  // Publishes the current index at seq_+1 unless the pool already serves
  // at least that generation: a re-cold-start is NOT guaranteed to move
  // forward (repeated transient failures can force a re-base onto a
  // checkpoint at or before the generation already served), and
  // ReplaceIndex rejects non-advancing generations. All publishes happen
  // on the tailing thread, so the check-then-swap cannot race.
  void PublishIfNewer() {
    const uint64_t generation = seq_.load(std::memory_order_relaxed) + 1;
    if (generation > pool_->generation()) {
      pool_->ReplaceIndex(index_->snapshot(), generation);
    }
  }

  // Applies every record now visible past seq_, publishing each. A gap
  // (the records right after our position were pruned under a newer
  // checkpoint) re-bases instead.
  size_t TailPass() {
    const uint64_t start = seq_.load(std::memory_order_relaxed);
    uint64_t seq = start;
    if (!ReplaySegments<D>(persist::ListSegmentsSince(dir_, seq), seq,
                           *index_, epsilon_, counts_cap_, options_, stats_,
                           [this](uint64_t applied) {
                             seq_.store(applied, std::memory_order_release);
                             PublishIfNewer();
                           })) {
      Restart();
      return 0;
    }
    return seq - start;
  }

  std::string dir_;
  double epsilon_;
  size_t counts_cap_;
  Options options_;
  ReplicaOptions replica_options_;
  dbscan::PipelineStats* stats_;
  std::unique_ptr<streaming::DynamicCellIndex<D>> index_;
  std::unique_ptr<parallel::EnginePool<D>> pool_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<size_t> gap_restarts_{0};
  size_t failures_ = 0;

  std::thread tail_thread_;
  std::atomic<bool> stop_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
};

}  // namespace pdbscan::net

#endif  // PDBSCAN_NET_REPLICATION_H_
