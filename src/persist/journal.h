// UpdateJournal — the write-ahead log of the streaming path.
//
// Durability for a live dataset splits naturally along the same line the
// serving architecture does: the checkpoint snapshot (persist/snapshot.h)
// is the big immutable base, and the journal is the small replayable
// delta — each record is one ApplyUpdates batch (erased ids + inserted
// points + the first id the batch assigned). Recovery = load the newest
// checkpoint, replay every journal record after it, and the restored
// DynamicCellIndex is bit-identical to the uninterrupted live run: record
// replay re-executes the exact ApplyUpdates sequence, and the first-id
// check proves the id assignment lines up. Recovery cost is proportional
// to the delta since the last checkpoint, never the dataset. The one
// recovery path (LoadNewestCheckpoint + ReplaySegments) lives in
// net/replication.h and serves both WriterNode and ReplicaNode.
//
// Record framing (persist/format.h): a fixed header (magic, version, dim,
// endianness, epsilon, counts_cap, options — so a journal can never be
// replayed against a mismatched configuration), then self-delimiting
// records each carrying its own checksum. Replay distinguishes the two
// failure shapes a WAL meets in practice:
//
//   * a torn TAIL (crash mid-append): the final record is shorter than it
//     declares or fails its checksum — replay stops cleanly before it and
//     reports truncated_tail (the writer then truncates it away on the
//     next Append);
//   * corruption anywhere ELSE (a complete record with a bad checksum
//     followed by more bytes): PersistError — the log cannot be trusted.
//
// Appends go through a single fd with optional per-batch fdatasync
// (FsyncPolicy): kEveryBatch survives power loss at one syscall per batch,
// kNone leaves durability to the OS page cache (fast; a crash may lose the
// most recent batches but never corrupts the replayable prefix).
//
// Threading contract: one writer, like the DynamicCellIndex it logs for.
//
// Segment rotation: the log must stay tailable — a replica that is `k`
// batches behind should read the records after `k`, not the whole history.
// SegmentedJournal below keeps a directory of UpdateJournal files named
// journal-<start_seq>.pdbjnl, where start_seq is the number of batches
// applied before the segment's first record (the segment's UpdateJournal
// generation field carries the same number, so every framing/torn-tail/
// config check applies per segment). Once the active segment exceeds
// rotate_bytes it is closed and a new one opens at the current sequence;
// ListSegmentsSince(dir, seq) returns exactly the segments a reader at
// sequence `seq` still needs.
#ifndef PDBSCAN_PERSIST_JOURNAL_H_
#define PDBSCAN_PERSIST_JOURNAL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "geometry/point.h"
#include "persist/format.h"
#include "persist/io.h"

namespace pdbscan::persist {

// When the journal fdatasync's.
enum class FsyncPolicy {
  kNone,       // OS-buffered appends; fastest, loses recent batches on crash.
  kEveryBatch  // One fdatasync per ApplyUpdates; survives power loss.
};

// One decoded journal record during replay.
template <int D>
struct JournalRecord {
  uint64_t first_id = 0;
  std::vector<geometry::Point<D>> inserts;
  std::vector<uint64_t> erases;
};

// The outcome of scanning a journal file.
template <int D>
struct JournalScan {
  std::vector<JournalRecord<D>> records;
  // True when the file ended in a torn (incomplete or checksum-failing)
  // final record — the normal shape after a crash mid-append. The records
  // before it are intact and were returned.
  bool truncated_tail = false;
  // Byte size of the intact prefix (header + complete records); the writer
  // truncates the file here before appending again.
  uint64_t intact_bytes = 0;
  double epsilon = 0;
  size_t counts_cap = 0;
  // The header's generation: a segment's start sequence (see
  // SnapshotHeader::journal_generation).
  uint64_t generation = 0;
  Options options;
};

template <int D>
class UpdateJournal {
 public:
  // Opens (or creates) the journal at `path` for appending. A fresh file
  // gets the configuration header; an existing file must carry a matching
  // one — replaying inserts into a different (epsilon, counts_cap, options)
  // index would silently produce a different clustering, so the mismatch
  // throws instead. If the existing file has a torn tail (see Scan), the
  // tail is truncated away before the first append.
  UpdateJournal(const std::string& path, double epsilon, size_t counts_cap,
                const Options& options, uint64_t generation = 0,
                FsyncPolicy fsync = FsyncPolicy::kNone,
                dbscan::PipelineStats* stats = nullptr)
      : epsilon_(epsilon),
        counts_cap_(counts_cap),
        options_(options),
        generation_(generation),
        fsync_(fsync),
        stats_(stats != nullptr ? stats : &dbscan::GlobalStats()) {
    // A file shorter than one header can hold no records: it is a torn
    // creation (crash between creating a segment and a durable header).
    // The correct state is a fresh header at the caller's generation, not
    // an error — treat it as absent.
    if (FileExists(path) && FileBytes(path) >= sizeof(JournalHeader)) {
      const JournalScan<D> scan = Scan(path);
      RequireMatch(path, scan, epsilon, counts_cap, options);
      if (scan.generation != generation) {
        throw PersistError(path + ": journal generation " +
                           std::to_string(scan.generation) +
                           " does not match expected " +
                           std::to_string(generation));
      }
      file_ = std::make_unique<AppendFile>(path);
      if (scan.truncated_tail || file_->size() != scan.intact_bytes) {
        file_->TruncateTo(scan.intact_bytes);
      }
    } else {
      file_ = std::make_unique<AppendFile>(path);
      if (file_->size() > 0) file_->TruncateTo(0);  // Drop a torn header.
      WriteHeader();
    }
  }

  UpdateJournal(const UpdateJournal&) = delete;
  UpdateJournal& operator=(const UpdateJournal&) = delete;

  // Appends one applied batch. `first_id` is the id ApplyUpdates assigned
  // to inserts[0] (recorded so replay can assert the id sequence lines
  // up). Called by DynamicCellIndex after batch validation.
  void Append(std::span<const geometry::Point<D>> inserts,
              std::span<const uint64_t> erases, uint64_t first_id) {
    JournalRecordHeader rh;
    rh.record_bytes = JournalRecordBytes(D, inserts.size(), erases.size());
    rh.first_id = first_id;
    rh.num_inserts = inserts.size();
    rh.num_erases = erases.size();
    buffer_.resize(rh.record_bytes);
    uint8_t* w = buffer_.data();
    std::memcpy(w, &rh, sizeof(rh));
    w += sizeof(rh);
    if (!erases.empty()) {
      std::memcpy(w, erases.data(), erases.size() * sizeof(uint64_t));
      w += erases.size() * sizeof(uint64_t);
    }
    if (!inserts.empty()) {
      std::memcpy(w, inserts.data(),
                  inserts.size() * sizeof(geometry::Point<D>));
      w += inserts.size() * sizeof(geometry::Point<D>);
    }
    const uint64_t sum =
        Checksum64(buffer_.data(), rh.record_bytes - sizeof(uint64_t));
    std::memcpy(w, &sum, sizeof(sum));
    file_->Append(buffer_.data(), buffer_.size());
    if (fsync_ == FsyncPolicy::kEveryBatch) file_->Sync();
    stats_->snapshot_bytes_written.fetch_add(buffer_.size(),
                                             std::memory_order_relaxed);
  }

  uint64_t size_bytes() const { return file_->size(); }
  const std::string& path() const { return file_->path(); }

  // Decodes the journal at `path`. Throws PersistError for a missing /
  // foreign / version-skewed / mid-file-corrupted journal; a torn tail is
  // reported, not thrown (see JournalScan).
  static JournalScan<D> Scan(const std::string& path,
                             dbscan::PipelineStats* stats = nullptr) {
    const std::vector<uint8_t> bytes = ReadAllBytes(path);
    if (bytes.size() < sizeof(JournalHeader)) {
      throw PersistError(path + ": truncated journal (no complete header)");
    }
    JournalHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    if (std::memcmp(h.magic, kJournalMagic, sizeof(kJournalMagic)) != 0) {
      throw PersistError(path + ": not a pdbscan journal (bad magic)");
    }
    if (h.endian != kEndianProbe) {
      throw PersistError(path +
                         ": journal written with incompatible endianness");
    }
    if (h.version != kJournalVersion) {
      throw PersistError(path + ": unsupported journal version " +
                         std::to_string(h.version));
    }
    JournalHeader probe = h;
    probe.header_checksum = 0;
    if (Checksum64(&probe, sizeof(probe)) != h.header_checksum) {
      throw PersistError(path + ": journal header checksum mismatch");
    }
    if (h.dim != D) {
      throw PersistError(path + ": journal dimension " +
                         std::to_string(h.dim) + " does not match " +
                         std::to_string(D));
    }

    JournalScan<D> scan;
    scan.epsilon = h.epsilon;
    scan.counts_cap = static_cast<size_t>(h.counts_cap);
    scan.generation = h.generation;
    scan.options = DecodeOptions(h.options, path);
    // Each record is appended with ONE write(), so a crash leaves at most a
    // prefix of a valid record (or, after power loss reorders writeback, a
    // full-length final record with a bad checksum). That shapes the
    // classification below: any break that reaches end-of-file is a torn
    // tail; anything inconsistent with MORE bytes after it is corruption.
    size_t at = sizeof(JournalHeader);
    while (at < bytes.size()) {
      const size_t remaining = bytes.size() - at;
      if (remaining < sizeof(JournalRecordHeader)) {
        scan.truncated_tail = true;  // Partial record header at EOF.
        break;
      }
      JournalRecordHeader rh;
      std::memcpy(&rh, bytes.data() + at, sizeof(rh));
      if (rh.num_inserts > (1ull << 40) || rh.num_erases > (1ull << 40) ||
          rh.record_bytes !=
              JournalRecordBytes(D, rh.num_inserts, rh.num_erases)) {
        // A fully present header can only be inconsistent through real
        // corruption (a torn write is a prefix, and prefixes that include
        // the header include it verbatim).
        throw PersistError(path + ": corrupted journal record at byte " +
                           std::to_string(at));
      }
      if (rh.record_bytes > remaining) {
        scan.truncated_tail = true;  // Partial record payload at EOF.
        break;
      }
      uint64_t stored;
      std::memcpy(&stored,
                  bytes.data() + at + rh.record_bytes - sizeof(uint64_t),
                  sizeof(uint64_t));
      if (Checksum64(bytes.data() + at,
                     rh.record_bytes - sizeof(uint64_t)) != stored) {
        if (at + rh.record_bytes == bytes.size()) {
          scan.truncated_tail = true;  // Reordered-writeback torn tail.
          break;
        }
        throw PersistError(path + ": corrupted journal record at byte " +
                           std::to_string(at));
      }
      JournalRecord<D> rec;
      rec.first_id = rh.first_id;
      const uint8_t* r = bytes.data() + at + sizeof(rh);
      rec.erases.resize(rh.num_erases);
      if (rh.num_erases > 0) {
        std::memcpy(rec.erases.data(), r, rh.num_erases * sizeof(uint64_t));
        r += rh.num_erases * sizeof(uint64_t);
      }
      rec.inserts.resize(rh.num_inserts);
      if (rh.num_inserts > 0) {
        std::memcpy(rec.inserts.data(), r,
                    rh.num_inserts * sizeof(geometry::Point<D>));
      }
      scan.records.push_back(std::move(rec));
      at += rh.record_bytes;
    }
    scan.intact_bytes = static_cast<uint64_t>(at);
    if (stats != nullptr) {
      stats->snapshot_bytes_read.fetch_add(scan.intact_bytes,
                                           std::memory_order_relaxed);
    }
    return scan;
  }

  static void RequireMatch(const std::string& path,
                           const JournalScan<D>& scan, double epsilon,
                           size_t counts_cap, const Options& options) {
    if (scan.epsilon != epsilon || scan.counts_cap != counts_cap ||
        !(scan.options == options)) {
      throw PersistError(
          path + ": journal configuration does not match this index "
                 "(epsilon / counts_cap / options)");
    }
  }

 private:
  void WriteHeader() {
    JournalHeader h;
    std::memcpy(h.magic, kJournalMagic, sizeof(kJournalMagic));
    h.version = kJournalVersion;
    h.endian = kEndianProbe;
    h.dim = D;
    h.epsilon = epsilon_;
    h.counts_cap = counts_cap_;
    h.generation = generation_;
    h.options = EncodeOptions(options_);
    h.header_checksum = 0;
    h.header_checksum = Checksum64(&h, sizeof(h));
    file_->Append(&h, sizeof(h));
    file_->Sync();
  }

  double epsilon_;
  size_t counts_cap_;
  Options options_;
  uint64_t generation_;
  FsyncPolicy fsync_;
  dbscan::PipelineStats* stats_;
  std::unique_ptr<AppendFile> file_;
  std::vector<uint8_t> buffer_;  // Reused record encoding scratch.
};

// --- Journal segments (the tailable, rotating flavor) -----------------------

// One segment file of a segmented journal. Record i of the segment is the
// update batch that advances the dataset from sequence start_seq + i to
// start_seq + i + 1.
struct JournalSegment {
  std::string path;
  uint64_t start_seq = 0;
};

inline std::string JournalSegmentName(uint64_t start_seq) {
  return "journal-" + std::to_string(start_seq) + ".pdbjnl";
}

// All journal segments in `dir`, sorted by start sequence. Non-segment
// files (checkpoints, temp files) are ignored; a missing directory yields
// an empty list.
inline std::vector<JournalSegment> ListJournalSegments(
    const std::string& dir) {
  std::vector<JournalSegment> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 15 || name.compare(0, 8, "journal-") != 0 ||
        name.compare(name.size() - 7, 7, ".pdbjnl") != 0) {
      continue;
    }
    const std::string digits = name.substr(8, name.size() - 15);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    segments.push_back(
        JournalSegment{entry.path().string(), std::stoull(digits)});
  }
  std::sort(segments.begin(), segments.end(),
            [](const JournalSegment& a, const JournalSegment& b) {
              return a.start_seq < b.start_seq;
            });
  return segments;
}

// The segments a reader that has applied `seq` batches still needs: the
// last segment starting at or before `seq` (it may hold records past the
// reader's position) plus every later one. An empty result means no
// segments exist; a result whose FIRST start_seq is greater than `seq`
// means the records in (seq, first) were pruned away — the reader must
// re-cold-start from a newer checkpoint (see net/replication.h).
inline std::vector<JournalSegment> ListSegmentsSince(const std::string& dir,
                                                     uint64_t seq) {
  std::vector<JournalSegment> segments = ListJournalSegments(dir);
  size_t first = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].start_seq <= seq) first = i;
  }
  segments.erase(segments.begin(), segments.begin() + first);
  return segments;
}

// Unlinks every segment whose records are ALL at sequences <= `seq` (i.e.
// whose successor segment starts at or before `seq`) — they are fully
// covered by a checkpoint at `seq`. The newest segment is never pruned
// (it is the active tail). Returns the number of files removed.
inline size_t PruneSegmentsBefore(const std::string& dir, uint64_t seq) {
  const std::vector<JournalSegment> segments = ListJournalSegments(dir);
  size_t removed = 0;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].start_seq <= seq) {
      std::error_code ec;
      if (std::filesystem::remove(segments[i].path, ec)) ++removed;
    }
  }
  return removed;
}

// A rotating directory of UpdateJournal segments — the replication log of
// net/replication.h. The writer attaches current() to its DynamicCellIndex
// (WAL-before-mutate discipline unchanged) and calls OnBatchApplied() after
// every applied batch; the segmented journal counts sequences and rotates
// the active segment once it crosses rotate_bytes. Reopening an existing
// directory resumes at the given sequence: the active segment is the last
// one on disk (its torn tail, if any, is truncated by the UpdateJournal
// constructor), so appends continue exactly where the previous process
// stopped.
//
// Threading contract: one writer, like the UpdateJournal segments it owns.
template <int D>
class SegmentedJournal {
 public:
  // `seq` is the number of batches already applied (and already covered by
  // the segments on disk / the checkpoint the caller recovered from).
  // `active_start` names the segment appends go to: the start sequence of
  // the last on-disk segment when resuming, or `seq` for a fresh one.
  SegmentedJournal(const std::string& dir, double epsilon, size_t counts_cap,
                   const Options& options, uint64_t seq,
                   uint64_t active_start, uint64_t rotate_bytes,
                   FsyncPolicy fsync = FsyncPolicy::kNone,
                   dbscan::PipelineStats* stats = nullptr)
      : dir_(dir),
        epsilon_(epsilon),
        counts_cap_(counts_cap),
        options_(options),
        seq_(seq),
        rotate_bytes_(rotate_bytes),
        fsync_(fsync),
        stats_(stats) {
    if (active_start > seq) {
      throw PersistError(dir + ": active segment start " +
                         std::to_string(active_start) +
                         " is ahead of sequence " + std::to_string(seq));
    }
    current_ = std::make_unique<UpdateJournal<D>>(
        dir_ + "/" + JournalSegmentName(active_start), epsilon_, counts_cap_,
        options_, active_start, fsync_, stats_);
  }

  SegmentedJournal(const SegmentedJournal&) = delete;
  SegmentedJournal& operator=(const SegmentedJournal&) = delete;

  // The active segment — attach to DynamicCellIndex::set_journal. Invalid
  // after the next OnBatchApplied() that rotates; re-attach then (see
  // rotated_since() or simply re-read current() every batch).
  UpdateJournal<D>* current() { return current_.get(); }

  // Sequence accounting + rotation, called once after every applied batch.
  // Returns true when the active segment changed (the caller re-attaches).
  bool OnBatchApplied() {
    ++seq_;
    if (current_->size_bytes() < rotate_bytes_) return false;
    current_ = std::make_unique<UpdateJournal<D>>(
        dir_ + "/" + JournalSegmentName(seq_), epsilon_, counts_cap_,
        options_, seq_, fsync_, stats_);
    return true;
  }

  uint64_t seq() const { return seq_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  double epsilon_;
  size_t counts_cap_;
  Options options_;
  uint64_t seq_;
  uint64_t rotate_bytes_;
  FsyncPolicy fsync_;
  dbscan::PipelineStats* stats_;
  std::unique_ptr<UpdateJournal<D>> current_;
};

}  // namespace pdbscan::persist

#endif  // PDBSCAN_PERSIST_JOURNAL_H_
