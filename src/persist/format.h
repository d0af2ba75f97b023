// On-disk format of the persistence layer: versioned, checksummed binary
// snapshots of a frozen CellIndex, and the streaming update journal (WAL).
//
// Design goals, in order:
//
//   1. Zero-copy serving. Every array section is stored exactly as its
//      in-memory representation (reordered Point<D>s, CSR offsets, packed
//      uint32 counts, ...), 64-byte aligned, so the mmap load path
//      (persist/snapshot.h, LoadMode::kMapped) points the CellStructure's
//      FlatArrays straight at the mapping — load cost is O(validation),
//      not O(index).
//   2. No silent misreads. A magic tag, a format version, an endianness
//      probe, independent header and payload checksums, and exact size
//      accounting (declared file size == actual file size == computed
//      section layout) mean a corrupted, truncated, or foreign file is
//      rejected with a PersistError — never parsed into garbage.
//   3. One layout computation. The section table is a pure function of the
//      header (ComputeSnapshotLayout below), shared by writer and reader,
//      so the two cannot disagree about where an array lives.
//
// The journal is a sequence of self-delimiting records appended after a
// fixed header; each record carries its own checksum so replay can
// distinguish a torn tail (a crash mid-append — ignored, normal WAL
// behavior) from mid-file corruption (rejected).
#ifndef PDBSCAN_PERSIST_FORMAT_H_
#define PDBSCAN_PERSIST_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "dbscan/types.h"

namespace pdbscan::persist {

// Every failure of the persistence layer — open/IO errors, bad magic,
// version or dimension mismatch, checksum failure, truncation.
class PersistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// How SnapshotReader materializes the index.
//   kOwned:  arrays are copied out of the file; the index is self-contained
//            (one bulk memcpy per section — still no parsing).
//   kMapped: arrays view the mmap'ed file; load is O(validation) and the
//            index pins the mapping for its lifetime. The file must stay
//            readable and unmodified while the index lives.
enum class LoadMode { kOwned, kMapped };

inline constexpr char kSnapshotMagic[8] = {'P', 'D', 'B', 'S',
                                           'N', 'A', 'P', '1'};
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr char kJournalMagic[8] = {'P', 'D', 'B', 'S',
                                          'J', 'N', 'L', '1'};
inline constexpr uint32_t kJournalVersion = 1;
// Written as an integer, read back as an integer: differs byte-for-byte
// between little- and big-endian writers, so a cross-endian file is caught
// before any multi-byte field is trusted.
inline constexpr uint32_t kEndianProbe = 0x01020304u;
// Section alignment inside snapshot files. 64 covers every element type
// (max alignment 8) with cache-line slack for the mapped read path.
inline constexpr uint64_t kSectionAlign = 64;

// SnapshotHeader.flags bits.
inline constexpr uint32_t kFlagHasCoords = 1u << 0;   // Grid-method cells.
inline constexpr uint32_t kFlagStreamState = 1u << 1;  // live_ids + next_id.

inline constexpr uint64_t AlignUp(uint64_t v) {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

// Fast 64-bit mixing checksum (FNV-style over 8-byte words). Not
// cryptographic — it guards against corruption and truncation, not
// adversaries.
inline uint64_t Checksum64(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0x9e3779b97f4a7c15ull ^
               (static_cast<uint64_t>(n) * 0x100000001b3ull);
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = (h ^ tail) * 0x100000001b3ull;
  }
  h ^= h >> 32;
  return h;
}

// Options, fixed-width. Enums are stored as bytes and validated on decode
// so a corrupted value cannot materialize an out-of-range enum.
struct OptionsRecord {
  uint8_t cell_method = 0;
  uint8_t connect_method = 0;
  uint8_t range_count = 0;
  uint8_t bucketing = 0;
  uint8_t core_only = 0;
  // Distance metric (dbscan::Metric). Occupies what used to be a padding
  // byte, so pre-metric files decode as 0 == kL2 — their actual metric.
  uint8_t metric = 0;
  uint8_t pad[2] = {0, 0};
  uint64_t num_buckets = 0;
  double rho = 0;
  uint64_t delaunay_jitter_seed = 0;
};
static_assert(std::is_trivially_copyable_v<OptionsRecord>);
static_assert(sizeof(OptionsRecord) == 32);

inline OptionsRecord EncodeOptions(const Options& o) {
  OptionsRecord r;
  r.cell_method = static_cast<uint8_t>(o.cell_method);
  r.connect_method = static_cast<uint8_t>(o.connect_method);
  r.range_count = static_cast<uint8_t>(o.range_count);
  r.bucketing = o.bucketing ? 1 : 0;
  r.core_only = o.core_only ? 1 : 0;
  r.metric = static_cast<uint8_t>(o.metric);
  r.num_buckets = o.num_buckets;
  r.rho = o.rho;
  r.delaunay_jitter_seed = o.delaunay_jitter_seed;
  return r;
}

inline Options DecodeOptions(const OptionsRecord& r, const std::string& path) {
  if (r.cell_method > static_cast<uint8_t>(CellMethod::kBox) ||
      r.connect_method >
          static_cast<uint8_t>(ConnectMethod::kApproxQuadtree) ||
      r.range_count > static_cast<uint8_t>(RangeCountMethod::kQuadtree) ||
      r.bucketing > 1 || r.core_only > 1 ||
      r.metric > static_cast<uint8_t>(Metric::kLinf)) {
    throw PersistError(path + ": corrupted options record");
  }
  Options o;
  o.cell_method = static_cast<CellMethod>(r.cell_method);
  o.connect_method = static_cast<ConnectMethod>(r.connect_method);
  o.range_count = static_cast<RangeCountMethod>(r.range_count);
  o.bucketing = r.bucketing != 0;
  o.core_only = r.core_only != 0;
  o.metric = static_cast<Metric>(r.metric);
  o.num_buckets = r.num_buckets;
  o.rho = r.rho;
  o.delaunay_jitter_seed = r.delaunay_jitter_seed;
  return o;
}

// Fixed-size snapshot header. Trivially copyable: written and read as raw
// bytes, validated field by field.
struct SnapshotHeader {
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t endian = 0;
  uint64_t header_bytes = 0;  // sizeof(SnapshotHeader); layout base.
  uint64_t file_bytes = 0;    // Total file size, for truncation checks.
  // Checksum64 over the nine per-section Checksum64 values in layout order
  // (absent sections contribute their checksum of zero bytes). Covers every
  // payload byte; inter-section padding is structural zeros and excluded.
  uint64_t payload_checksum = 0;
  // Checksum64 of this struct with header_checksum itself zeroed; catches
  // header corruption before any size field is trusted.
  uint64_t header_checksum = 0;
  uint32_t dim = 0;
  uint32_t flags = 0;
  double epsilon = 0;
  uint64_t counts_cap = 0;
  uint64_t num_points = 0;
  uint64_t num_cells = 0;
  uint64_t num_neighbor_links = 0;  // Total CSR adjacency entries.
  uint64_t next_id = 0;             // Stream state; 0 without the flag.
  // The update sequence a streaming checkpoint captures (the <seq> of
  // checkpoint-<seq>.pdbsnap, see net/replication.h): recovery replays
  // only journal records past it. 0 for a plain saved index.
  uint64_t journal_generation = 0;
  OptionsRecord options;
  uint8_t reserved[16] = {};
};
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);
static_assert(sizeof(SnapshotHeader) % 8 == 0);

// Where each array section lives in the file. Offsets are absolute;
// a section of zero bytes is simply absent (e.g. coords for the 2D box
// method, live_ids without stream state).
struct SnapshotLayout {
  struct Section {
    uint64_t offset = 0;
    uint64_t bytes = 0;
  };
  Section points;          // num_points * dim * sizeof(double)
  Section orig_index;      // num_points * sizeof(uint32_t)
  Section offsets;         // (num_cells + 1) * sizeof(uint64_t)
  Section coords;          // num_cells * dim * sizeof(int64_t) (grid only)
  Section cell_boxes;      // num_cells * 2 * dim * sizeof(double)
  Section nbr_offsets;     // (num_cells + 1) * sizeof(uint64_t)
  Section nbrs;            // num_neighbor_links * sizeof(uint32_t)
  Section neighbor_counts; // num_points * sizeof(uint32_t)
  Section live_ids;        // num_points * sizeof(uint64_t) (stream state)
  uint64_t file_bytes = 0;
};

// The single source of truth for section placement, shared by writer and
// reader. Pure function of the header.
inline SnapshotLayout ComputeSnapshotLayout(const SnapshotHeader& h) {
  SnapshotLayout layout;
  const uint64_t dim = h.dim;
  const uint64_t n = h.num_points;
  const uint64_t m = h.num_cells;
  uint64_t at = AlignUp(h.header_bytes);
  auto place = [&at](SnapshotLayout::Section& s, uint64_t bytes) {
    s.offset = at;
    s.bytes = bytes;
    at = AlignUp(at + bytes);
  };
  place(layout.points, n * dim * sizeof(double));
  place(layout.orig_index, n * sizeof(uint32_t));
  place(layout.offsets, (m + 1) * sizeof(uint64_t));
  place(layout.coords,
        (h.flags & kFlagHasCoords) ? m * dim * sizeof(int64_t) : 0);
  place(layout.cell_boxes, m * 2 * dim * sizeof(double));
  place(layout.nbr_offsets, (m + 1) * sizeof(uint64_t));
  place(layout.nbrs, h.num_neighbor_links * sizeof(uint32_t));
  place(layout.neighbor_counts, n * sizeof(uint32_t));
  place(layout.live_ids,
        (h.flags & kFlagStreamState) ? n * sizeof(uint64_t) : 0);
  layout.file_bytes = at;
  return layout;
}

// Journal file header (fixed size, once at the start of the file).
struct JournalHeader {
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t endian = 0;
  uint32_t dim = 0;
  uint32_t flags = 0;
  double epsilon = 0;
  uint64_t counts_cap = 0;
  // Sequence before the segment's first record (the <seq> of
  // journal-<seq>.pdbjnl); see SnapshotHeader::journal_generation.
  uint64_t generation = 0;
  OptionsRecord options;
  // Checksum64 of this struct with header_checksum zeroed.
  uint64_t header_checksum = 0;
};
static_assert(std::is_trivially_copyable_v<JournalHeader>);

// One appended update batch: this header, then num_erases uint64 ids, then
// num_inserts * dim doubles, then a uint64 Checksum64 over everything from
// the start of the record header through the last payload byte.
struct JournalRecordHeader {
  uint64_t record_bytes = 0;  // Header + payload + trailing checksum.
  uint64_t first_id = 0;      // Id assigned to inserts[0] by the apply.
  uint64_t num_inserts = 0;
  uint64_t num_erases = 0;
};
static_assert(std::is_trivially_copyable_v<JournalRecordHeader>);

inline uint64_t JournalRecordBytes(uint64_t dim, uint64_t num_inserts,
                                   uint64_t num_erases) {
  return sizeof(JournalRecordHeader) + num_erases * sizeof(uint64_t) +
         num_inserts * dim * sizeof(double) + sizeof(uint64_t);
}

}  // namespace pdbscan::persist

#endif  // PDBSCAN_PERSIST_FORMAT_H_
