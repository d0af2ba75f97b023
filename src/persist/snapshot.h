// SnapshotWriter / SnapshotReader — durable CellIndex snapshots.
//
// A snapshot is everything a frozen CellIndex is made of: the reordered
// points, the CellStructure layout (offsets / coords / boxes / CSR
// adjacency), the saturated MarkCore neighbor counts, and the build
// parameters (epsilon, counts_cap, Options) — plus, optionally, the
// streaming writer state (stable live ids + the next id) so a
// DynamicCellIndex can resume updating exactly where it left off.
//
// Two load paths, one adoption constructor:
//
//   * LoadMode::kOwned — the arrays are bulk-copied out of the file into
//     owning FlatArrays. The index is self-contained; the file may be
//     deleted afterwards.
//   * LoadMode::kMapped — the file is mmap'ed and the FlatArrays VIEW the
//     mapping; nothing is copied (the per-cell quadtrees of kQuadtree
//     configurations are the one exception: they are derived structures,
//     rebuilt deterministically over the mapped points). Load cost is
//     validation only, so a multi-GB index is servable in milliseconds.
//     The index pins the mapping alive; the file must stay readable and
//     unmodified while any loaded index serves.
//
// Either way the rehydrated index goes through the SAME CellIndex
// adoption constructor the streaming and sharded producers use, so queries
// against it are bit-identical to the index that was saved
// (tests/test_persist.cpp and bench/throughput_persist.cpp enforce this by
// assertion and exit code).
//
// Corruption safety: magic + version + endianness probe + independent
// header/payload checksums + exact size accounting (see persist/format.h).
// A truncated, corrupted, version-skewed or foreign file throws
// PersistError with the offending path — never a crash or a silently wrong
// index. Writes are crash-safe: the file appears under its final name only
// after a complete fsync'ed temp file is renamed over it.
#ifndef PDBSCAN_PERSIST_SNAPSHOT_H_
#define PDBSCAN_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "containers/flat_array.h"
#include "dbscan/cell_index.h"
#include "dbscan/cell_structure.h"
#include "dbscan/stats.h"
#include "dbscan/types.h"
#include "geometry/point.h"
#include "persist/format.h"
#include "persist/io.h"
#include "telemetry/trace.h"
#include "util/timer.h"

namespace pdbscan::persist {

// The wire layout IS the in-memory layout; these are the assumptions that
// make the zero-copy view valid.
static_assert(sizeof(size_t) == sizeof(uint64_t),
              "snapshots store CSR offsets as raw size_t words (64-bit)");

template <int D>
inline constexpr bool kLayoutIsPortable =
    std::is_trivially_copyable_v<geometry::Point<D>> &&
    sizeof(geometry::Point<D>) == D * sizeof(double) &&
    std::is_trivially_copyable_v<geometry::BBox<D>> &&
    sizeof(geometry::BBox<D>) == 2 * D * sizeof(double) &&
    sizeof(geometry::CellCoords<D>) == D * sizeof(int64_t);

// Header summary of a snapshot file, without loading the payload — the
// runtime-dimension dispatch point (examples/pdbscan_cli.cpp peeks the dim
// and then instantiates the right SnapshotReader<D>).
struct SnapshotInfo {
  int dim = 0;
  uint32_t version = 0;
  double epsilon = 0;
  size_t counts_cap = 0;
  uint64_t num_points = 0;
  uint64_t num_cells = 0;
  bool has_stream_state = false;
  uint64_t next_id = 0;
  uint64_t journal_generation = 0;
  Options options;
  uint64_t file_bytes = 0;
};

namespace internal {

// Validates everything that does not require the payload: magic, version,
// endianness, header checksum, and field sanity. Throws PersistError.
inline SnapshotHeader ValidateHeader(const std::string& path,
                                     const uint8_t* data, size_t size) {
  if (size < sizeof(SnapshotHeader)) {
    throw PersistError(path + ": truncated snapshot (no complete header)");
  }
  SnapshotHeader h;
  std::memcpy(&h, data, sizeof(h));
  if (std::memcmp(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    throw PersistError(path + ": not a pdbscan snapshot (bad magic)");
  }
  if (h.endian != kEndianProbe) {
    throw PersistError(path +
                       ": snapshot written with incompatible endianness");
  }
  if (h.version != kSnapshotVersion) {
    throw PersistError(path + ": unsupported snapshot version " +
                       std::to_string(h.version) + " (expected " +
                       std::to_string(kSnapshotVersion) + ")");
  }
  if (h.header_bytes != sizeof(SnapshotHeader)) {
    throw PersistError(path + ": snapshot header size mismatch");
  }
  SnapshotHeader probe = h;
  probe.header_checksum = 0;
  if (Checksum64(&probe, sizeof(probe)) != h.header_checksum) {
    throw PersistError(path + ": snapshot header checksum mismatch");
  }
  if (h.dim < 1 || h.dim > 64) {
    throw PersistError(path + ": implausible snapshot dimension");
  }
  if (!(h.epsilon > 0) || h.counts_cap == 0) {
    throw PersistError(path + ": invalid snapshot parameters");
  }
  // Bound the counts BEFORE ComputeSnapshotLayout multiplies them: with
  // counts <= 2^40 and dim <= 64 every section size stays far below
  // 2^64, so the layout arithmetic cannot wrap — which is what makes the
  // file_bytes equality check below a real out-of-bounds guard even
  // against a (non-cryptographic) checksum collision.
  constexpr uint64_t kMaxCount = 1ull << 40;
  if (h.num_points > kMaxCount || h.num_cells > kMaxCount ||
      h.num_neighbor_links > kMaxCount ||
      h.num_cells > h.num_points + 1 ||
      h.file_bytes < h.header_bytes) {
    throw PersistError(path + ": implausible snapshot sizes");
  }
  return h;
}

// Full validation against the complete file bytes: size accounting,
// payload checksum, and the structural invariants the query pipeline
// relies on (so even a checksum collision cannot produce out-of-bounds
// serving). Returns the computed layout.
inline SnapshotLayout ValidatePayload(const std::string& path,
                                      const SnapshotHeader& h,
                                      const uint8_t* data, size_t size) {
  if (h.file_bytes != size) {
    throw PersistError(path + ": truncated snapshot (" +
                       std::to_string(size) + " bytes, header declares " +
                       std::to_string(h.file_bytes) + ")");
  }
  const SnapshotLayout layout = ComputeSnapshotLayout(h);
  if (layout.file_bytes != h.file_bytes) {
    throw PersistError(path + ": snapshot section layout mismatch");
  }
  const SnapshotLayout::Section sections[] = {
      layout.points,      layout.orig_index, layout.offsets,
      layout.coords,      layout.cell_boxes, layout.nbr_offsets,
      layout.nbrs,        layout.neighbor_counts, layout.live_ids};
  uint64_t sums[9];
  for (int i = 0; i < 9; ++i) {
    sums[i] = Checksum64(data + sections[i].offset, sections[i].bytes);
  }
  if (Checksum64(sums, sizeof(sums)) != h.payload_checksum) {
    throw PersistError(path + ": snapshot payload checksum mismatch");
  }

  // Structural invariants (cheap relative to the payload: O(cells + CSR)).
  const uint64_t n = h.num_points;
  const uint64_t m = h.num_cells;
  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(data + layout.offsets.offset);
  if (offsets[0] != 0 || offsets[m] != n) {
    throw PersistError(path + ": corrupted cell offsets");
  }
  for (uint64_t c = 0; c < m; ++c) {
    if (offsets[c] > offsets[c + 1]) {
      throw PersistError(path + ": corrupted cell offsets");
    }
  }
  const uint64_t* nbr_offsets =
      reinterpret_cast<const uint64_t*>(data + layout.nbr_offsets.offset);
  if (nbr_offsets[0] != 0 || nbr_offsets[m] != h.num_neighbor_links) {
    throw PersistError(path + ": corrupted adjacency offsets");
  }
  for (uint64_t c = 0; c < m; ++c) {
    if (nbr_offsets[c] > nbr_offsets[c + 1]) {
      throw PersistError(path + ": corrupted adjacency offsets");
    }
  }
  const uint32_t* nbrs =
      reinterpret_cast<const uint32_t*>(data + layout.nbrs.offset);
  for (uint64_t e = 0; e < h.num_neighbor_links; ++e) {
    if (nbrs[e] >= m) {
      throw PersistError(path + ": adjacency entry out of range");
    }
  }
  const uint32_t* orig =
      reinterpret_cast<const uint32_t*>(data + layout.orig_index.offset);
  for (uint64_t i = 0; i < n; ++i) {
    if (orig[i] >= n) {
      throw PersistError(path + ": point index out of range");
    }
  }
  const Options options = DecodeOptions(h.options, path);
  if (options.cell_method == CellMethod::kGrid && m > 0 &&
      (h.flags & kFlagHasCoords) == 0) {
    throw PersistError(path + ": grid snapshot is missing cell coords");
  }
  return layout;
}

}  // namespace internal

// Reads and validates only the header. Throws PersistError on anything
// that is not a well-formed snapshot header.
inline SnapshotInfo PeekSnapshot(const std::string& path) {
  const std::vector<uint8_t> head =
      ReadPrefixBytes(path, sizeof(SnapshotHeader));
  const SnapshotHeader h =
      internal::ValidateHeader(path, head.data(), head.size());
  SnapshotInfo info;
  info.dim = static_cast<int>(h.dim);
  info.version = h.version;
  info.epsilon = h.epsilon;
  info.counts_cap = static_cast<size_t>(h.counts_cap);
  info.num_points = h.num_points;
  info.num_cells = h.num_cells;
  info.has_stream_state = (h.flags & kFlagStreamState) != 0;
  info.next_id = h.next_id;
  info.journal_generation = h.journal_generation;
  info.options = DecodeOptions(h.options, path);
  info.file_bytes = h.file_bytes;
  return info;
}

// Writes a snapshot from raw parts — the low-level entry point shared by
// SnapshotWriter::Write (a whole CellIndex) and the sharded build's
// per-shard spill (a bare structure + counts). `live_ids`, when non-empty,
// must have exactly cells.num_points() entries and records the streaming
// writer state alongside (`next_id` is then required to be past every live
// id).
template <int D>
void WriteSnapshotRaw(const std::string& path,
                      const dbscan::CellStructure<D>& cells,
                      std::span<const uint32_t> neighbor_counts,
                      size_t counts_cap, const Options& options,
                      std::span<const uint64_t> live_ids = {},
                      uint64_t next_id = 0, uint64_t journal_generation = 0,
                      dbscan::PipelineStats* stats = nullptr) {
  static_assert(kLayoutIsPortable<D>,
                "Point/BBox/CellCoords must be flat arrays of 64-bit words");
  if (neighbor_counts.size() != cells.num_points()) {
    throw PersistError(path + ": counts do not cover the point set");
  }
  if (!live_ids.empty() && live_ids.size() != cells.num_points()) {
    throw PersistError(path + ": live ids do not cover the point set");
  }

  SnapshotHeader h;
  std::memcpy(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  h.version = kSnapshotVersion;
  h.endian = kEndianProbe;
  h.header_bytes = sizeof(SnapshotHeader);
  h.dim = D;
  h.flags = (cells.coords.empty() ? 0 : kFlagHasCoords) |
            (live_ids.empty() ? 0 : kFlagStreamState);
  h.epsilon = cells.epsilon;
  h.counts_cap = counts_cap;
  h.num_points = cells.num_points();
  h.num_cells = cells.num_cells();
  h.num_neighbor_links = cells.nbrs.size();
  h.next_id = live_ids.empty() ? 0 : next_id;
  h.journal_generation = journal_generation;
  h.options = EncodeOptions(options);
  const SnapshotLayout layout = ComputeSnapshotLayout(h);
  h.file_bytes = layout.file_bytes;

  struct Src {
    const void* data;
    SnapshotLayout::Section section;
  };
  const Src sources[] = {
      {cells.points.data(), layout.points},
      {cells.orig_index.data(), layout.orig_index},
      {cells.offsets.data(), layout.offsets},
      {cells.coords.data(), layout.coords},
      {cells.cell_boxes.data(), layout.cell_boxes},
      {cells.nbr_offsets.data(), layout.nbr_offsets},
      {cells.nbrs.data(), layout.nbrs},
      {neighbor_counts.data(), layout.neighbor_counts},
      {live_ids.data(), layout.live_ids},
  };
  uint64_t sums[9];
  for (int i = 0; i < 9; ++i) {
    sums[i] = Checksum64(sources[i].data, sources[i].section.bytes);
  }
  h.payload_checksum = Checksum64(sums, sizeof(sums));
  h.header_checksum = 0;
  h.header_checksum = Checksum64(&h, sizeof(h));

  AtomicFileWriter out(path);
  out.Write(&h, sizeof(h));
  for (const Src& src : sources) {
    out.PadTo(src.section.offset);
    out.Write(src.data, src.section.bytes);
  }
  out.PadTo(layout.file_bytes);
  out.Commit();

  dbscan::PipelineStats& sink =
      stats != nullptr ? *stats : dbscan::GlobalStats();
  sink.snapshot_bytes_written.fetch_add(layout.file_bytes,
                                        std::memory_order_relaxed);
}

template <int D>
class SnapshotWriter {
 public:
  // Serializes the frozen index to `path` (crash-safe: temp + rename).
  // Works for every configuration the library builds — kQuadtree
  // range-count configurations store no trees (they are derived data,
  // rebuilt at load).
  static void Write(const std::string& path, const dbscan::CellIndex<D>& index,
                    dbscan::PipelineStats* stats = nullptr) {
    WriteSnapshotRaw<D>(path, index.cells(), index.neighbor_counts().span(),
                        index.counts_cap(), index.options(), {}, 0, 0, stats);
  }

  // Streaming checkpoint variant: additionally records the stable live ids
  // (dataset order, ids ascending), the writer's next id, and the update
  // sequence the checkpoint captures, so a DynamicCellIndex can be
  // restored and continue applying the journal records past it.
  static void Write(const std::string& path, const dbscan::CellIndex<D>& index,
                    std::span<const uint64_t> live_ids, uint64_t next_id,
                    uint64_t journal_generation = 0,
                    dbscan::PipelineStats* stats = nullptr) {
    WriteSnapshotRaw<D>(path, index.cells(), index.neighbor_counts().span(),
                        index.counts_cap(), index.options(), live_ids,
                        next_id, journal_generation, stats);
  }
};

// The result of a load: the rehydrated index plus any streaming writer
// state the snapshot carried.
template <int D>
struct LoadedSnapshot {
  std::shared_ptr<const dbscan::CellIndex<D>> index;
  bool has_stream_state = false;
  std::vector<uint64_t> live_ids;  // Dataset order (ids ascending).
  uint64_t next_id = 0;
  uint64_t journal_generation = 0;
};

template <int D>
class SnapshotReader {
 public:
  // Loads and fully validates `path`. Throws PersistError on corruption,
  // truncation, version or endianness mismatch, and std::invalid_argument
  // style errors surface as PersistError too (wrapped by message). The
  // snapshot's dimension must equal D — use PeekSnapshot to dispatch.
  static LoadedSnapshot<D> Load(const std::string& path,
                                LoadMode mode = LoadMode::kOwned,
                                dbscan::PipelineStats* stats = nullptr) {
    static_assert(kLayoutIsPortable<D>,
                  "Point/BBox/CellCoords must be flat arrays of words");
    util::Timer timer;
    telemetry::TraceSpan span("snapshot_load");
    LoadedSnapshot<D> out;
    std::shared_ptr<const MappedFile> map;
    std::shared_ptr<std::vector<uint8_t>> owned_bytes;
    const uint8_t* data = nullptr;
    size_t size = 0;
    if (mode == LoadMode::kMapped) {
      map = MappedFile::Open(path);
      data = map->data();
      size = map->size();
    } else {
      owned_bytes =
          std::make_shared<std::vector<uint8_t>>(ReadAllBytes(path));
      data = owned_bytes->data();
      size = owned_bytes->size();
    }
    const SnapshotHeader h = internal::ValidateHeader(path, data, size);
    if (h.dim != D) {
      throw PersistError(path + ": snapshot dimension " +
                         std::to_string(h.dim) + " does not match " +
                         std::to_string(D));
    }
    const SnapshotLayout layout = internal::ValidatePayload(path, h, data,
                                                            size);
    const Options options = DecodeOptions(h.options, path);

    dbscan::CellStructure<D> cells;
    cells.epsilon = h.epsilon;
    cells.metric = options.metric;
    const size_t n = static_cast<size_t>(h.num_points);
    const size_t m = static_cast<size_t>(h.num_cells);
    AdoptArray<geometry::Point<D>>(cells.points, data, layout.points, n,
                                   mode);
    AdoptArray<uint32_t>(cells.orig_index, data, layout.orig_index, n, mode);
    AdoptArray<size_t>(cells.offsets, data, layout.offsets, m + 1, mode);
    AdoptArray<geometry::CellCoords<D>>(
        cells.coords, data, layout.coords,
        (h.flags & kFlagHasCoords) ? m : 0, mode);
    AdoptArray<geometry::BBox<D>>(cells.cell_boxes, data, layout.cell_boxes,
                                  m, mode);
    AdoptArray<size_t>(cells.nbr_offsets, data, layout.nbr_offsets, m + 1,
                       mode);
    AdoptArray<uint32_t>(cells.nbrs, data, layout.nbrs,
                         static_cast<size_t>(h.num_neighbor_links), mode);
    containers::FlatArray<uint32_t> counts;
    AdoptArray<uint32_t>(counts, data, layout.neighbor_counts, n, mode);

    // SoA coordinate lanes for the distance kernels are derived data, never
    // part of the wire format. A mapped load keeps its zero-copy guarantee
    // by viewing lane d as every D-th double of the mapped AoS point array
    // (the kernels read strided lanes through their scalar path); an owned
    // load materializes packed aligned lanes like any other builder.
    if (mode == LoadMode::kMapped) {
      cells.ViewSoALanesFromPoints();
    } else {
      cells.BuildSoALanes();
    }

    // In mapped mode the index pins the mapping; owned mode pins nothing
    // (the FlatArrays own their copies and `owned_bytes` dies here).
    std::shared_ptr<const void> payload =
        mode == LoadMode::kMapped ? std::shared_ptr<const void>(map)
                                  : nullptr;
    out.index = std::make_shared<const dbscan::CellIndex<D>>(
        std::move(cells), std::move(counts),
        static_cast<size_t>(h.counts_cap), options, stats,
        std::move(payload));

    out.has_stream_state = (h.flags & kFlagStreamState) != 0;
    out.journal_generation = h.journal_generation;
    if (out.has_stream_state) {
      const uint64_t* ids =
          reinterpret_cast<const uint64_t*>(data + layout.live_ids.offset);
      out.live_ids.assign(ids, ids + n);
      out.next_id = h.next_id;
      for (const uint64_t id : out.live_ids) {
        if (id >= out.next_id) {
          throw PersistError(path + ": live id beyond the next-id horizon");
        }
      }
    }

    dbscan::PipelineStats& sink =
        stats != nullptr ? *stats : dbscan::GlobalStats();
    sink.snapshot_bytes_read.fetch_add(h.file_bytes,
                                       std::memory_order_relaxed);
    dbscan::AddSeconds(sink.snapshot_load_seconds, timer.Seconds());
    return out;
  }

 private:
  template <typename T>
  static void AdoptArray(containers::FlatArray<T>& dst, const uint8_t* base,
                         const SnapshotLayout::Section& section, size_t count,
                         LoadMode mode) {
    const T* src = reinterpret_cast<const T*>(base + section.offset);
    if (mode == LoadMode::kMapped) {
      dst = containers::FlatArray<T>::View(src, count);
    } else {
      std::vector<T> copy(count);
      // An empty section leaves copy.data() null, which memcpy forbids.
      if (count != 0) std::memcpy(copy.data(), src, count * sizeof(T));
      dst = std::move(copy);
    }
  }
};

}  // namespace pdbscan::persist

#endif  // PDBSCAN_PERSIST_SNAPSHOT_H_
