// Index persistence throughput: cold-start load vs rebuild (time and
// bytes), for both load modes, plus snapshot+journal recovery of the
// streaming path — reported like the fig6-10 harness (aligned tables +
// #csv rows).
//
// Three phases:
//
//   1. Snapshot round trip — builds a CellIndex over the 2D-SS-varden
//      dataset, saves it, and loads it back in kOwned and kMapped mode.
//      Reported per row: save/load seconds, file MB, the speedup of each
//      load over the from-scratch build (the cold-start win persistence
//      exists for; kMapped's load cost is validation only), and whether
//      the loaded index's labels are bit-identical to the live index's.
//   2. The same round trip at several min_pts settings (within and beyond
//      the saved counts cap, exercising the recount path over loaded —
//      including mapped — storage).
//   3. Journal recovery — a WriterNode run with a manual mid-stream
//      checkpoint, then a timed WriterNode recovery (owned checkpoint load
//      + replay of the delta) and a timed kMapped ReplicaNode cold start.
//      Both must be bit-identical to the uninterrupted writer and replay
//      exactly the delta (journal_records_replayed), not the dataset.
//
// EXIT CODE enforces the acceptance property: every bit-identity check
// must pass (and every load must be no slower than the rebuild it
// replaces at default scale — reported, not enforced, since tiny scaled
// runs are dominated by constant costs).
//
// Scaled by PDBSCAN_BENCH_SCALE as usual.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace {

bool Identical(const pdbscan::Clustering& a, const pdbscan::Clustering& b) {
  return a.num_clusters == b.num_clusters && a.cluster == b.cluster &&
         a.is_core == b.is_core &&
         a.membership_offsets == b.membership_offsets &&
         a.membership_ids == b.membership_ids;
}

}  // namespace

int main() {
  using namespace pdbscan;
  using namespace pdbscan::bench;
  namespace fs = std::filesystem;

  const size_t n = ScaledN(100000);
  const double eps = 300;  // The 2D-SS-varden defaults of the fig11 suite.
  const size_t counts_cap = 100;
  const size_t min_pts = 10;
  bool all_identical = true;

  const fs::path dir =
      fs::temp_directory_path() / "pdbscan_bench_persist";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string snap_path = (dir / "index.pdbsnap").string();

  std::printf("=== Index persistence: cold-start load vs rebuild ===\n");
  std::printf("dataset=2D-SS-varden n=%zu eps=%g counts_cap=%zu minpts=%zu\n\n",
              n, eps, counts_cap, min_pts);

  const auto pts = data::SsVarden<2>(n);

  // --- Phase 1: build, save, load both ways. ------------------------------
  dbscan::PipelineStats persist_stats;
  util::Timer timer;
  auto live = CellIndex<2>::Build(pts, eps, counts_cap);
  const double build_seconds = timer.Seconds();

  timer.Reset();
  SaveIndex<2>(snap_path, *live, &persist_stats);
  const double save_seconds = timer.Seconds();
  const double file_mb =
      static_cast<double>(persist_stats.snapshot_bytes_written.load()) /
      (1024.0 * 1024.0);

  QueryContext<2> live_ctx;
  const Clustering reference = live_ctx.Run(*live, min_pts);

  util::BenchTable table({"path", "seconds", "file_mb", "vs_rebuild",
                          "identical"});
  table.AddRow({"build", util::BenchTable::Num(build_seconds), "-", "1x",
                "-"});
  table.AddRow({"save", util::BenchTable::Num(save_seconds),
                util::BenchTable::Num(file_mb, 5), "-", "-"});

  std::shared_ptr<const CellIndex<2>> loaded_owned, loaded_mapped;
  for (const LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
    const char* name = mode == LoadMode::kMapped ? "load-mapped" : "load-owned";
    timer.Reset();
    auto loaded = LoadIndex<2>(snap_path, mode, &persist_stats);
    const double load_seconds = timer.Seconds();
    QueryContext<2> ctx;
    const bool identical =
        Identical(reference, ctx.Run(loaded, min_pts));
    all_identical = all_identical && identical;
    table.AddRow({name, util::BenchTable::Num(load_seconds),
                  util::BenchTable::Num(file_mb, 5),
                  util::BenchTable::Num(build_seconds / load_seconds, 3) + "x",
                  identical ? "yes" : "NO"});
    (mode == LoadMode::kMapped ? loaded_mapped : loaded_owned) = loaded;
  }
  table.Print();
  std::printf("#csv persist,build,%zu,%.6f,0,1x,-\n", n, build_seconds);
  std::printf("#csv persist,save,%zu,%.6f,%.3f,-,-\n", n, save_seconds,
              file_mb);

  // --- Phase 2: serving equivalence across min_pts (incl. over-cap). ------
  std::printf("\n--- serving equivalence across min_pts ---\n");
  util::BenchTable sweep_table({"minpts", "owned_identical",
                                "mapped_identical"});
  for (const size_t m : {size_t{2}, min_pts, counts_cap + 50}) {
    const Clustering want = live_ctx.Run(*live, m);
    QueryContext<2> co, cm;
    const bool owned_ok =
        Identical(want, co.Run(loaded_owned, m));
    const bool mapped_ok =
        Identical(want, cm.Run(loaded_mapped, m));
    all_identical = all_identical && owned_ok && mapped_ok;
    sweep_table.AddRow({std::to_string(m), owned_ok ? "yes" : "NO",
                        mapped_ok ? "yes" : "NO"});
    std::printf("#csv persist,minpts-%zu,%zu,0,0,%s,%s\n", m, n,
                owned_ok ? "yes" : "NO", mapped_ok ? "yes" : "NO");
  }
  sweep_table.Print();

  // --- Phase 3: checkpoint + journal recovery of a live dataset. ----------
  std::printf("\n--- streaming recovery: checkpoint + journal replay ---\n");
  const size_t batch = std::max<size_t>(n / 100, 1);
  const size_t batches_before = 4, batches_after = 4;
  const std::string stream_dir = (dir / "stream").string();
  WriterOptions manual;
  manual.checkpoint_every = 0;
  Clustering want;
  size_t live_points = 0;
  {
    WriterNode<2> writer(stream_dir, eps, counts_cap, Options(), manual);
    uint64_t cursor = 0;
    for (size_t b = 0; b < batches_before + batches_after; ++b) {
      if (b == batches_before) {
        timer.Reset();
        writer.Checkpoint();
        std::printf("checkpoint after %zu batches: %.3fs (%zu points)\n",
                    batches_before, timer.Seconds(),
                    writer.index().num_points());
      }
      const auto inserts = data::SsVarden<2>(batch, /*seed=*/1000 + b);
      std::vector<uint64_t> erases;
      if (b > 0) {
        for (size_t k = 0; k < batch / 4; ++k) erases.push_back(cursor++);
      }
      writer.ApplyUpdates(std::span<const Point<2>>(inserts),
                          std::span<const uint64_t>(erases));
    }
    // Uninterrupted state to compare recovery against; the writer then
    // closes and recovery reopens its directory.
    want = writer.pool().Run(min_pts);
    live_points = writer.index().num_points();
  }
  auto report = [&](const char* path, double seconds,
                    const dbscan::PipelineStats& stats,
                    EnginePool<2>& pool) {
    const bool identical = Identical(want, pool.Run(min_pts));
    const size_t replayed = stats.journal_records_replayed.load();
    const bool delta_proportional = replayed == batches_after;
    all_identical = all_identical && identical && delta_proportional;
    std::printf("%s: %.3fs, %zu journal records replayed (expected %zu), "
                "%zu live points, identical=%s\n",
                path, seconds, replayed, batches_after, live_points,
                identical ? "yes" : "NO");
    std::printf("#csv persist,%s,%zu,%.6f,%zu,%s,%s\n", path, live_points,
                seconds, replayed, identical ? "yes" : "NO",
                delta_proportional ? "yes" : "NO");
  };
  {
    dbscan::PipelineStats stats;
    timer.Reset();
    WriterNode<2> recovered(stream_dir, eps, counts_cap, Options(), manual,
                            &stats);
    report("recover-writer", timer.Seconds(), stats, recovered.pool());
  }
  {
    dbscan::PipelineStats stats;
    timer.Reset();
    // ReplicaOptions' default load mode is kMapped.
    ReplicaNode<2> replica(stream_dir, eps, counts_cap, Options(),
                           ReplicaOptions(), &stats);
    report("cold-start-replica-mapped", timer.Seconds(), stats,
           replica.pool());
  }

  fs::remove_all(dir);
  if (!all_identical) {
    std::printf("\nFAIL: a loaded or recovered index diverged from the live "
                "run\n");
    return 1;
  }
  std::printf("\nOK: every loaded and recovered index is bit-identical to "
              "the live run\n");
  return 0;
}
