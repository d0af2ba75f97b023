// Sharded build throughput: per-shard build / interior count / boundary
// merge time vs shard count against a ShardedCellIndex, reported like the
// fig6-10 harness (aligned tables + #csv rows).
//
// Sharding is a build-time decomposition — queries against the merged
// index are ordinary CellIndex queries — so the interesting axes are:
//
//   * how build wall time moves as the shard count grows (per-shard
//     structures and interior counts run concurrently on the scheduler);
//   * how the merge stage scales: its touched-cell count must equal the
//     boundary-cell count of the plan (cells within one halo of a seam)
//     and therefore grow with the number of seams, NOT with the dataset.
//
// The exit code enforces the second property: for every shard count the
// merge-stage recounted cells must exactly match the independently counted
// seam-adjacent cells, the boundary fraction at 2 shards must be well
// under half the cells, and every published clustering must be
// bit-identical to the unsharded reference. Scaled by PDBSCAN_BENCH_SCALE
// as usual.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "sharding/sharded_cell_index.h"

int main() {
  using namespace pdbscan;
  using namespace pdbscan::bench;

  const size_t n = ScaledN(100000);
  const double eps = 300;  // The 2D-SS-varden defaults of the fig11 suite.
  const size_t counts_cap = 100;
  const size_t min_pts = 10;

  std::printf("=== Sharded builds: partition -> per-shard -> boundary merge "
              "===\n");
  std::printf("dataset=2D-SS-varden n=%zu eps=%g counts_cap=%zu minpts=%zu, "
              "hardware threads=%u\n\n",
              n, eps, counts_cap, min_pts,
              std::thread::hardware_concurrency());

  const auto pts = data::SsVarden<2>(n);

  // Unsharded references: build cost and the clustering every sharded run
  // must reproduce bit for bit.
  util::Timer build_timer;
  auto reference_index = CellIndex<2>::Build(pts, eps, counts_cap);
  const double unsharded_build_seconds = build_timer.Seconds();
  const size_t total_cells = reference_index->num_cells();
  const Clustering reference = Dbscan<2>(pts, eps, min_pts);
  std::printf("unsharded CellIndex build: %.3fs (%zu cells)\n\n",
              unsharded_build_seconds, total_cells);

  util::BenchTable table({"shards", "build_sec", "shard_sec", "count_sec",
                          "merge_sec", "boundary_cells", "interior_cells",
                          "boundary_frac", "seam_links", "query_sec",
                          "identical", "merge_exact"});
  bool all_identical = true;
  bool all_merge_exact = true;
  bool boundary_grows = true;
  size_t max_boundary = 0;
  size_t prev_boundary = 0;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                              size_t{16}}) {
    dbscan::PipelineStats stats;
    util::Timer timer;
    ShardedCellIndex<2> sharded(pts, eps, counts_cap, shards, Options(),
                                &stats);
    const double build_seconds = timer.Seconds();
    const auto& info = sharded.build_info();

    // Independent accounting of the seam: cells the PLAN marks boundary.
    // The merge stage must have recounted exactly these and nothing else.
    size_t plan_boundary = 0;
    const auto& cells = sharded.index()->cells();
    for (size_t c = 0; c < cells.num_cells(); ++c) {
      if (sharded.plan().IsBoundary(cells.coords[c][sharded.plan().axis])) {
        ++plan_boundary;
      }
    }
    const bool merge_exact =
        info.boundary_cells == plan_boundary &&
        stats.shard_boundary_cells.load() == plan_boundary &&
        info.interior_cells + info.boundary_cells == total_cells;

    timer.Reset();
    dbscan::QueryContext<2> ctx;
    const Clustering got = ctx.Run(*sharded.index(), min_pts);
    const double query_seconds = timer.Seconds();
    const bool identical =
        reference.num_clusters == got.num_clusters &&
        reference.cluster == got.cluster && reference.is_core == got.is_core &&
        reference.membership_offsets == got.membership_offsets &&
        reference.membership_ids == got.membership_ids;

    all_identical = all_identical && identical;
    all_merge_exact = all_merge_exact && merge_exact;
    if (info.boundary_cells > max_boundary) max_boundary = info.boundary_cells;
    if (shards > 1 && info.boundary_cells < prev_boundary) {
      boundary_grows = false;
    }
    prev_boundary = info.boundary_cells;

    const double frac = total_cells > 0
                            ? double(info.boundary_cells) / double(total_cells)
                            : 0.0;
    table.AddRow({std::to_string(sharded.num_shards()),
                  util::BenchTable::Num(build_seconds, 4),
                  util::BenchTable::Num(info.shard_build_seconds, 4),
                  util::BenchTable::Num(info.shard_count_seconds, 4),
                  util::BenchTable::Num(info.merge_seconds, 4),
                  std::to_string(info.boundary_cells),
                  std::to_string(info.interior_cells),
                  util::BenchTable::Num(frac, 4),
                  std::to_string(info.seam_links),
                  util::BenchTable::Num(query_seconds, 4),
                  identical ? "yes" : "NO", merge_exact ? "yes" : "NO"});
  }
  table.Print();
  table.PrintCsv();

  // The acceptance properties: merge work == seam size (exactly), the seam
  // stays a minority of the cells at EVERY tested shard count (checked on
  // the worst row, so the gate is non-vacuous as soon as any cut crosses
  // populated space), and more seams mean more (never fewer) boundary
  // cells.
  const bool seam_is_small = max_boundary * 2 < total_cells;
  const bool proportional =
      all_merge_exact && seam_is_small && boundary_grows;
  std::printf("\nproportional=%s (merge recounts exactly the seam cells: %s; "
              "worst seam %zu of %zu cells; boundary %s with shard "
              "count)\n",
              proportional ? "yes" : "NO", all_merge_exact ? "yes" : "NO",
              max_boundary, total_cells,
              boundary_grows ? "grows" : "DOES NOT GROW");
  std::printf("identical=%s (every sharded clustering vs the unsharded "
              "reference)\n",
              all_identical ? "yes" : "NO");
  return proportional && all_identical ? 0 : 1;
}
