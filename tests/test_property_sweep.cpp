// Randomized property sweep: for a wide range of generated configurations
// (data shape, n, epsilon, minPts, dimension), every exact variant must
// reproduce the brute-force clustering exactly, every approximate variant
// must satisfy the Gan–Tao definition, and the streaming surface must stay
// equivalent to from-scratch runs across randomized insert/erase batches.
// This is the broadest correctness net in the suite; each case is small
// enough for the O(n^2) oracle.
//
// PDBSCAN_SWEEP_BUDGET multiplies the case counts (default 1); the
// slow-sweep ctest label runs this binary at a larger budget.
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dbscan/verify.h"
#include "kernels/kernel_api.h"
#include "pdbscan/pdbscan.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

using dbscan::BruteForceDbscan;
using dbscan::IsValidApproxClustering;
using dbscan::SameClustering;
using geometry::Point;
using pdbscan::testing::GenerateShape;
using pdbscan::testing::MakeCases;
using pdbscan::testing::Shape;
using pdbscan::testing::SweepBudget;

class PropertySweep2d : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertySweep2d, AllExactVariantsMatchOracle) {
  for (const auto& c : MakeCases(GetParam(), 6 * SweepBudget())) {
    auto pts = GenerateShape<2>(c.shape, c.n, c.seed);
    const auto expected = BruteForceDbscan<2>(pts, c.epsilon, c.min_pts);
    const std::vector<Options> configs = {
        Our2dGridBcp(),          OurExactQt(),      Our2dGridUsec(),
        Our2dGridDelaunay(),     Our2dBoxBcp(),     Our2dBoxUsec(),
        Our2dBoxDelaunay(),      WithBucketing(Our2dGridBcp()),
        WithBucketing(Our2dBoxUsec())};
    for (const auto& options : configs) {
      const auto got = Dbscan<2>(pts, c.epsilon, c.min_pts, options);
      ASSERT_TRUE(SameClustering(expected, got))
          << options.Name() << " shape=" << static_cast<int>(c.shape)
          << " n=" << c.n << " eps=" << c.epsilon << " minpts=" << c.min_pts
          << " seed=" << c.seed << pdbscan::testing::SeedNote();
    }
  }
}

TEST_P(PropertySweep2d, ApproxVariantsSatisfyDefinition) {
  std::mt19937_64 rng(GetParam() * 77 + 1);
  for (const auto& c : MakeCases(GetParam() + 1000, 4 * SweepBudget())) {
    auto pts = GenerateShape<2>(c.shape, c.n, c.seed);
    const double rho_choices[] = {0.01, 0.1, 0.6};
    const double rho = rho_choices[rng() % 3];
    for (const auto& options : {OurApprox(rho), OurApproxQt(rho)}) {
      const auto got = Dbscan<2>(pts, c.epsilon, c.min_pts, options);
      ASSERT_TRUE(
          IsValidApproxClustering<2>(pts, c.epsilon, c.min_pts, rho, got))
          << options.Name() << " rho=" << rho << " n=" << c.n
          << " eps=" << c.epsilon << " seed=" << c.seed << pdbscan::testing::SeedNote();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep2d,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class PropertySweep3d : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertySweep3d, ExactAndApproxAgainstOracle) {
  for (const auto& c : MakeCases(GetParam() + 5000, 4 * SweepBudget())) {
    auto pts = GenerateShape<3>(c.shape, c.n, c.seed);
    const auto expected = BruteForceDbscan<3>(pts, c.epsilon, c.min_pts);
    for (const auto& options :
         {OurExact(), OurExactQt(), WithBucketing(OurExactQt())}) {
      const auto got = Dbscan<3>(pts, c.epsilon, c.min_pts, options);
      ASSERT_TRUE(SameClustering(expected, got))
          << options.Name() << " n=" << c.n << " eps=" << c.epsilon
          << " seed=" << c.seed << pdbscan::testing::SeedNote();
    }
    const auto approx = Dbscan<3>(pts, c.epsilon, c.min_pts, OurApproxQt(0.05));
    ASSERT_TRUE(
        IsValidApproxClustering<3>(pts, c.epsilon, c.min_pts, 0.05, approx));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep3d,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class PropertySweepHighDim : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertySweepHighDim, FiveAndSevenDimensions) {
  {
    auto c = MakeCases(GetParam() + 9000, 1)[0];
    auto pts = GenerateShape<5>(c.shape, std::min<size_t>(c.n, 250), c.seed);
    const auto expected = BruteForceDbscan<5>(pts, c.epsilon * 2, c.min_pts);
    for (const auto& options : {OurExact(), OurExactQt()}) {
      ASSERT_TRUE(SameClustering(
          expected, Dbscan<5>(pts, c.epsilon * 2, c.min_pts, options)))
          << options.Name() << " seed=" << c.seed << pdbscan::testing::SeedNote();
    }
  }
  {
    auto c = MakeCases(GetParam() + 11000, 1)[0];
    auto pts = GenerateShape<7>(c.shape, std::min<size_t>(c.n, 200), c.seed);
    const auto expected = BruteForceDbscan<7>(pts, c.epsilon * 3, c.min_pts);
    for (const auto& options : {OurExact(), OurExactQt()}) {
      ASSERT_TRUE(SameClustering(
          expected, Dbscan<7>(pts, c.epsilon * 3, c.min_pts, options)))
          << options.Name() << " seed=" << c.seed << pdbscan::testing::SeedNote();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweepHighDim,
                         ::testing::Values(1, 2, 3, 4));

// --- Streaming: incremental maintenance vs. from-scratch rebuild ------------

// Applies one randomized batch to `stream`: fresh points drawn from the
// shape family, erases of a random subset of the `live` ids (kept current).
template <int D>
void ApplyRandomBatch(StreamingClusterer<D>& stream,
                      std::vector<uint64_t>& live, Shape shape,
                      std::mt19937_64& rng) {
  const auto ins = GenerateShape<D>(shape, 30 + rng() % 60, rng());
  std::shuffle(live.begin(), live.end(), rng);
  const size_t erase_n = live.empty() ? 0 : rng() % (live.size() / 2 + 1);
  std::vector<uint64_t> del(live.begin(),
                            live.begin() + static_cast<ptrdiff_t>(erase_n));
  live.erase(live.begin(), live.begin() + static_cast<ptrdiff_t>(erase_n));
  const uint64_t first = stream.ApplyUpdates(ins, del);
  for (size_t i = 0; i < ins.size(); ++i) live.push_back(first + i);
}

// Applies `rounds` randomized insert/erase batches over every shape to a
// StreamingClusterer and, after each batch, checks the published snapshot
// against a from-scratch Dbscan on the mutated dataset (SameClustering) and
// — as final arbiter — the brute-force oracle.
template <int D>
void StreamingMatchesRebuild(Shape shape, double epsilon, size_t rounds,
                             uint64_t seed) {
  std::mt19937_64 rng(seed);
  StreamingClusterer<D> stream(epsilon, /*counts_cap=*/25);
  std::vector<uint64_t> live;
  for (size_t round = 0; round < rounds; ++round) {
    ApplyRandomBatch(stream, live, shape, rng);

    const auto pts = stream.LivePoints();
    ASSERT_EQ(pts.size(), live.size());
    const size_t min_pts = 1 + rng() % 12;
    const auto got = stream.Run(min_pts);
    const auto rebuilt = Dbscan<D>(pts, epsilon, min_pts);
    ASSERT_TRUE(SameClustering(rebuilt, got))
        << "streaming vs rebuild: shape=" << static_cast<int>(shape)
        << " D=" << D << " round=" << round << " n=" << pts.size()
        << " minpts=" << min_pts << " seed=" << seed << pdbscan::testing::SeedNote();
    const auto oracle = BruteForceDbscan<D>(
        std::span<const Point<D>>(pts), epsilon, min_pts);
    ASSERT_TRUE(SameClustering(oracle, got))
        << "streaming vs oracle: shape=" << static_cast<int>(shape)
        << " D=" << D << " round=" << round << " n=" << pts.size()
        << " minpts=" << min_pts << " seed=" << seed << pdbscan::testing::SeedNote();
  }
}

class StreamingPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingPropertySweep, BatchesMatchRebuildAllShapes2d) {
  for (const Shape shape : pdbscan::testing::kAllShapes) {
    StreamingMatchesRebuild<2>(shape, 1.1, 3 * SweepBudget(),
                               GetParam() * 131 + static_cast<int>(shape));
  }
}

TEST_P(StreamingPropertySweep, BatchesMatchRebuild3d) {
  for (const Shape shape :
       {Shape::kUniform, Shape::kBlobs, Shape::kGridish}) {
    StreamingMatchesRebuild<3>(shape, 2.0, 2 * SweepBudget(),
                               GetParam() * 733 + static_cast<int>(shape));
  }
}

TEST_P(StreamingPropertySweep, BatchesMatchRebuild5d) {
  StreamingMatchesRebuild<5>(Shape::kBlobs, 4.0, 2, GetParam() * 977);
}

// The 2D-only exact connectors (USEC wavefronts, Delaunay edge filtering)
// and bucketing run against a recomposed snapshot, whose cell order is not
// the semisort order, exactly as against a built index: after every batch
// the full contract matches a one-shot Dbscan with the same options.
TEST_P(StreamingPropertySweep, ExactConnectorsOverStreamingIndex2d) {
  const double eps = 1.1;
  for (const auto& options :
       {Our2dGridUsec(), Our2dGridDelaunay(), WithBucketing(Our2dGridBcp())}) {
    for (const Shape shape : pdbscan::testing::kAllShapes) {
      const uint64_t seed = GetParam() * 613 + static_cast<int>(shape);
      std::mt19937_64 rng(seed);
      StreamingClusterer<2> stream(eps, /*counts_cap=*/24, options);
      std::vector<uint64_t> live;
      for (size_t round = 0; round < 3 * SweepBudget(); ++round) {
        ApplyRandomBatch(stream, live, shape, rng);
        const size_t min_pts = 1 + rng() % 12;
        ASSERT_TRUE(pdbscan::testing::Identical(
            Dbscan<2>(stream.LivePoints(), eps, min_pts, options),
            stream.Run(min_pts)))
            << options.Name() << " shape=" << static_cast<int>(shape)
            << " round=" << round << " minpts=" << min_pts
            << " seed=" << seed << pdbscan::testing::SeedNote();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingPropertySweep,
                         ::testing::Values(1, 2, 3));

// Persistence: for randomized configurations, save -> load (both modes)
// -> Run + Sweep must be bit-identical to the live-built index. Exact and
// approximate variants alike — a loaded approximate index reproduces the
// SAME approximate clustering it was saved with (determinism of the frozen
// artifact), which is a stronger property than re-satisfying the Gan–Tao
// definition.
template <int D>
void PersistCase(uint64_t base_seed, size_t cases,
                 const std::vector<Options>& configs) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pdbscan_prop_persist_" + std::to_string(::getpid()) + "_" +
        std::to_string(D) + "d.pdbsnap"))
          .string();
  std::mt19937_64 rng(base_seed * 131 + D);
  for (const auto& c : MakeCases(base_seed, cases)) {
    auto pts = GenerateShape<D>(c.shape, c.n, c.seed);
    const size_t cap = 1 + rng() % 24;
    for (const auto& options : configs) {
      auto live = CellIndex<D>::Build(pts, c.epsilon, cap, options);
      SaveIndex<D>(path, *live);
      QueryContext<D> live_ctx, ctx;
      const std::vector<size_t> sweep = {c.min_pts, c.min_pts + cap, 1};
      const auto expected =
          live_ctx.Sweep(*live, std::span<const size_t>(sweep));
      for (const LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
        auto loaded = LoadIndex<D>(path, mode);
        const auto got = ctx.Sweep(*loaded, std::span<const size_t>(sweep));
        ASSERT_EQ(expected.size(), got.size());
        for (size_t i = 0; i < sweep.size(); ++i) {
          ASSERT_TRUE(pdbscan::testing::Identical(expected[i], got[i]))
              << options.Name() << " d=" << D
              << (mode == LoadMode::kMapped ? " mapped" : " owned")
              << " shape=" << static_cast<int>(c.shape) << " n=" << c.n
              << " eps=" << c.epsilon << " cap=" << cap
              << " minpts=" << sweep[i] << " seed=" << c.seed << pdbscan::testing::SeedNote();
        }
      }
    }
  }
  std::remove(path.c_str());
}

class PersistPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistPropertySweep, LoadedIndexesBitIdentical2d) {
  PersistCase<2>(GetParam(), 2 * SweepBudget(),
                 {Our2dGridBcp(), Our2dBoxUsec(), OurExactQt(),
                  OurApprox(0.1)});
}

TEST_P(PersistPropertySweep, LoadedIndexesBitIdentical3d) {
  PersistCase<3>(GetParam() + 4000, 2 * SweepBudget(),
                 {OurExact(), OurApprox(0.1), OurApproxQt(0.01)});
}

TEST_P(PersistPropertySweep, LoadedIndexesBitIdentical5d) {
  PersistCase<5>(GetParam() + 5000, SweepBudget(),
                 {OurExact(), OurApprox(0.1)});
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistPropertySweep,
                         ::testing::Values(1, 2, 3));

// --- Kernel dispatch levels: SIMD vs scalar bit-identity --------------------

// Restores the ambient dispatch level (which may itself be forced via
// PDBSCAN_FORCE_KERNEL, e.g. the CI matrix) when a forced-level test exits.
struct ScopedKernelLevel {
  kernels::Level original = kernels::ActiveLevel();
  ~ScopedKernelLevel() { kernels::ForceLevel(original); }
};

// For randomized cases, every supported dispatch level must reproduce the
// scalar kernel's result bit for bit: the full clustering contract (labels,
// core flags, memberships) through both range-count methods, AND the raw
// saturated MarkCore neighbor counts of a built index. Runs at 1 worker and
// the ambient worker count — kernels are dispatched per call, so neither
// scheduling nor partitioning may leak into the answer.
template <int D>
void KernelLevelsBitIdentical(uint64_t base_seed, size_t cases,
                              double eps_scale) {
  ScopedKernelLevel restore;
  const std::vector<kernels::Level> levels = kernels::SupportedLevels();
  std::mt19937_64 rng(base_seed * 517 + D);
  for (const auto& c : MakeCases(base_seed + 41000, cases)) {
    auto pts = GenerateShape<D>(c.shape, c.n, c.seed);
    const double epsilon = c.epsilon * eps_scale;
    const size_t cap = 1 + rng() % 24;
    for (const auto& options : {OurExact(), OurExactQt()}) {
      for (const int workers : {1, parallel::num_workers()}) {
        parallel::ScopedNumWorkers scoped(workers);
        kernels::ForceLevel(kernels::Level::kScalar);
        const auto expected = Dbscan<D>(pts, epsilon, c.min_pts, options);
        const auto ref_index = CellIndex<D>::Build(pts, epsilon, cap, options);
        for (const kernels::Level level : levels) {
          if (level == kernels::Level::kScalar) continue;
          kernels::ForceLevel(level);
          const auto got = Dbscan<D>(pts, epsilon, c.min_pts, options);
          ASSERT_TRUE(pdbscan::testing::Identical(expected, got))
              << kernels::LevelName(level) << " vs scalar: " << options.Name()
              << " D=" << D << " shape=" << static_cast<int>(c.shape)
              << " n=" << c.n << " eps=" << epsilon
              << " minpts=" << c.min_pts << " workers=" << workers
              << " seed=" << c.seed << pdbscan::testing::SeedNote();
          const auto index = CellIndex<D>::Build(pts, epsilon, cap, options);
          ASSERT_TRUE(ref_index->neighbor_counts() == index->neighbor_counts())
              << kernels::LevelName(level)
              << " MarkCore counts diverge: " << options.Name() << " D=" << D
              << " n=" << c.n << " eps=" << epsilon << " cap=" << cap
              << " workers=" << workers << " seed=" << c.seed << pdbscan::testing::SeedNote();
        }
      }
    }
  }
}

class KernelPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelPropertySweep, AllLevelsBitIdentical2d) {
  KernelLevelsBitIdentical<2>(GetParam(), 4 * SweepBudget(), 1.0);
}

TEST_P(KernelPropertySweep, AllLevelsBitIdentical3d) {
  KernelLevelsBitIdentical<3>(GetParam() + 300, 2 * SweepBudget(), 2.0);
}

TEST_P(KernelPropertySweep, AllLevelsBitIdentical5d) {
  KernelLevelsBitIdentical<5>(GetParam() + 600, SweepBudget(), 3.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPropertySweep,
                         ::testing::Values(1, 2, 3));

// --- Serving scheduler: every response vs a fresh run at its generation -----

// Randomized request streams through a manual-pump ServingScheduler with
// randomized toggles (cache on/off, coalescing on/off), interleaved with
// snapshot swaps that change both the dataset and epsilon. The property:
// every response is bit-identical to a fresh query against the snapshot of
// the GENERATION it reports having been served from — regardless of how
// requests were batched, cached, or raced with ReplaceIndex. Runs at 1
// worker and the ambient worker count (inner parallelism must not leak
// into served results any more than into direct runs).
template <int D>
void ServingMatchesGenerationFreshRuns(uint64_t seed, size_t rounds) {
  std::mt19937_64 rng(seed);
  const double eps_choices[] = {0.9, 1.4, 2.2, 3.6};
  auto build = [&](uint64_t point_seed, double epsilon) {
    const auto pts = GenerateShape<D>(
        pdbscan::testing::kAllShapes[rng() % 5], 60 + rng() % 140, point_seed);
    const size_t cap = 1 + rng() % 24;
    return CellIndex<D>::Build(pts, epsilon, cap);
  };

  for (const int workers : {1, parallel::num_workers()}) {
    parallel::ScopedNumWorkers scoped(workers);
    auto index = build(rng(), eps_choices[rng() % 4]);
    EnginePool<D> pool(index);
    parallel::FakeClock clock;

    parallel::ServingOptions opts;
    opts.num_executors = 0;  // The sweep pumps deterministically.
    opts.clock = &clock;
    opts.queue_limit = 1024;  // Never overloads: every response must be kOk.
    opts.default_timeout_nanos = parallel::kNeverNanos;
    opts.cache_capacity = rng() % 2 == 0 ? 16 : 0;
    opts.coalescing = rng() % 2 == 0;
    ServingScheduler<D> scheduler(pool, opts);

    // The generation -> snapshot history the responses are audited against.
    std::map<uint64_t, std::shared_ptr<const CellIndex<D>>> by_gen;
    by_gen[pool.generation()] = index;

    std::vector<std::pair<size_t, std::future<ServeResult>>> pending;
    for (size_t round = 0; round < rounds; ++round) {
      switch (rng() % 4) {
        case 0:
        case 1: {  // Submit (more often than the other actions).
          const size_t m = 1 + rng() % 12;
          pending.emplace_back(m, scheduler.SubmitAsync(m));
          break;
        }
        case 2:  // Execute whatever queued.
          scheduler.Pump();
          break;
        case 3: {  // Swap the snapshot mid-stream.
          auto next = build(rng(), eps_choices[rng() % 4]);
          pool.ReplaceIndex(next);
          by_gen[pool.generation()] = next;
          break;
        }
      }
    }
    while (scheduler.Pump() > 0) {
    }

    for (auto& [m, future] : pending) {
      ServeResult r = future.get();
      ASSERT_EQ(r.status, ServeStatus::kOk)
          << "D=" << D << " seed=" << seed << " minpts=" << m;
      ASSERT_TRUE(by_gen.count(r.generation) > 0);
      dbscan::PipelineStats sink;
      QueryContext<D> fresh(&sink);
      ASSERT_TRUE(pdbscan::testing::Identical(
          fresh.Run(*by_gen.at(r.generation), m), r.clustering))
          << "served response diverges from a fresh run: D=" << D
          << " seed=" << seed << " gen=" << r.generation << " minpts=" << m
          << " workers=" << workers << " cache=" << opts.cache_capacity
          << " coalescing=" << opts.coalescing
          << " from_cache=" << r.from_cache << " coalesced=" << r.coalesced;
    }
  }
}

class ServingPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServingPropertySweep, ResponsesMatchFreshRuns2d) {
  ServingMatchesGenerationFreshRuns<2>(GetParam() * 211 + 7,
                                       24 * SweepBudget());
}

TEST_P(ServingPropertySweep, ResponsesMatchFreshRuns3d) {
  ServingMatchesGenerationFreshRuns<3>(GetParam() * 431 + 11,
                                       16 * SweepBudget());
}

TEST_P(ServingPropertySweep, ResponsesMatchFreshRuns5d) {
  ServingMatchesGenerationFreshRuns<5>(GetParam() * 877 + 13,
                                       10 * SweepBudget());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingPropertySweep,
                         ::testing::Values(1, 2, 3));

// --- Cross-replica determinism: writer + N replicas over a shared dir -------

// One writer and two snapshot-shipping replicas (net/replication.h) in a
// temp directory, randomized interleaving of update batches, replica tail
// passes, and queries against randomly chosen nodes. Replicas tail lazily,
// so queries legitimately serve OLDER generations than the writer's — the
// audited property is the distributed identity contract: every response,
// from ANY node, is bit-identical to a fresh from-scratch run on the point
// set of the generation it reports. The generation -> points history is
// maintained independently from the writer's own bookkeeping.
template <int D>
void CrossReplicaResponsesMatchFreshRuns(uint64_t seed, size_t rounds) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("pdbscan_prop_replica_" + std::to_string(::getpid()) + "_" +
        std::to_string(seed) + "_" + std::to_string(D) + "d"))
          .string();
  std::filesystem::remove_all(dir);
  std::mt19937_64 rng(seed);
  const double epsilon = 1.3;
  const size_t counts_cap = 1 + rng() % 24;

  net::WriterOptions wopts;
  wopts.rotate_bytes = 1 + rng() % 4096;  // Exercise many rotation cadences.
  wopts.checkpoint_every = 1 + rng() % 4;
  wopts.keep_checkpoints = 1 + rng() % 2;
  net::WriterNode<D> writer(dir, epsilon, counts_cap, Options(), wopts);
  net::ReplicaNode<D> replica_a(dir, epsilon, counts_cap);
  net::ReplicaNode<D> replica_b(dir, epsilon, counts_cap);

  // gen -> live points at that generation (gen 1 = empty dataset).
  std::map<uint64_t, std::vector<Point<D>>> by_gen;
  by_gen[1] = {};
  std::vector<uint64_t> live;

  auto audit = [&](parallel::EnginePool<D>& pool, const char* node) {
    const auto [snapshot, generation] = pool.SnapshotAndGeneration();
    const size_t min_pts = 1 + rng() % 12;
    dbscan::PipelineStats sink;
    QueryContext<D> served(&sink), fresh(&sink);
    const Clustering got = served.Run(*snapshot, min_pts);
    ASSERT_TRUE(by_gen.count(generation) > 0) << node << " gen=" << generation;
    const auto& pts = by_gen.at(generation);
    auto reference = CellIndex<D>::Build(
        std::span<const Point<D>>(pts), epsilon, counts_cap);
    ASSERT_TRUE(pdbscan::testing::Identical(fresh.Run(*reference, min_pts),
                                            got))
        << "response diverges from fresh run at its generation: " << node
        << " D=" << D << " gen=" << generation << " n=" << pts.size()
        << " minpts=" << min_pts << " cap=" << counts_cap << " seed=" << seed << pdbscan::testing::SeedNote();
  };

  for (size_t round = 0; round < rounds; ++round) {
    switch (rng() % 6) {
      case 0:
      case 1: {  // Writer applies a randomized batch.
        const auto ins = GenerateShape<D>(
            pdbscan::testing::kAllShapes[rng() % 5], 20 + rng() % 50, rng());
        std::shuffle(live.begin(), live.end(), rng);
        const size_t erase_n =
            live.empty() ? 0 : rng() % (live.size() / 2 + 1);
        std::vector<uint64_t> del(
            live.begin(), live.begin() + static_cast<ptrdiff_t>(erase_n));
        live.erase(live.begin(),
                   live.begin() + static_cast<ptrdiff_t>(erase_n));
        const uint64_t first = writer.ApplyUpdates(ins, del);
        for (size_t i = 0; i < ins.size(); ++i) live.push_back(first + i);
        by_gen[writer.generation()] = writer.index().LivePoints();
        break;
      }
      case 2:  // A replica makes tailing progress.
        (rng() % 2 == 0 ? replica_a : replica_b).TailOnce();
        break;
      case 3:  // Query the writer.
        audit(writer.pool(), "writer");
        break;
      case 4:  // Query replica A (possibly behind the writer).
        audit(replica_a.pool(), "replica_a");
        break;
      case 5:
        audit(replica_b.pool(), "replica_b");
        break;
    }
  }

  // Drain both replicas to the writer's generation and audit once more:
  // caught-up replicas must agree with the writer bit for bit.
  for (int spins = 0;
       (replica_a.applied_seq() < writer.seq() ||
        replica_b.applied_seq() < writer.seq()) &&
       spins < 10000;
       ++spins) {
    replica_a.TailOnce();
    replica_b.TailOnce();
  }
  ASSERT_EQ(replica_a.generation(), writer.generation());
  ASSERT_EQ(replica_b.generation(), writer.generation());
  const size_t min_pts = 1 + rng() % 12;
  const Clustering from_writer = writer.pool().Run(min_pts);
  ASSERT_TRUE(pdbscan::testing::Identical(from_writer,
                                          replica_a.pool().Run(min_pts)));
  ASSERT_TRUE(pdbscan::testing::Identical(from_writer,
                                          replica_b.pool().Run(min_pts)));
  std::filesystem::remove_all(dir);
}

// --- Metric axis: L1 / Linf correctness and bit-identity --------------------

// The non-Euclidean metrics run the same pipeline with metric-derived cell
// geometry (side, offset criterion, halo) and metric kernels. The sweep
// checks each against the brute-force oracle under the SAME metric, and the
// 1-vs-N-worker determinism contract on top.
template <int D>
void MetricMatchesOracle(uint64_t base_seed, size_t cases, double eps_scale) {
  for (const auto& c : MakeCases(base_seed + 61000, cases)) {
    auto pts = GenerateShape<D>(c.shape, c.n, c.seed);
    const double epsilon = c.epsilon * eps_scale;
    for (const Metric metric : {Metric::kL1, Metric::kLinf}) {
      Options options = OurExact();
      options.metric = metric;
      const auto expected = BruteForceDbscan<D>(
          std::span<const Point<D>>(pts), epsilon, c.min_pts, metric);
      Clustering solo;
      for (const int workers : {1, parallel::num_workers()}) {
        parallel::ScopedNumWorkers scoped(workers);
        const auto got = Dbscan<D>(pts, epsilon, c.min_pts, options);
        ASSERT_TRUE(SameClustering(expected, got))
            << MetricName(metric) << " vs oracle: D=" << D
            << " shape=" << static_cast<int>(c.shape) << " n=" << c.n
            << " eps=" << epsilon << " minpts=" << c.min_pts
            << " workers=" << workers << " seed=" << c.seed
            << pdbscan::testing::SeedNote();
        if (workers == 1) {
          solo = got;
        } else {
          ASSERT_TRUE(pdbscan::testing::Identical(solo, got))
              << MetricName(metric) << " 1-vs-N workers: D=" << D
              << " n=" << c.n << " eps=" << epsilon
              << " minpts=" << c.min_pts << " seed=" << c.seed
              << pdbscan::testing::SeedNote();
        }
      }
    }
  }
}

class MetricPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricPropertySweep, OracleMatch2d) {
  MetricMatchesOracle<2>(GetParam(), 4 * SweepBudget(), 1.0);
}

TEST_P(MetricPropertySweep, OracleMatch3d) {
  MetricMatchesOracle<3>(GetParam() + 70, 2 * SweepBudget(), 2.0);
}

TEST_P(MetricPropertySweep, OracleMatch5d) {
  MetricMatchesOracle<5>(GetParam() + 140, SweepBudget(), 3.0);
}

// Forced-scalar vs every SIMD dispatch level under L1/Linf: same clustering
// contract AND the same raw saturated MarkCore counts.
template <int D>
void MetricKernelLevelsBitIdentical(uint64_t base_seed, size_t cases,
                                    double eps_scale) {
  ScopedKernelLevel restore;
  const std::vector<kernels::Level> levels = kernels::SupportedLevels();
  std::mt19937_64 rng(base_seed * 919 + D);
  for (const auto& c : MakeCases(base_seed + 65000, cases)) {
    auto pts = GenerateShape<D>(c.shape, c.n, c.seed);
    const double epsilon = c.epsilon * eps_scale;
    const size_t cap = 1 + rng() % 24;
    for (const Metric metric : {Metric::kL1, Metric::kLinf}) {
      Options options = OurExact();
      options.metric = metric;
      kernels::ForceLevel(kernels::Level::kScalar);
      const auto expected = Dbscan<D>(pts, epsilon, c.min_pts, options);
      const auto ref_index = CellIndex<D>::Build(pts, epsilon, cap, options);
      for (const kernels::Level level : levels) {
        if (level == kernels::Level::kScalar) continue;
        kernels::ForceLevel(level);
        const auto got = Dbscan<D>(pts, epsilon, c.min_pts, options);
        ASSERT_TRUE(pdbscan::testing::Identical(expected, got))
            << kernels::LevelName(level) << " vs scalar under "
            << MetricName(metric) << ": D=" << D << " n=" << c.n
            << " eps=" << epsilon << " minpts=" << c.min_pts
            << " seed=" << c.seed << pdbscan::testing::SeedNote();
        const auto index = CellIndex<D>::Build(pts, epsilon, cap, options);
        ASSERT_TRUE(ref_index->neighbor_counts() == index->neighbor_counts())
            << kernels::LevelName(level) << " MarkCore counts diverge under "
            << MetricName(metric) << ": D=" << D << " n=" << c.n
            << " eps=" << epsilon << " cap=" << cap << " seed=" << c.seed
            << pdbscan::testing::SeedNote();
      }
    }
  }
}

TEST_P(MetricPropertySweep, KernelLevelsBitIdentical2d) {
  MetricKernelLevelsBitIdentical<2>(GetParam(), 3 * SweepBudget(), 1.0);
}

TEST_P(MetricPropertySweep, KernelLevelsBitIdentical3d) {
  MetricKernelLevelsBitIdentical<3>(GetParam() + 350, 2 * SweepBudget(), 2.0);
}

// Served-vs-solo under the new metrics: a ServingScheduler response is
// bit-identical to a direct run with the same metric options.
TEST_P(MetricPropertySweep, ServedMatchesSolo2d) {
  for (const auto& c : MakeCases(GetParam() + 69000, 2 * SweepBudget())) {
    auto pts = GenerateShape<2>(c.shape, c.n, c.seed);
    for (const Metric metric : {Metric::kL1, Metric::kLinf}) {
      Options options = OurExact();
      options.metric = metric;
      const auto solo = Dbscan<2>(pts, c.epsilon, c.min_pts, options);
      auto index = CellIndex<2>::Build(pts, c.epsilon, 24, options);
      EnginePool<2> pool(index);
      ServingScheduler<2> scheduler(pool);
      ServeResult r = scheduler.Submit(c.min_pts);
      ASSERT_EQ(r.status, ServeStatus::kOk);
      ASSERT_TRUE(pdbscan::testing::Identical(solo, r.clustering))
          << MetricName(metric) << " served vs solo: n=" << c.n
          << " eps=" << c.epsilon << " minpts=" << c.min_pts
          << " seed=" << c.seed << pdbscan::testing::SeedNote();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertySweep,
                         ::testing::Values(1, 2, 3));

class ReplicaPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicaPropertySweep, ResponsesMatchFreshRuns2d) {
  CrossReplicaResponsesMatchFreshRuns<2>(GetParam() * 307 + 3,
                                         30 * SweepBudget());
}

TEST_P(ReplicaPropertySweep, ResponsesMatchFreshRuns3d) {
  CrossReplicaResponsesMatchFreshRuns<3>(GetParam() * 509 + 5,
                                         18 * SweepBudget());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaPropertySweep,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace pdbscan
