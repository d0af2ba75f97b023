// Microbenchmarks for the Table 1 parallel primitives, via google-benchmark.
// These are the building blocks whose practical constants decide whether the
// work-efficient design pays off.
//
// Also hosts the distance-kernel microbench (BM_DistanceKernelCount),
// registered at runtime once per supported dispatch level so one run
// reports scalar vs AVX2 vs AVX-512 side by side. Machine-readable output:
//   bench_bench_primitives --benchmark_filter=DistanceKernel \
//                          --benchmark_format=json
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "containers/flat_array.h"
#include "containers/hash_table.h"
#include "containers/union_find.h"
#include "kernels/kernel_api.h"
#include "parallel/scheduler.h"
#include "primitives/filter.h"
#include "primitives/integer_sort.h"
#include "primitives/random.h"
#include "primitives/scan.h"
#include "primitives/semisort.h"
#include "primitives/sort.h"

namespace {

using namespace pdbscan;

void BM_ScanExclusive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<long> base(n, 1);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<long> a = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(primitives::ScanExclusive(a));
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScanExclusive)->Arg(1 << 16)->Arg(1 << 20);

void BM_Filter(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<int> a(n);
  std::iota(a.begin(), a.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        primitives::Filter(a, [](int x) { return (x & 7) == 0; }));
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Filter)->Arg(1 << 16)->Arg(1 << 20);

void BM_ParallelSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::mt19937_64 rng(1);
  std::vector<uint64_t> base(n);
  for (auto& x : base) x = rng();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> a = base;
    state.ResumeTiming();
    primitives::ParallelSort(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_IntegerSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::mt19937_64 rng(2);
  std::vector<uint32_t> base(n);
  for (auto& x : base) x = rng() % 128;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint32_t> a = base;
    state.ResumeTiming();
    primitives::IntegerSort(a, 128, [](uint32_t x) { return x; });
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_IntegerSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_Semisort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::mt19937_64 rng(3);
  std::vector<std::pair<uint64_t, uint32_t>> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = {rng() % (n / 16 + 1), static_cast<uint32_t>(i)};
  }
  for (auto _ : state) {
    auto result = primitives::Semisort<uint64_t, uint32_t>(
        std::span<const std::pair<uint64_t, uint32_t>>(pairs),
        [](uint64_t k) { return primitives::Hash64(k); },
        [](uint64_t a, uint64_t b) { return a == b; });
    benchmark::DoNotOptimize(result.items.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Semisort)->Arg(1 << 16)->Arg(1 << 20);

void BM_SemisortVsComparisonSort(benchmark::State& state) {
  // The grid-construction tradeoff the paper highlights: grouping by cell
  // with semisort vs fully sorting by cell id.
  const size_t n = static_cast<size_t>(state.range(0));
  std::mt19937_64 rng(4);
  std::vector<std::pair<uint64_t, uint32_t>> base(n);
  for (size_t i = 0; i < n; ++i) {
    base[i] = {rng() % (n / 16 + 1), static_cast<uint32_t>(i)};
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto a = base;
    state.ResumeTiming();
    primitives::ParallelSort(a, [](const auto& x, const auto& y) {
      return x.first < y.first;
    });
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SemisortVsComparisonSort)->Arg(1 << 20);

void BM_HashTableInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  struct Hash {
    uint64_t operator()(uint64_t k) const { return primitives::Hash64(k); }
  };
  struct Eq {
    bool operator()(uint64_t a, uint64_t b) const { return a == b; }
  };
  for (auto _ : state) {
    containers::ConcurrentMap<uint64_t, uint64_t, Hash, Eq> map(n);
    parallel::parallel_for(0, n, [&](size_t i) {
      map.Insert(static_cast<uint64_t>(i), static_cast<uint64_t>(i));
    });
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_HashTableInsert)->Arg(1 << 16)->Arg(1 << 20);

void BM_UnionFind(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    containers::UnionFind uf(n);
    parallel::parallel_for(0, n - 1, [&](size_t i) { uf.Link(i, i + 1); });
    benchmark::DoNotOptimize(uf.Find(n - 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_UnionFind)->Arg(1 << 16)->Arg(1 << 20);

// --- Distance kernels (src/kernels/) ---------------------------------------

// One saturating count_within sweep per iteration: 64 queries against the
// same n-point SoA lane set, uncapped, eps tuned so roughly a third of the
// points match (partial hits: the partial-norm prune fires without
// short-circuiting whole scans). items_processed counts point-visits, so
// the per-level rates compare directly — the acceptance bar for this PR is
// AVX2 >= 2x scalar on AVX2 hardware.
void BM_DistanceKernelCount(benchmark::State& state, pdbscan::kernels::Level level,
                            int dim) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t kQueries = 64;
  std::mt19937_64 rng(42 + static_cast<uint64_t>(dim));
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::vector<containers::FlatArray<double>> lanes_storage(
      static_cast<size_t>(dim));
  std::vector<const double*> lanes(static_cast<size_t>(dim));
  for (int d = 0; d < dim; ++d) {
    double* dst = lanes_storage[static_cast<size_t>(d)].AllocateAligned(n);
    for (size_t i = 0; i < n; ++i) dst[i] = coord(rng);
    lanes[static_cast<size_t>(d)] = dst;
  }
  std::vector<double> queries(kQueries * static_cast<size_t>(dim));
  for (double& v : queries) v = coord(rng);
  // Unit-cube expected nearest-ish scale: r ~ 0.3 of the cube diagonal per
  // sqrt(dim) keeps the match fraction in the tens of percent across dims.
  const double r = 0.3 * std::sqrt(static_cast<double>(dim)) * 0.5;
  const double eps2 = r * r;
  const auto& ops = pdbscan::kernels::OpsFor(level);
  size_t sink = 0;
  for (auto _ : state) {
    for (size_t qi = 0; qi < kQueries; ++qi) {
      sink += ops.count_within(lanes.data(), 1, dim, n,
                               queries.data() + qi * static_cast<size_t>(dim),
                               eps2, SIZE_MAX, nullptr);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n * kQueries) *
                          state.iterations());
  state.counters["dim"] = static_cast<double>(dim);
}

// Supported levels are a runtime property (cpuid), so these registrations
// can't be static BENCHMARK() macros — RegisterBenchmark in main().
void RegisterDistanceKernelBenches() {
  for (const pdbscan::kernels::Level level :
       pdbscan::kernels::SupportedLevels()) {
    for (const int dim : {2, 3, 5, 7}) {
      const std::string name = std::string("BM_DistanceKernelCount/") +
                               pdbscan::kernels::LevelName(level) + "/dim:" +
                               std::to_string(dim);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [level, dim](benchmark::State& state) {
            BM_DistanceKernelCount(state, level, dim);
          })
          ->Arg(1 << 12)
          ->Arg(1 << 16);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterDistanceKernelBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
