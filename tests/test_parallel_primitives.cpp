// Tests for the scheduler and the PBBS-style parallel primitives (Table 1).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/scheduler.h"
#include "primitives/filter.h"
#include "primitives/integer_sort.h"
#include "primitives/pointer_jump.h"
#include "primitives/random.h"
#include "primitives/reduce.h"
#include "primitives/scan.h"
#include "primitives/semisort.h"
#include "primitives/sort.h"

namespace pdbscan {
namespace {

using parallel::ScopedNumWorkers;

// --- Scheduler -------------------------------------------------------------

TEST(Scheduler, ParallelForCoversEveryIndexExactlyOnce) {
  for (int workers : {1, 2, 4, 8}) {
    ScopedNumWorkers scope(workers);
    std::vector<std::atomic<int>> hits(10000);
    parallel::parallel_for(0, hits.size(), [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
  }
}

TEST(Scheduler, ParallelForEmptyAndSingletonRanges) {
  std::atomic<int> count(0);
  parallel::parallel_for(5, 5, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  parallel::parallel_for(7, 8, [&](size_t i) {
    EXPECT_EQ(i, 7u);
    count++;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(Scheduler, NestedParallelForDoesNotDeadlock) {
  ScopedNumWorkers scope(4);
  std::atomic<size_t> total(0);
  parallel::parallel_for(
      0, 64,
      [&](size_t) {
        parallel::parallel_for(
            0, 64, [&](size_t) { total.fetch_add(1, std::memory_order_relaxed); },
            1);
      },
      1);
  EXPECT_EQ(total.load(), 64u * 64u);
}

TEST(Scheduler, ForkJoinRunsBothBranches) {
  ScopedNumWorkers scope(4);
  std::atomic<int> a(0), b(0);
  parallel::fork_join([&]() { a = 1; }, [&]() { b = 1; });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 1);
}

TEST(Scheduler, RecursiveForkJoinComputesFibonacci) {
  ScopedNumWorkers scope(4);
  // Deep nested forks exercise help-while-waiting.
  std::function<long(int)> fib = [&](int k) -> long {
    if (k < 2) return k;
    long x = 0, y = 0;
    parallel::fork_join([&]() { x = fib(k - 1); }, [&]() { y = fib(k - 2); });
    return x + y;
  };
  EXPECT_EQ(fib(18), 2584);
}

TEST(Scheduler, SetNumWorkersChangesParallelism) {
  parallel::set_num_workers(3);
  EXPECT_EQ(parallel::num_workers(), 3);
  parallel::set_num_workers(1);
  EXPECT_EQ(parallel::num_workers(), 1);
  parallel::set_num_workers(2);
  EXPECT_EQ(parallel::num_workers(), 2);
}

// --- Scheduler: exception propagation ----------------------------------------

struct BodyError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Spins until `flag` is set or 10 s pass (a missed steal then fails the
// test's expectations instead of hanging it).
void AwaitFlag(const std::atomic<bool>& flag) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
}

// After a throw the runtime must still run loops to completion.
void ExpectSchedulerStillWorks() {
  std::vector<std::atomic<int>> hits(20000);
  parallel::parallel_for(
      0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); }, 1);
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

class SchedulerExceptions : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerExceptions, ThrowOnWorkerReachesCaller) {
  const int workers = GetParam();
  ScopedNumWorkers scope(workers);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_threw(false);
  auto run = [&]() {
    parallel::parallel_for(
        0, 1000,
        [&](size_t i) {
          if (workers == 1) {
            if (i == 700) throw BodyError("serial body");
            return;
          }
          if (std::this_thread::get_id() != caller) {
            worker_threw = true;
            throw BodyError("worker body");
          }
          AwaitFlag(worker_threw);  // Keep the caller busy until a steal.
        },
        1);
  };
  EXPECT_THROW(run(), BodyError);
  if (workers > 1) EXPECT_TRUE(worker_threw.load());
  ExpectSchedulerStillWorks();
}

TEST_P(SchedulerExceptions, ThrowInCallersChunkWaitsForSiblings) {
  const int workers = GetParam();
  ScopedNumWorkers scope(workers);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_started(false);
  std::atomic<bool> caller_threw(false);
  std::atomic<int> running(0);
  std::vector<int> out(1000, 0);
  auto run = [&]() {
    parallel::parallel_for(
        0, out.size(),
        [&](size_t i) {
          running.fetch_add(1);
          if (std::this_thread::get_id() == caller) {
            if (workers > 1) AwaitFlag(worker_started);
            caller_threw = true;
            running.fetch_sub(1);
            throw BodyError("caller body");
          }
          worker_started = true;
          AwaitFlag(caller_threw);
          // Still working after the caller's chunk threw: the loop must not
          // return (and unwind its frames) before this finishes.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          out[i] = 1;
          running.fetch_sub(1);
        },
        1);
  };
  EXPECT_THROW(run(), BodyError);
  EXPECT_EQ(running.load(), 0);
  if (workers > 1) EXPECT_TRUE(worker_started.load());
  ExpectSchedulerStillWorks();
}

TEST_P(SchedulerExceptions, ThrowInNestedLoopReachesOuterCaller) {
  ScopedNumWorkers scope(GetParam());
  std::atomic<size_t> ran(0);
  auto run = [&]() {
    parallel::parallel_for(
        0, 16,
        [&](size_t outer) {
          parallel::parallel_for(
              0, 500,
              [&](size_t inner) {
                ran.fetch_add(1);
                if (outer == 11 && inner == 333) throw BodyError("nested");
              },
              1);
        },
        1);
  };
  EXPECT_THROW(run(), BodyError);
  EXPECT_GT(ran.load(), 0u);
  ExpectSchedulerStillWorks();
}

TEST_P(SchedulerExceptions, ThrowInForkJoinReachesCaller) {
  const int workers = GetParam();
  ScopedNumWorkers scope(workers);
  // Left branch throws.
  std::atomic<bool> right_ran(false);
  EXPECT_THROW(parallel::fork_join([]() { throw BodyError("left"); },
                                   [&]() { right_ran = true; }),
               BodyError);
  // Right branch (the one offered to thieves) throws, possibly on a worker
  // while the left branch is still running.
  std::atomic<bool> right_threw(false);
  EXPECT_THROW(parallel::fork_join(
                   [&]() {
                     if (workers > 1) AwaitFlag(right_threw);
                   },
                   [&]() {
                     right_threw = true;
                     throw BodyError("right");
                   }),
               BodyError);
  EXPECT_TRUE(right_threw.load());
  // Throws inside a recursive fork tree.
  std::function<void(int)> tree = [&](int depth) {
    if (depth == 0) throw BodyError("leaf");
    parallel::fork_join([&]() { tree(depth - 1); },
                        [&]() { tree(depth - 1); });
  };
  EXPECT_THROW(tree(6), BodyError);
  ExpectSchedulerStillWorks();
}

INSTANTIATE_TEST_SUITE_P(Workers, SchedulerExceptions,
                         ::testing::Values(1, 2, 4));

// --- Scan -------------------------------------------------------------------

class ScanTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ScanTest, ExclusiveMatchesSerial) {
  const size_t n = GetParam();
  std::mt19937_64 rng(n);
  std::vector<long> a(n), expected(n);
  for (auto& x : a) x = static_cast<long>(rng() % 1000) - 500;
  long sum = 0;
  for (size_t i = 0; i < n; ++i) {
    expected[i] = sum;
    sum += a[i];
  }
  ScopedNumWorkers scope(4);
  const long total = primitives::ScanExclusive(a);
  EXPECT_EQ(total, sum);
  EXPECT_EQ(a, expected);
}

TEST_P(ScanTest, InclusiveMatchesSerial) {
  const size_t n = GetParam();
  std::mt19937_64 rng(n + 1);
  std::vector<long> a(n), expected(n);
  for (auto& x : a) x = static_cast<long>(rng() % 1000) - 500;
  long sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += a[i];
    expected[i] = sum;
  }
  ScopedNumWorkers scope(4);
  const long total = primitives::ScanInclusive(a);
  EXPECT_EQ(total, sum);
  EXPECT_EQ(a, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTest,
                         ::testing::Values(0, 1, 2, 100, 2048, 2049, 100000));

// --- Filter / Reduce ---------------------------------------------------------

TEST(Filter, KeepsMatchingElementsInOrder) {
  ScopedNumWorkers scope(4);
  std::vector<int> a(50000);
  std::iota(a.begin(), a.end(), 0);
  auto evens = primitives::Filter(a, [](int x) { return x % 2 == 0; });
  ASSERT_EQ(evens.size(), 25000u);
  for (size_t i = 0; i < evens.size(); ++i) {
    ASSERT_EQ(evens[i], static_cast<int>(2 * i));
  }
}

TEST(Filter, EmptyAndAllCases) {
  std::vector<int> a = {1, 3, 5};
  EXPECT_TRUE(primitives::Filter(a, [](int) { return false; }).empty());
  EXPECT_EQ(primitives::Filter(a, [](int) { return true; }), a);
  std::vector<int> empty;
  EXPECT_TRUE(primitives::Filter(empty, [](int) { return true; }).empty());
}

TEST(FilterIndex, ReturnsSortedMatchingIndices) {
  ScopedNumWorkers scope(4);
  auto idx = primitives::FilterIndex(10000, [](size_t i) { return i % 7 == 0; });
  ASSERT_EQ(idx.size(), (10000 + 6) / 7);
  for (size_t k = 0; k < idx.size(); ++k) ASSERT_EQ(idx[k], 7 * k);
}

TEST(Reduce, SumMaxMinCount) {
  ScopedNumWorkers scope(4);
  const size_t n = 100000;
  std::vector<long> a(n);
  for (size_t i = 0; i < n; ++i) a[i] = static_cast<long>(i);
  EXPECT_EQ(primitives::ReduceSum(std::span<const long>(a)),
            static_cast<long>(n * (n - 1) / 2));
  EXPECT_EQ(primitives::ReduceMax(size_t{0}, n, long{-1},
                                  [&](size_t i) { return a[i]; }),
            static_cast<long>(n - 1));
  EXPECT_EQ(primitives::ReduceMin(size_t{0}, n, long{1 << 30},
                                  [&](size_t i) { return a[i]; }),
            0);
  EXPECT_EQ(primitives::CountIf(0, n, [&](size_t i) { return i % 3 == 0; }),
            (n + 2) / 3);
}

TEST(Reduce, EmptyRangeReturnsIdentity) {
  EXPECT_EQ(primitives::ReduceMax(size_t{5}, size_t{5}, -42,
                                  [](size_t) { return 7; }),
            -42);
}

// --- Comparison sort ---------------------------------------------------------

class SortTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SortTest, MatchesStdSort) {
  const size_t n = GetParam();
  std::mt19937_64 rng(n * 31 + 7);
  std::vector<uint64_t> a(n);
  for (auto& x : a) x = rng() % (n / 2 + 3);  // Plenty of duplicates.
  std::vector<uint64_t> expected = a;
  std::sort(expected.begin(), expected.end());
  ScopedNumWorkers scope(4);
  primitives::ParallelSort(a);
  EXPECT_EQ(a, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortTest,
                         ::testing::Values(0, 1, 2, 10, 8192, 8193, 200000));

TEST(Sort, CustomComparatorDescending) {
  ScopedNumWorkers scope(4);
  std::vector<int> a(50000);
  std::mt19937 rng(3);
  for (auto& x : a) x = static_cast<int>(rng() % 1000);
  primitives::ParallelSort(a, std::greater<int>());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), std::greater<int>()));
}

TEST(Sort, AlreadySortedAndReversedInputs) {
  ScopedNumWorkers scope(4);
  std::vector<int> a(100000);
  std::iota(a.begin(), a.end(), 0);
  std::vector<int> expected = a;
  primitives::ParallelSort(a);
  EXPECT_EQ(a, expected);
  std::reverse(a.begin(), a.end());
  primitives::ParallelSort(a);
  EXPECT_EQ(a, expected);
}

TEST(Sort, AllEqualKeys) {
  ScopedNumWorkers scope(4);
  std::vector<int> a(100000, 42);
  primitives::ParallelSort(a);
  EXPECT_TRUE(std::all_of(a.begin(), a.end(), [](int x) { return x == 42; }));
}

// --- Integer sort -------------------------------------------------------------

TEST(IntegerSort, StableAndCorrect) {
  ScopedNumWorkers scope(4);
  const size_t n = 150000;
  std::mt19937 rng(9);
  std::vector<std::pair<uint32_t, uint32_t>> a(n);  // (key, original index)
  for (size_t i = 0; i < n; ++i) {
    a[i] = {rng() % 64, static_cast<uint32_t>(i)};
  }
  auto expected = a;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  primitives::IntegerSort(a, 64, [](const auto& p) { return p.first; });
  EXPECT_EQ(a, expected);
}

TEST(IntegerSort, SingleBucketIsNoOp) {
  std::vector<int> a = {3, 1, 2};
  primitives::IntegerSort(a, 1, [](int) { return 0u; });
  EXPECT_EQ(a, (std::vector<int>{3, 1, 2}));
}

TEST(IntegerSort, SerialPathMatches) {
  ScopedNumWorkers scope(1);
  std::vector<uint32_t> a(5000);
  std::mt19937 rng(4);
  for (auto& x : a) x = rng() % 16;
  auto expected = a;
  std::stable_sort(expected.begin(), expected.end());
  primitives::IntegerSort(a, 16, [](uint32_t x) { return x; });
  EXPECT_EQ(a, expected);
}

// --- Semisort ------------------------------------------------------------------

TEST(Semisort, GroupsEqualKeysContiguously) {
  ScopedNumWorkers scope(4);
  const size_t n = 200000;
  const size_t num_keys = 500;
  std::mt19937_64 rng(11);
  std::vector<std::pair<uint64_t, uint32_t>> pairs(n);
  std::vector<size_t> expected_count(num_keys, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = rng() % num_keys;
    pairs[i] = {k, static_cast<uint32_t>(i)};
    ++expected_count[k];
  }
  auto result = primitives::Semisort<uint64_t, uint32_t>(
      std::span<const std::pair<uint64_t, uint32_t>>(pairs),
      [](uint64_t k) { return primitives::Hash64(k); },
      [](uint64_t a, uint64_t b) { return a == b; });
  ASSERT_EQ(result.items.size(), n);
  ASSERT_EQ(result.num_groups(), num_keys);
  std::vector<size_t> seen_count(num_keys, 0);
  for (size_t g = 0; g < result.num_groups(); ++g) {
    const size_t lo = result.group_offsets[g];
    const size_t hi = result.group_offsets[g + 1];
    ASSERT_LT(lo, hi);
    const uint64_t key = result.items[lo].first;
    for (size_t i = lo; i < hi; ++i) {
      ASSERT_EQ(result.items[i].first, key);
    }
    ASSERT_EQ(seen_count[key], 0u) << "key split across groups";
    seen_count[key] = hi - lo;
  }
  EXPECT_EQ(seen_count, expected_count);
}

TEST(Semisort, PreservesEveryValue) {
  ScopedNumWorkers scope(4);
  const size_t n = 50000;
  std::vector<std::pair<uint64_t, uint32_t>> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = {i % 97, static_cast<uint32_t>(i)};
  }
  auto result = primitives::Semisort<uint64_t, uint32_t>(
      std::span<const std::pair<uint64_t, uint32_t>>(pairs),
      [](uint64_t k) { return primitives::Hash64(k); },
      [](uint64_t a, uint64_t b) { return a == b; });
  std::vector<uint32_t> values;
  values.reserve(n);
  for (const auto& [k, v] : result.items) values.push_back(v);
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(values[i], i);
}

TEST(Semisort, AdversarialHashCollisionsStillGroupExactly) {
  // A constant hash forces every pair into one bucket and one hash-run;
  // grouping must fall back to key equality.
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < 300; ++i) pairs.push_back({i % 3, i});
  auto result = primitives::Semisort<uint64_t, uint32_t>(
      std::span<const std::pair<uint64_t, uint32_t>>(pairs),
      [](uint64_t) { return 42u; }, [](uint64_t a, uint64_t b) { return a == b; });
  EXPECT_EQ(result.num_groups(), 3u);
  for (size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(result.group_offsets[g + 1] - result.group_offsets[g], 100u);
  }
}

TEST(Semisort, EmptyInput) {
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  auto result = primitives::Semisort<uint64_t, uint32_t>(
      std::span<const std::pair<uint64_t, uint32_t>>(pairs),
      [](uint64_t k) { return k; }, [](uint64_t a, uint64_t b) { return a == b; });
  EXPECT_EQ(result.num_groups(), 0u);
}

// --- Pointer jumping --------------------------------------------------------------

TEST(PointerJump, PropagatesAlongChain) {
  // Chain 0 -> 1 -> 2 -> ... -> n-1; flag starts at 0 only.
  const size_t n = 10000;
  std::vector<size_t> next(n);
  for (size_t i = 0; i < n; ++i) next[i] = i + 1 < n ? i + 1 : i;
  std::vector<uint8_t> flags(n, 0);
  flags[0] = 1;
  ScopedNumWorkers scope(4);
  primitives::PointerJumpPropagate(next, flags);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(flags[i], 1) << i;
}

TEST(PointerJump, SkipChainMarksOnlyReachableNodes) {
  // 0 -> 2 -> 4 -> ... even nodes only.
  const size_t n = 1001;
  std::vector<size_t> next(n);
  for (size_t i = 0; i < n; ++i) next[i] = i + 2 < n ? i + 2 : i;
  std::vector<uint8_t> flags(n, 0);
  flags[0] = 1;
  primitives::PointerJumpPropagate(next, flags);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(flags[i], i % 2 == 0 ? 1 : 0) << i;
  }
}

TEST(PointerJump, NoInitialFlagsStaysEmpty) {
  std::vector<size_t> next = {1, 2, 3, 3};
  std::vector<uint8_t> flags(4, 0);
  primitives::PointerJumpPropagate(next, flags);
  EXPECT_EQ(flags, (std::vector<uint8_t>{0, 0, 0, 0}));
}

// --- Hash-based randomness ----------------------------------------------------------

TEST(Random, DeterministicAndWellDistributed) {
  primitives::Random rng(123);
  EXPECT_EQ(rng.IthRand(5), primitives::Random(123).IthRand(5));
  EXPECT_NE(rng.IthRand(5), rng.IthRand(6));
  // Doubles must land in [0, 1) and look uniform-ish.
  double sum = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    const double x = rng.IthDouble(i);
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Random, ForkProducesIndependentStreams) {
  primitives::Random rng(7);
  auto a = rng.Fork(1);
  auto b = rng.Fork(2);
  EXPECT_NE(a.IthRand(0), b.IthRand(0));
}

}  // namespace
}  // namespace pdbscan
