// Fork-join work-stealing scheduler.
//
// This is the runtime substrate standing in for the Cilk Plus scheduler used
// by the paper (Blumofe & Leiserson [13], Leiserson [66]). It provides the
// two primitives the paper's algorithms are written in terms of:
//
//   * parallel_for(lo, hi, f, grain) — data-parallel loop ("par-for" in the
//     paper's pseudocode).
//   * fork_join(f1, f2)              — binary fork ("spawn/sync"), the
//     building block for divide-and-conquer (samplesort, parallel merge,
//     k-d tree construction).
//
// Design (the pbbslib shape):
//
//   * Lazy binary splitting. A loop runs its range serially, one `grain`
//     chunk at a time, and splits the remainder in half only when the
//     running thread's own deque is empty — i.e. when a thief has taken
//     everything it offered. `grain` is therefore a MINIMUM chunk size, not
//     a task count: a grain-1 loop over 150k cells pushes O(P log n) jobs,
//     not 150k. Unstolen halves are popped back and run inline.
//   * Join frames live on the stack of the thread that split. A job is a
//     function pointer plus a done flag; nothing is heap-allocated and no
//     std::function is involved.
//   * One deque per worker thread. A join whose job was stolen helps (steals
//     and runs other jobs), then spins briefly, then parks on a condition
//     variable; it never spins on yield forever.
//   * Non-worker callers (serving executors, the streaming writer, EnginePool
//     client threads, main) enter through one shared injection path: the
//     outermost call leases an external slot — a deque of its own that the
//     workers steal from — for the duration of the loop. Any number of such
//     callers may run loops concurrently; each helps until its own join
//     completes. If every external slot is taken the loop runs serially.
//   * Exceptions. The first exception thrown by any body — on a worker or in
//     the caller's own chunk — is captured as an exception_ptr; the rest of
//     that loop's chunks are skipped, every job already handed out is joined,
//     and only then is the exception rethrown to the caller of parallel_for /
//     fork_join. A throwing body never terminates the process and never
//     unwinds a frame another thread still references.
//   * With num_workers() == 1 there are no threads at all and every primitive
//     degenerates to its serial loop, which keeps single-threaded baselines
//     honest (no scheduling overhead in "serial" measurements).
//   * The pool size is taken from the PDBSCAN_NUM_THREADS environment
//     variable (default: the CPUs the process may run on, per
//     sched_getaffinity) and can be changed at runtime with
//     set_num_workers() while no parallel work is in flight.
//   * scheduler_counters() reports jobs spawned, steals, parks and join-wait
//     nanoseconds, summed over per-worker relaxed counters
//     (telemetry::AppendSchedulerCounters exports them).
#ifndef PDBSCAN_PARALLEL_SCHEDULER_H_
#define PDBSCAN_PARALLEL_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>

namespace pdbscan::parallel {

// Process-wide runtime counters since start-up (monotonic; they survive
// set_num_workers). Join waits count from finding the job stolen until the
// thief finishes it, including time spent helping with other jobs.
struct SchedulerCounters {
  uint64_t tasks_spawned = 0;    // Jobs pushed onto a deque.
  uint64_t steals = 0;           // Jobs run by a thread other than the pusher.
  uint64_t parks = 0;            // Idle workers and joins that went to sleep.
  uint64_t join_wait_nanos = 0;  // Joins waiting on stolen jobs.
};

namespace internal {

struct PoolImpl;

// A thread's deque, as the splitting loop sees it: only the job count it
// probes on every chunk. The deque itself and the thread's counters extend
// this in scheduler.cpp.
struct Slot {
  std::atomic<uint32_t> size{0};
};

// A unit of stealable work, living on the stack of the thread that pushed
// it. `run` receives the slot of whichever thread executes it. It must not
// throw: bodies' exceptions are captured by the loop or fork that owns the
// job.
struct Job {
  explicit Job(void (*fn)(Job*, Slot*)) : run(fn) {}
  void (*const run)(Job*, Slot*);
  std::atomic<bool> done{false};
};

// The first exception captured wins; the owner rethrows it after joining.
class FirstError {
 public:
  void Capture() noexcept {
    if (!failed_.exchange(true, std::memory_order_acq_rel)) {
      error_ = std::current_exception();
    }
  }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  // Only after every job that could Capture has been joined.
  void RethrowIfSet() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

// Lazy splitting's probe: true when the slot's deque holds no jobs.
inline bool SlotEmpty(const Slot* slot) {
  return slot->size.load(std::memory_order_relaxed) == 0;
}

// Offers `job` to thieves. False (nothing pushed) when the deque is full;
// the caller then runs the work inline.
bool Push(Slot* slot, Job* job);

// Waits for `job`, which must be the most recent job pushed on `slot` that
// has not been joined: pops and runs it inline if nobody stole it, else
// helps, spins, then parks until the thief finishes it.
void Join(Slot* slot, Job* job);

class Pool {
 public:
  explicit Pool(int total_threads);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Total parallelism: worker threads + the submitting thread.
  int total_threads() const { return total_threads_; }

  // Runs fn(slot) with the calling thread's slot: its own when it is one of
  // this pool's workers or already inside a call, else a leased external
  // slot (the injection path). `slot` is nullptr when every external slot
  // is in use; fn must then run serially.
  template <typename Fn>
  void WithSlot(Fn&& fn) {
    Slot* own = CurrentSlot();
    if (own != nullptr) {
      fn(own);
      return;
    }
    struct Lease {
      Pool* pool;
      Slot* slot;
      ~Lease() {
        if (slot != nullptr) pool->ReleaseExternal(slot);
      }
    } lease{this, AcquireExternal()};
    fn(lease.slot);
  }

  void AddCountersTo(SchedulerCounters& out) const;

 private:
  Slot* CurrentSlot() const;
  Slot* AcquireExternal();
  void ReleaseExternal(Slot* slot);

  std::unique_ptr<PoolImpl> impl_;
  int total_threads_;
};

// One parallel_for call: the body, its minimum chunk and its first error.
template <typename F>
class ForLoop {
 public:
  ForLoop(F& f, size_t grain) : f_(f), grain_(grain) {}

  // Runs [lo, hi) on `slot` (nullptr: serially), splitting lazily. Never
  // throws; returns once every job it pushed has been joined.
  //
  // The deque is probed between batches, not between indices: a batch starts
  // at `grain` indices and doubles while nobody steals, capped at an eighth
  // of what is left, so a steal is noticed after at most that much work and
  // a cheap body pays O(log n) probes instead of one per index.
  void Run(Slot* slot, size_t lo, size_t hi) noexcept {
    F& f = f_;
    const size_t grain = grain_;
    size_t batch = grain;
    try {
      while (lo < hi) {
        if (slot != nullptr && (hi - lo) / 2 >= grain && SlotEmpty(slot)) {
          const size_t mid = lo + (hi - lo) / 2;
          Range right(this, mid, hi);
          if (Push(slot, &right)) {
            Run(slot, lo, mid);
            Join(slot, &right);
            return;
          }
        }
        const size_t end = hi - lo > batch ? lo + batch : hi;
        for (; lo < end; ++lo) f(lo);
        if (first_error_.failed()) return;
        batch = std::max(grain, std::min(2 * batch, (hi - lo) / 8));
      }
    } catch (...) {
      first_error_.Capture();
    }
  }

  const FirstError& first_error() const { return first_error_; }

 private:
  struct Range : Job {
    Range(ForLoop* loop, size_t lo, size_t hi)
        : Job(&Range::Execute), loop(loop), lo(lo), hi(hi) {}
    static void Execute(Job* job, Slot* slot) {
      Range* self = static_cast<Range*>(job);
      self->loop->Run(slot, self->lo, self->hi);
    }
    ForLoop* loop;
    size_t lo;
    size_t hi;
  };

  F& f_;
  const size_t grain_;
  FirstError first_error_;
};

// fork_join's right branch as a job.
template <typename F>
struct Call : Job {
  Call(F& f, FirstError& first_error)
      : Job(&Call::Execute), f(f), first_error(first_error) {}
  static void Execute(Job* job, Slot*) {
    Call* self = static_cast<Call*>(job);
    try {
      self->f();
    } catch (...) {
      self->first_error.Capture();
    }
  }
  F& f;
  FirstError& first_error;
};

}  // namespace internal

// Process-wide scheduler singleton.
class Scheduler {
 public:
  // Returns the global scheduler, creating it on first use with
  // PDBSCAN_NUM_THREADS (or the CPUs the process may run on) threads.
  static Scheduler& Get();

  // Total parallelism (worker threads + caller).
  int num_workers() const;

  // Re-creates the pool with `n` total threads (n >= 1). Must not be called
  // while parallel work is running.
  void SetNumWorkers(int n);

  // Counters since start-up, summed over every worker and external slot.
  SchedulerCounters Counters() const;

  // Parallel loop over [lo, hi). `f` is invoked once per index. `grain` is
  // the smallest contiguous block the loop is ever split into; 0 picks
  // (hi-lo) / (8 * num_workers()) + 1. Rethrows the first exception a body
  // threw, after every chunk already running has finished.
  template <typename F>
  void ParallelFor(size_t lo, size_t hi, F&& f, size_t grain = 0) {
    if (hi <= lo) return;
    const size_t n = hi - lo;
    const int p = num_workers();
    if (grain == 0) grain = n / (8 * static_cast<size_t>(p)) + 1;
    if (p == 1 || n / 2 < grain) {
      for (size_t i = lo; i < hi; ++i) f(i);
      return;
    }
    internal::ForLoop<std::remove_reference_t<F>> loop(f, grain);
    pool_->WithSlot([&](internal::Slot* slot) { loop.Run(slot, lo, hi); });
    loop.first_error().RethrowIfSet();
  }

  // Runs f1 and f2 potentially in parallel; returns when both are done.
  // Rethrows the first exception either threw, after both have finished.
  template <typename F1, typename F2>
  void ForkJoin(F1&& f1, F2&& f2) {
    if (num_workers() == 1) {
      f1();
      f2();
      return;
    }
    pool_->WithSlot([&](internal::Slot* slot) {
      internal::FirstError first_error;
      internal::Call<std::remove_reference_t<F2>> right(f2, first_error);
      if (slot == nullptr || !internal::Push(slot, &right)) {
        f1();
        f2();
        return;
      }
      try {
        f1();
      } catch (...) {
        first_error.Capture();
      }
      internal::Join(slot, &right);
      first_error.RethrowIfSet();
    });
  }

 private:
  Scheduler();
  std::unique_ptr<internal::Pool> pool_;
  // Guards pool_ replacement against Counters(), and holds the counters of
  // pools already retired.
  mutable std::mutex counters_mu_;
  SchedulerCounters retired_;
};

// Convenience free functions mirroring the paper's pseudocode.
template <typename F>
inline void parallel_for(size_t lo, size_t hi, F&& f, size_t grain = 0) {
  Scheduler::Get().ParallelFor(lo, hi, std::forward<F>(f), grain);
}

template <typename F1, typename F2>
inline void fork_join(F1&& f1, F2&& f2) {
  Scheduler::Get().ForkJoin(std::forward<F1>(f1), std::forward<F2>(f2));
}

inline int num_workers() { return Scheduler::Get().num_workers(); }

inline void set_num_workers(int n) { Scheduler::Get().SetNumWorkers(n); }

inline SchedulerCounters scheduler_counters() {
  return Scheduler::Get().Counters();
}

// RAII helper that forces a worker count for a scope (used by tests and the
// thread-scaling benchmarks).
class ScopedNumWorkers {
 public:
  explicit ScopedNumWorkers(int n) : saved_(num_workers()) {
    set_num_workers(n);
  }
  ~ScopedNumWorkers() { set_num_workers(saved_); }
  ScopedNumWorkers(const ScopedNumWorkers&) = delete;
  ScopedNumWorkers& operator=(const ScopedNumWorkers&) = delete;

 private:
  int saved_;
};

}  // namespace pdbscan::parallel

#endif  // PDBSCAN_PARALLEL_SCHEDULER_H_
