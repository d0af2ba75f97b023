#include "parallel/scheduler.h"

#include <sched.h>

#include <array>
#include <chrono>
#include <condition_variable>
#include <thread>
#include <vector>

#include "util/env.h"

namespace pdbscan::parallel {
namespace internal {

namespace {

// Outstanding jobs one thread may have pushed and not yet joined: the depth
// of its splits across nested loops. A full deque makes Push fail, and the
// caller runs the work inline.
constexpr size_t kDequeCapacity = 256;

// Non-worker threads that may run loops at the same time; further callers
// run serially until a slot frees up.
constexpr size_t kMaxExternalSlots = 64;

// Failed steal rounds before an idle worker parks, and before a join
// parks. Idle workers give up almost at once: a 50 us idle spin measured no
// better on the serving workloads, and a parked worker leaves its CPU to
// the serving and client threads.
constexpr int kIdleRounds = 8;
constexpr int kJoinSpinRounds = 256;

// Backoff between failed steal rounds: a few pause instructions first, then
// yields, so spinning threads give the CPU to runnable ones (serving and
// client threads) when the host is oversubscribed.
inline void Backoff(int round) {
  if (round < 32) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
    return;
#endif
  }
  std::this_thread::yield();
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// One thread's deque plus its counters. Jobs [top, bottom) sit in `jobs`
// modulo kDequeCapacity: the owner pushes and pops at the bottom, thieves
// take from the top. `size` mirrors bottom - top for lock-free probes.
struct alignas(64) Deque : Slot {
  explicit Deque(PoolImpl* owner, uint64_t seed)
      : pool(owner), rng(seed | 1) {}

  PoolImpl* const pool;
  std::mutex mu;
  size_t top = 0;     // Guarded by mu.
  size_t bottom = 0;  // Guarded by mu.
  std::array<Job*, kDequeCapacity> jobs{};

  // Written only by the thread that owns the slot; summed by AddCountersTo.
  std::atomic<uint64_t> spawned{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> parks{0};
  std::atomic<uint64_t> join_wait_nanos{0};

  uint64_t rng;  // Victim selection; owner only.

  uint64_t NextRandom() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
};

namespace {
Deque* AsDeque(Slot* slot) { return static_cast<Deque*>(slot); }

// The slot of the calling thread while it is a worker or inside a loop.
thread_local Slot* tls_slot = nullptr;

void Bump(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace

struct PoolImpl {
  explicit PoolImpl(int total_threads) {
    const int num_threads = total_threads - 1;
    for (int t = 0; t < num_threads; ++t) {
      workers.push_back(
          std::make_unique<Deque>(this, 0x9e3779b97f4a7c15ull * (t + 1)));
    }
    threads.reserve(workers.size());
    try {
      for (auto& w : workers) {
        Deque* slot = w.get();
        threads.emplace_back([this, slot]() { WorkerLoop(slot); });
      }
    } catch (...) {
      StopAndJoin();  // Threads already started must not outlive us.
      throw;
    }
  }

  ~PoolImpl() { StopAndJoin(); }

  void StopAndJoin() {
    {
      std::lock_guard<std::mutex> lock(sleep_mu);
      stop.store(true, std::memory_order_seq_cst);
    }
    work_cv.notify_all();
    for (auto& t : threads) t.join();
  }

  // Takes the oldest job of some other slot, or nullptr.
  Job* TrySteal(Deque* self) {
    const size_t nw = workers.size();
    const size_t total = nw + num_external.load(std::memory_order_acquire);
    if (total == 0) return nullptr;
    const size_t start = self->NextRandom() % total;
    for (size_t k = 0; k < total; ++k) {
      const size_t i = (start + k) % total;
      Deque* victim = i < nw ? workers[i].get() : external[i - nw].get();
      if (victim == self || SlotEmpty(victim)) continue;
      std::lock_guard<std::mutex> lock(victim->mu);
      if (victim->top == victim->bottom) continue;
      Job* job = victim->jobs[victim->top % kDequeCapacity];
      ++victim->top;
      victim->size.store(static_cast<uint32_t>(victim->bottom - victim->top),
                         std::memory_order_relaxed);
      pending.fetch_sub(1, std::memory_order_seq_cst);
      return job;
    }
    return nullptr;
  }

  // Runs a job taken from another slot and publishes its completion. The
  // job's frame may be gone as soon as `done` is set, so only the pool is
  // touched afterwards. `done` is set outside sleep_mu; the seq_cst
  // store-then-load here and the increment-then-load in Join's park mean
  // either the joiner sees `done` or this thread sees it parked, and the
  // notify under sleep_mu cannot slip in before the joiner waits.
  void RunStolen(Deque* self, Job* job) {
    Bump(self->steals);
    job->run(job, self);
    job->done.store(true, std::memory_order_seq_cst);
    if (parked_joiners.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(sleep_mu);
      join_cv.notify_all();
    }
  }

  // After a push: wake one parked worker, if any. Push raises `pending`
  // before loading `sleepers` and a parking worker raises `sleepers` before
  // loading `pending` (all seq_cst), so the worker either sees the job or is
  // counted here; notifying under sleep_mu means it is already waiting.
  void WakeWorker() {
    if (sleepers.load(std::memory_order_seq_cst) == 0) return;
    std::lock_guard<std::mutex> lock(sleep_mu);
    work_cv.notify_one();
  }

  void WorkerLoop(Deque* self) {
    tls_slot = self;
    for (;;) {
      Job* job = nullptr;
      for (int round = 0; round < kIdleRounds && job == nullptr &&
                          !stop.load(std::memory_order_relaxed);
           ++round) {
        if (round > 0) Backoff(round);
        job = TrySteal(self);
      }
      if (job != nullptr) {
        RunStolen(self, job);
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_mu);
      sleepers.fetch_add(1, std::memory_order_seq_cst);
      auto ready = [this]() {
        return stop.load(std::memory_order_seq_cst) ||
               pending.load(std::memory_order_seq_cst) > 0;
      };
      if (!ready()) {
        Bump(self->parks);
        work_cv.wait(lock, ready);
      }
      sleepers.fetch_sub(1, std::memory_order_seq_cst);
      if (stop.load(std::memory_order_seq_cst)) return;
    }
  }

  std::vector<std::unique_ptr<Deque>> workers;

  // External slots are created on demand and live as long as the pool, so
  // thieves may scan the first num_external of them without a lock.
  std::array<std::unique_ptr<Deque>, kMaxExternalSlots> external;
  std::atomic<size_t> num_external{0};
  std::mutex external_mu;
  std::vector<Deque*> free_external;  // Guarded by external_mu.

  // Jobs pushed and not yet taken (an upper bound: incremented before the
  // push is visible). Idle workers sleep while it is 0.
  std::atomic<int64_t> pending{0};
  std::atomic<int> sleepers{0};        // Workers parked on work_cv.
  std::atomic<int> parked_joiners{0};  // Joins parked on join_cv.
  std::atomic<bool> stop{false};
  std::mutex sleep_mu;
  std::condition_variable work_cv;
  std::condition_variable join_cv;

  // Last: the worker threads use every member above.
  std::vector<std::thread> threads;
};

bool Push(Slot* slot, Job* job) {
  Deque* d = AsDeque(slot);
  PoolImpl* pool = d->pool;
  pool->pending.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(d->mu);
    if (d->bottom - d->top == kDequeCapacity) {
      pool->pending.fetch_sub(1, std::memory_order_seq_cst);
      return false;
    }
    d->jobs[d->bottom % kDequeCapacity] = job;
    ++d->bottom;
    d->size.store(static_cast<uint32_t>(d->bottom - d->top),
                  std::memory_order_relaxed);
  }
  Bump(d->spawned);
  pool->WakeWorker();
  return true;
}

void Join(Slot* slot, Job* job) {
  Deque* d = AsDeque(slot);
  PoolImpl* pool = d->pool;
  bool popped = false;
  {
    std::lock_guard<std::mutex> lock(d->mu);
    if (d->bottom > d->top &&
        d->jobs[(d->bottom - 1) % kDequeCapacity] == job) {
      --d->bottom;
      d->size.store(static_cast<uint32_t>(d->bottom - d->top),
                    std::memory_order_relaxed);
      popped = true;
    }
  }
  if (popped) {
    pool->pending.fetch_sub(1, std::memory_order_seq_cst);
    job->run(job, slot);
    return;
  }

  // Stolen: help with other jobs, spin, then park until the thief is done.
  const uint64_t wait_start = NowNanos();
  int idle_rounds = 0;
  while (!job->done.load(std::memory_order_acquire)) {
    if (Job* other = pool->TrySteal(d)) {
      pool->RunStolen(d, other);
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < kJoinSpinRounds) {
      Backoff(idle_rounds);
      continue;
    }
    std::unique_lock<std::mutex> lock(pool->sleep_mu);
    pool->parked_joiners.fetch_add(1, std::memory_order_seq_cst);
    if (!job->done.load(std::memory_order_seq_cst)) {
      Bump(d->parks);
      pool->join_cv.wait(lock, [job]() {
        return job->done.load(std::memory_order_seq_cst);
      });
    }
    pool->parked_joiners.fetch_sub(1, std::memory_order_seq_cst);
  }
  Bump(d->join_wait_nanos, NowNanos() - wait_start);
}

Pool::Pool(int total_threads)
    : impl_(std::make_unique<PoolImpl>(total_threads)),
      total_threads_(total_threads) {}

Pool::~Pool() = default;

Slot* Pool::CurrentSlot() const { return tls_slot; }

Slot* Pool::AcquireExternal() {
  Deque* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(impl_->external_mu);
    if (!impl_->free_external.empty()) {
      slot = impl_->free_external.back();
      impl_->free_external.pop_back();
    } else {
      const size_t n = impl_->num_external.load(std::memory_order_relaxed);
      if (n == kMaxExternalSlots) return nullptr;
      impl_->external[n] = std::make_unique<Deque>(
          impl_.get(), 0xc2b2ae3d27d4eb4full * (n + 1));
      slot = impl_->external[n].get();
      impl_->num_external.store(n + 1, std::memory_order_release);
    }
  }
  tls_slot = slot;
  return slot;
}

void Pool::ReleaseExternal(Slot* slot) {
  tls_slot = nullptr;
  std::lock_guard<std::mutex> lock(impl_->external_mu);
  impl_->free_external.push_back(AsDeque(slot));
}

void Pool::AddCountersTo(SchedulerCounters& out) const {
  auto add = [&out](const Deque& d) {
    out.tasks_spawned += d.spawned.load(std::memory_order_relaxed);
    out.steals += d.steals.load(std::memory_order_relaxed);
    out.parks += d.parks.load(std::memory_order_relaxed);
    out.join_wait_nanos += d.join_wait_nanos.load(std::memory_order_relaxed);
  };
  for (const auto& w : impl_->workers) add(*w);
  const size_t ne = impl_->num_external.load(std::memory_order_acquire);
  for (size_t i = 0; i < ne; ++i) add(*impl_->external[i]);
}

}  // namespace internal

namespace {
// CPUs this process may run on (its affinity mask), else the hardware count.
int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}
}  // namespace

Scheduler::Scheduler() {
  int n = util::GetEnvInt("PDBSCAN_NUM_THREADS", 0);
  if (n <= 0) n = AvailableCpus();
  pool_ = std::make_unique<internal::Pool>(n);
}

Scheduler& Scheduler::Get() {
  static Scheduler* scheduler = new Scheduler();
  return *scheduler;
}

int Scheduler::num_workers() const { return pool_->total_threads(); }

void Scheduler::SetNumWorkers(int n) {
  if (n < 1) n = 1;
  if (n == pool_->total_threads()) return;
  std::lock_guard<std::mutex> lock(counters_mu_);
  pool_->AddCountersTo(retired_);
  pool_.reset();  // Join old workers before spawning new ones.
  pool_ = std::make_unique<internal::Pool>(n);
}

SchedulerCounters Scheduler::Counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  SchedulerCounters out = retired_;
  pool_->AddCountersTo(out);
  return out;
}

}  // namespace pdbscan::parallel
