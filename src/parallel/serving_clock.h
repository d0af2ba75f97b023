// Injectable time source for the serving layer — the seam that turns
// scheduling races into reproducible unit tests.
//
// Every time-dependent decision in the serving stack (deadline expiry at
// admission, claim and delivery; latency histograms) reads time through a
// Clock, never through std::chrono directly. Production code uses
// SystemClock (the process-wide monotonic clock); tests inject a FakeClock
// whose time only moves when the test calls Advance(), so "the deadline
// passed while the request sat in the queue" is a deterministic sequence
// of calls rather than a sleep-and-hope timing assertion. No test in the
// serving suites contains a real sleep.
//
// A Clock is only a time source: nothing blocks on it. The scheduler's
// idle executors park on a plain condition variable, and they park only
// when the queue is empty, so no queued deadline can pass unseen.
#ifndef PDBSCAN_PARALLEL_SERVING_CLOCK_H_
#define PDBSCAN_PARALLEL_SERVING_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>

namespace pdbscan::parallel {

// Monotonic nanoseconds. kNeverNanos means "no deadline".
inline constexpr uint64_t kNeverNanos = std::numeric_limits<uint64_t>::max();

// a * b, or kNeverNanos when the product does not fit below it.
inline constexpr uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  return b != 0 && a >= kNeverNanos / b ? kNeverNanos : a * b;
}

// a + b, or kNeverNanos when the sum does not fit below it.
inline constexpr uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return a >= kNeverNanos - b ? kNeverNanos : a + b;
}

// Both saturate at kNeverNanos, so a huge timeout means "no deadline"
// rather than wrapping around to a deadline in the past.
inline constexpr uint64_t MillisToNanos(uint64_t ms) {
  return SaturatingMul(ms, 1000000ull);
}
inline constexpr uint64_t SecondsToNanos(uint64_t s) {
  return SaturatingMul(s, 1000000000ull);
}

class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic now, in nanoseconds. Comparable only against values from the
  // same clock instance (SystemClock uses a process-wide epoch).
  virtual uint64_t NowNanos() const = 0;

  // The process-wide real (steady) clock.
  static Clock& Real();
};

// Production clock: std::chrono::steady_clock behind the Clock interface.
class SystemClock : public Clock {
 public:
  uint64_t NowNanos() const override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

inline Clock& Clock::Real() {
  static SystemClock* clock = new SystemClock();
  return *clock;
}

// Test clock: time starts at a fixed epoch and moves only via Advance().
// Thread-safe.
class FakeClock : public Clock {
 public:
  explicit FakeClock(uint64_t start_nanos = SecondsToNanos(1))
      : now_nanos_(start_nanos) {}

  uint64_t NowNanos() const override {
    std::lock_guard<std::mutex> guard(mu_);
    return now_nanos_;
  }

  void Advance(uint64_t nanos) {
    std::lock_guard<std::mutex> guard(mu_);
    now_nanos_ += nanos;
  }

  void AdvanceMillis(uint64_t ms) { Advance(MillisToNanos(ms)); }

 private:
  mutable std::mutex mu_;
  uint64_t now_nanos_;
};

}  // namespace pdbscan::parallel

#endif  // PDBSCAN_PARALLEL_SERVING_CLOCK_H_
