// Tracing: RAII spans with parent links, recorded into a bounded lock-free
// ring buffer, with request-scoped trace ids that propagate across the
// serving stack (connection thread -> scheduler queue -> executor).
//
// Cost model. Tracing is OFF by default; the only cost a disabled build
// pays is one inlined relaxed atomic load + branch per span site
// (TraceEnabled()), plus, for a stage span that carries a seconds field,
// the two steady_clock reads that time the stage anyway. When enabled, a
// span is two steady_clock reads, a thread-local stack push/pop and one
// ring append — no allocation, no locks. Span names must be STATIC strings
// (the ring stores the pointer).
//
// Context model. Each thread carries a TraceContext: the ambient trace id
// plus a bounded stack of open span ids. TraceSpan reads the stack top as
// its parent and pushes itself; the destructor pops and appends the
// finished SpanRecord to the global ring. Cross-thread propagation is
// explicit: the serving scheduler snapshots (trace id, top-of-stack span
// id) at admission and the executor re-establishes them with
// ScopedTraceContext before executing the batch, so executor-side spans
// nest under the submitting request's root span. Spans deeper than
// kMaxDepth, or created on threads with no context, still record — they
// just parent to the top of whatever stack exists (or to nothing).
//
// The ring is a seqlock-per-slot design over atomic words: writers claim a
// slot with an odd sequence number, store the record field-by-field with
// relaxed atomics, and release with an even number; readers skip odd slots
// and retry torn reads. Every access is through std::atomic, so the ring
// is data-race-free under TSan while writers never block readers or each
// other (a writer that catches a slot mid-write drops the span — telemetry
// prefers losing one span to stalling the serving path).
#ifndef PDBSCAN_TELEMETRY_TRACE_H_
#define PDBSCAN_TELEMETRY_TRACE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/env.h"

namespace pdbscan::telemetry {

// One finished span. `name` points at a static string literal.
struct SpanRecord {
  const char* name = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root (no parent).
  uint64_t start_nanos = 0;
  uint64_t end_nanos = 0;

  uint64_t duration_nanos() const {
    return end_nanos >= start_nanos ? end_nanos - start_nanos : 0;
  }
};

namespace internal {

inline std::atomic<bool> g_trace_enabled{false};
inline std::atomic<uint64_t> g_next_span_id{1};

struct TraceContext {
  static constexpr size_t kMaxDepth = 32;
  uint64_t trace_id = 0;
  uint64_t stack[kMaxDepth] = {};
  size_t depth = 0;

  uint64_t top() const { return depth > 0 ? stack[depth - 1] : 0; }
};

inline TraceContext& ThreadTraceContext() {
  thread_local TraceContext ctx;
  return ctx;
}

}  // namespace internal

// The compile-time-inlined enabled check: one relaxed load and a branch.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

inline void SetTraceEnabled(bool on) {
  internal::g_trace_enabled.store(on, std::memory_order_relaxed);
}

// Steady-clock nanoseconds — the time base of every span.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t NextSpanId() {
  return internal::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

// A process-unique trace id (time-salted so ids from successive client
// processes rarely collide in a server's ring).
inline uint64_t NewTraceId() {
  const uint64_t id = NowNanos() ^ (NextSpanId() << 48);
  return id != 0 ? id : 1;
}

// Ambient trace id / parent span of the calling thread (0 = none).
inline uint64_t CurrentTraceId() {
  return internal::ThreadTraceContext().trace_id;
}
inline uint64_t CurrentSpanId() {
  return internal::ThreadTraceContext().top();
}

// Bounded lock-free span sink. Capacity is rounded up to a power of two.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 4096)
      : mask_(std::bit_ceil(capacity < 2 ? size_t{2} : capacity) - 1),
        slots_(new Slot[mask_ + 1]) {}

  size_t capacity() const { return mask_ + 1; }
  uint64_t appended() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  void Append(const SpanRecord& rec) {
    const uint64_t idx =
        cursor_.fetch_add(1, std::memory_order_relaxed) & mask_;
    Slot& slot = slots_[idx];
    uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !slot.seq.compare_exchange_strong(seq, seq + 1,
                                          std::memory_order_acq_rel)) {
      // Another writer lapped us onto a slot mid-write; drop this span.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot.words[0].store(reinterpret_cast<uintptr_t>(rec.name),
                        std::memory_order_relaxed);
    slot.words[1].store(rec.trace_id, std::memory_order_relaxed);
    slot.words[2].store(rec.span_id, std::memory_order_relaxed);
    slot.words[3].store(rec.parent_id, std::memory_order_relaxed);
    slot.words[4].store(rec.start_nanos, std::memory_order_relaxed);
    slot.words[5].store(rec.end_nanos, std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);
  }

  // Copies every stable slot (in-flight writes are skipped, torn reads
  // retried once then skipped). Records arrive in no particular order;
  // sort by start_nanos for display.
  std::vector<SpanRecord> Snapshot() const {
    std::vector<SpanRecord> out;
    const size_t n = mask_ + 1;
    out.reserve(std::min<uint64_t>(appended(), n));
    for (size_t i = 0; i < n; ++i) {
      const Slot& slot = slots_[i];
      for (int attempt = 0; attempt < 2; ++attempt) {
        const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 == 0 || (s1 & 1) != 0) break;  // Empty or being written.
        SpanRecord rec;
        rec.name = reinterpret_cast<const char*>(
            slot.words[0].load(std::memory_order_relaxed));
        rec.trace_id = slot.words[1].load(std::memory_order_relaxed);
        rec.span_id = slot.words[2].load(std::memory_order_relaxed);
        rec.parent_id = slot.words[3].load(std::memory_order_relaxed);
        rec.start_nanos = slot.words[4].load(std::memory_order_relaxed);
        rec.end_nanos = slot.words[5].load(std::memory_order_relaxed);
        if (slot.seq.load(std::memory_order_acquire) == s1) {
          out.push_back(rec);
          break;
        }
      }
    }
    return out;
  }

  // Every stable record of one trace, sorted by start time.
  std::vector<SpanRecord> CollectTrace(uint64_t trace_id) const {
    std::vector<SpanRecord> out = Snapshot();
    std::erase_if(out, [trace_id](const SpanRecord& r) {
      return r.trace_id != trace_id;
    });
    std::sort(out.begin(), out.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.start_nanos != b.start_nanos
                           ? a.start_nanos < b.start_nanos
                           : a.span_id < b.span_id;
              });
    return out;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[6] = {};
  };

  const size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> cursor_{0};
  std::atomic<uint64_t> dropped_{0};
};

// The process-wide span sink. Capacity comes from PDBSCAN_TRACE_RING at
// first use (default 4096); leaked intentionally, like GlobalStats().
inline TraceRing& GlobalTraceRing() {
  static TraceRing* ring = new TraceRing(static_cast<size_t>(
      util::GetEnvInt("PDBSCAN_TRACE_RING", 4096)));
  return *ring;
}

// Reads PDBSCAN_TRACE (nonzero = on) — call once from tool main()s so
// deployments can enable tracing without a flag.
inline void InitTraceFromEnv() {
  if (util::GetEnvInt("PDBSCAN_TRACE", 0) != 0) SetTraceEnabled(true);
}

// Appends a manually timed span (for intervals that cannot be RAII, e.g. a
// queue wait measured across threads). Returns the span id used.
inline uint64_t RecordSpan(const char* name, uint64_t trace_id,
                           uint64_t parent_id, uint64_t start_nanos,
                           uint64_t end_nanos, uint64_t span_id = 0) {
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = trace_id;
  rec.span_id = span_id != 0 ? span_id : NextSpanId();
  rec.parent_id = parent_id;
  rec.start_nanos = start_nanos;
  rec.end_nanos = end_nanos;
  GlobalTraceRing().Append(rec);
  return rec.span_id;
}

// Establishes (trace id, parent span id) on the calling thread for the
// scope — the cross-thread propagation primitive. Spans opened inside
// parent to `parent_span_id` and carry `trace_id`.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(uint64_t trace_id, uint64_t parent_span_id = 0)
      : ctx_(internal::ThreadTraceContext()),
        prev_trace_(ctx_.trace_id),
        pushed_(false) {
    ctx_.trace_id = trace_id;
    if (parent_span_id != 0 &&
        ctx_.depth < internal::TraceContext::kMaxDepth) {
      ctx_.stack[ctx_.depth++] = parent_span_id;
      pushed_ = true;
    }
  }

  ~ScopedTraceContext() {
    if (pushed_) --ctx_.depth;
    ctx_.trace_id = prev_trace_;
  }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  internal::TraceContext& ctx_;
  uint64_t prev_trace_;
  bool pushed_;
};

// Accumulates seconds into a relaxed atomic double (CAS loop: fetch_add on
// atomic<double> needs C++20 library support that not all toolchains ship).
inline void AddSeconds(std::atomic<double>& slot, double seconds) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + seconds,
                                     std::memory_order_relaxed)) {
  }
}

// The RAII span, and the one way to time a pipeline stage.
//
// TraceSpan(name) only traces: with tracing disabled, construction is a
// relaxed load and a branch and nothing else happens (nothing is recorded
// at destruction even if tracing was enabled mid-span).
//
// TraceSpan(name, seconds) times a stage: it reads the clock at open and at
// close whether or not tracing is on, adds the elapsed time to `seconds`
// (a PipelineStats *_seconds field), and — tracing on — records the span
// with those same two timestamps, so the field and the span cannot drift.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TraceEnabled()) Open(name, NowNanos());
  }

  TraceSpan(const char* name, std::atomic<double>& seconds)
      : seconds_(&seconds), start_nanos_(NowNanos()) {
    if (TraceEnabled()) Open(name, start_nanos_);
  }

  ~TraceSpan() { Close(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Ends the span now rather than at scope exit and returns its duration
  // in seconds — for a stage whose seconds also land somewhere besides the
  // sink. Later calls (and the destructor) do nothing and return 0, as
  // does closing a trace-only span with tracing off.
  double Close() {
    if (seconds_ == nullptr && !active_) return 0;
    const uint64_t end_nanos = NowNanos();
    const double elapsed =
        static_cast<double>(end_nanos - start_nanos_) * 1e-9;
    if (seconds_ != nullptr) {
      AddSeconds(*seconds_, elapsed);
      seconds_ = nullptr;
    }
    if (active_) {
      active_ = false;
      internal::TraceContext& ctx = internal::ThreadTraceContext();
      if (pushed_ && ctx.depth > 0) --ctx.depth;
      GlobalTraceRing().Append({name_, trace_id_, span_id_, parent_id_,
                                start_nanos_, end_nanos});
    }
    return elapsed;
  }

  uint64_t span_id() const { return span_id_; }
  bool active() const { return active_; }

 private:
  void Open(const char* name, uint64_t start_nanos) {
    internal::TraceContext& ctx = internal::ThreadTraceContext();
    name_ = name;
    trace_id_ = ctx.trace_id;
    parent_id_ = ctx.top();
    span_id_ = NextSpanId();
    start_nanos_ = start_nanos;
    if (ctx.depth < internal::TraceContext::kMaxDepth) {
      ctx.stack[ctx.depth++] = span_id_;
      pushed_ = true;
    }
    active_ = true;
  }

  std::atomic<double>* seconds_ = nullptr;  // Null: trace-only.
  const char* name_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_nanos_ = 0;
  bool active_ = false;
  bool pushed_ = false;
};

// --- Span-tree assembly and rendering ---------------------------------------

// One node of an assembled trace tree. `self_nanos` is the span's duration
// minus its children's (clamped at 0) — the time attributable to the span
// itself. For a well-nested trace the self times of a root's subtree sum
// to exactly the root's duration.
struct SpanNode {
  SpanRecord rec;
  std::vector<size_t> children;  // Indices into the nodes vector.
  uint64_t self_nanos = 0;
  bool is_root = false;
};

// Builds parent/child links over `spans` (any order; unknown parents make
// roots). Children keep the input order, which CollectTrace makes
// chronological.
inline std::vector<SpanNode> BuildSpanTree(std::span<const SpanRecord> spans) {
  std::vector<SpanNode> nodes(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    nodes[i].rec = spans[i];
    nodes[i].self_nanos = spans[i].duration_nanos();
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    bool linked = false;
    if (nodes[i].rec.parent_id != 0) {
      for (size_t j = 0; j < nodes.size(); ++j) {
        if (j != i && nodes[j].rec.span_id == nodes[i].rec.parent_id) {
          nodes[j].children.push_back(i);
          const uint64_t child = nodes[i].rec.duration_nanos();
          nodes[j].self_nanos =
              nodes[j].self_nanos >= child ? nodes[j].self_nanos - child : 0;
          linked = true;
          break;
        }
      }
    }
    nodes[i].is_root = !linked;
  }
  return nodes;
}

// Sum of self times over every span — for a single well-nested trace this
// equals the sum of the root durations (the total covered wall-clock).
inline uint64_t TotalSelfNanos(std::span<const SpanNode> nodes) {
  uint64_t total = 0;
  for (const SpanNode& n : nodes) total += n.self_nanos;
  return total;
}

namespace internal {

inline void FormatSpanSubtree(const std::vector<SpanNode>& nodes, size_t i,
                              int depth, uint64_t trace_start,
                              std::string& out) {
  const SpanNode& n = nodes[i];
  char line[256];
  std::snprintf(line, sizeof(line), "%*s%-24s %10.3fms  self %10.3fms  @+%.3fms\n",
                depth * 2, "", n.rec.name != nullptr ? n.rec.name : "?",
                static_cast<double>(n.rec.duration_nanos()) / 1e6,
                static_cast<double>(n.self_nanos) / 1e6,
                static_cast<double>(n.rec.start_nanos - trace_start) / 1e6);
  out += line;
  for (const size_t c : n.children) {
    FormatSpanSubtree(nodes, c, depth + 1, trace_start, out);
  }
}

}  // namespace internal

// Human-readable indented span tree with per-span total/self times and
// offsets from the trace start.
inline std::string FormatSpanTree(std::span<const SpanRecord> spans) {
  if (spans.empty()) return "(no spans)\n";
  uint64_t trace_start = ~uint64_t{0};
  for (const SpanRecord& s : spans) {
    trace_start = std::min(trace_start, s.start_nanos);
  }
  const std::vector<SpanNode> nodes = BuildSpanTree(spans);
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].is_root) {
      internal::FormatSpanSubtree(nodes, i, 0, trace_start, out);
    }
  }
  return out;
}

}  // namespace pdbscan::telemetry

#endif  // PDBSCAN_TELEMETRY_TRACE_H_
