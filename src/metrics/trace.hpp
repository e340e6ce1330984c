// Structured phase tracing — scoped spans into lock-free per-thread buffers.
//
// The paper's whole evaluation (§V, Figs. 5–7) is a story about where time
// goes: generation vs. processing vs. update, pipelining overlap, PCIe
// exchange. This header gives the runtime a span model for exactly those
// phases: a ScopedSpan records (phase, superstep, rank, begin, end) into a
// buffer owned by the calling thread, so recording is a clock read plus a
// push_back with no synchronization on the hot path. Buffers register once
// (mutex-protected) in a process-global Collector; snapshots are taken at
// run boundaries when no engine is executing.
//
// Call sites use the PG_TRACE_* macros, which compile to `((void)0)` unless
// the build defines PHIGRAPH_TRACE (CMake option, `trace` preset) — the
// default build carries no clock reads, no buffers, no branches, exactly
// like the audit and fault-injection layers. The Collector class itself is
// always compiled so its unit tests run in every preset.
//
// Two span kinds nest inside the orchestrator phases and are excluded from
// phase-time accounting: kPipelineDrain (a mover's whole drain loop, running
// *inside* the generate phase on a team thread — the overlap the paper's
// pipelining scheme exists to create) and kExchangeWait (the rendezvous wait
// inside AllToAll::exchange_for, the PCIe-latency stand-in).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sync.hpp"
#include "src/common/thread_safety.hpp"

#if defined(PHIGRAPH_TRACE)
#define PG_TRACE_ENABLED 1
#else
#define PG_TRACE_ENABLED 0
#endif

namespace phigraph::trace {

/// Every span kind the runtime records. The first seven partition a
/// superstep's orchestrator wall time (see is_exclusive_phase); kSuperstep
/// is the enclosing envelope; the rest annotate concurrency and recovery.
enum class Phase : std::uint8_t {
  kPrepare = 0,
  kGenerate,
  kExchange,
  kProcess,
  kUpdate,
  kTerminate,
  kCheckpoint,
  kSuperstep,      // whole-superstep envelope on the orchestrator
  kPipelineDrain,  // one mover's drain loop (inside generate, team thread)
  kExchangeWait,   // rendezvous wait inside AllToAll::exchange_for
  kRecovery,       // CPU-only failover rebuild + rerun
  kPullScan,       // bottom-up pull kernel (inside generate, team threads)
  kServeBatch,     // one QueryEngine batch: formation through fulfillment
};

inline constexpr int kNumPhases = 13;

constexpr const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kPrepare: return "prepare";
    case Phase::kGenerate: return "generate";
    case Phase::kExchange: return "exchange";
    case Phase::kProcess: return "process";
    case Phase::kUpdate: return "update";
    case Phase::kTerminate: return "terminate";
    case Phase::kCheckpoint: return "checkpoint";
    case Phase::kSuperstep: return "superstep";
    case Phase::kPipelineDrain: return "pipeline-drain";
    case Phase::kExchangeWait: return "exchange-wait";
    case Phase::kRecovery: return "recovery";
    case Phase::kPullScan: return "pull-scan";
    case Phase::kServeBatch: return "serve-batch";
  }
  return "?";
}

/// True for the phases that tile a superstep without overlap on the
/// orchestrator thread — the set whose durations must sum to the kSuperstep
/// envelope (the invariant the phase-time tests assert).
constexpr bool is_exclusive_phase(Phase p) noexcept {
  return p == Phase::kPrepare || p == Phase::kGenerate ||
         p == Phase::kExchange || p == Phase::kProcess ||
         p == Phase::kUpdate || p == Phase::kTerminate ||
         p == Phase::kCheckpoint;
}

/// One recorded interval. Timestamps are nanoseconds since the Collector's
/// epoch (steady clock). superstep is -1 for spans outside a superstep
/// (exchange waits seen from inside comm, recovery).
struct Span {
  Phase phase = Phase::kSuperstep;
  std::int32_t superstep = -1;
  std::int32_t rank = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
  }
};

/// Process-global span sink. Threads get a private buffer on first record
/// (registration takes the registry mutex once per thread); recording is
/// then a plain push_back. snapshot()/clear() must only run while no thread
/// is recording — i.e. between engine runs; engines never call them.
class Collector {
 public:
  static Collector& instance() {
    static Collector c;
    return c;
  }

  /// Runtime master switch (meaningful when spans are compiled in; the
  /// direct API ignores it so unit tests exercise the buffers everywhere).
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Nanoseconds since this collector's construction (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  void record(Phase phase, int superstep, int rank, std::uint64_t begin_ns,
              std::uint64_t end_ns) {
    local_buffer().spans.push_back(
        Span{phase, static_cast<std::int32_t>(superstep),
             static_cast<std::int32_t>(rank), begin_ns, end_ns});
  }

  /// Label the calling thread's timeline ("cpu-orchestrator", ...). The name
  /// sticks to the thread's buffer and shows up in Chrome trace exports.
  void set_thread_name(std::string name) {
    local_buffer().name = std::move(name);
  }

  /// One thread's recorded timeline.
  struct ThreadTrace {
    std::string name;
    std::vector<Span> spans;
  };

  /// Copy of every thread's buffer. Quiescent-only (run boundaries).
  [[nodiscard]] std::vector<ThreadTrace> snapshot() const {
    sync::LockGuard g(mu_);
    std::vector<ThreadTrace> out;
    out.reserve(buffers_.size());
    for (const auto& b : buffers_) out.push_back({b->name, b->spans});
    return out;
  }

  /// Drop all spans, keeping thread registrations and names. Quiescent-only.
  void clear() {
    sync::LockGuard g(mu_);
    for (const auto& b : buffers_) b->spans.clear();
  }

  [[nodiscard]] std::size_t total_spans() const {
    sync::LockGuard g(mu_);
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->spans.size();
    return n;
  }

 private:
  struct ThreadBuffer {
    std::string name;
    std::vector<Span> spans;
  };

  Collector() : epoch_(std::chrono::steady_clock::now()) {}

  ThreadBuffer& local_buffer() {
    thread_local ThreadBuffer* tl = nullptr;
    if (tl == nullptr) {
      sync::LockGuard g(mu_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      tl = buffers_.back().get();
      tl->name = "thread-" + std::to_string(buffers_.size() - 1);
    }
    return *tl;
  }

  std::chrono::steady_clock::time_point epoch_;
  mutable sync::Mutex mu_;
  // Buffers outlive their threads (a finished MIC thread's spans must still
  // be exportable), so the registry owns them. Guarded registry (annotated
  // for -Wthread-safety): each thread's buffer contents are private to it
  // after registration, but the vector itself is shared.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ PG_GUARDED_BY(mu_);
  bool enabled_ = true;
};

/// RAII span: clocks on construction, records on destruction. Respects the
/// collector's runtime switch at entry.
class ScopedSpan {
 public:
  ScopedSpan(Phase phase, int superstep, int rank) noexcept
      : phase_(phase), superstep_(superstep), rank_(rank) {
    Collector& c = Collector::instance();
    active_ = c.enabled();
    if (active_) begin_ = c.now_ns();
  }

  ~ScopedSpan() {
    if (!active_) return;
    Collector& c = Collector::instance();
    c.record(phase_, superstep_, rank_, begin_, c.now_ns());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Phase phase_;
  int superstep_;
  int rank_;
  std::uint64_t begin_ = 0;
  bool active_ = false;
};

// ---- phase-time aggregation -------------------------------------------------

/// Per-(rank, superstep) totals derived from a snapshot: seconds[] indexed
/// by Phase, superstep_wall from the kSuperstep envelope. Rows are sorted by
/// (rank, superstep).
struct PhaseTableRow {
  int rank = 0;
  int superstep = 0;
  double seconds[kNumPhases] = {};
  double superstep_wall = 0;

  /// Sum of the exclusive phases — the quantity that must track
  /// superstep_wall (tested to tolerance in trace builds).
  [[nodiscard]] double exclusive_sum() const noexcept {
    double s = 0;
    for (int p = 0; p < kNumPhases; ++p)
      if (is_exclusive_phase(static_cast<Phase>(p))) s += seconds[p];
    return s;
  }
};

inline std::vector<PhaseTableRow> phase_table(
    const std::vector<Collector::ThreadTrace>& threads) {
  std::vector<PhaseTableRow> rows;
  auto row_for = [&](int rank, int superstep) -> PhaseTableRow& {
    for (auto& r : rows)
      if (r.rank == rank && r.superstep == superstep) return r;
    rows.push_back({});
    rows.back().rank = rank;
    rows.back().superstep = superstep;
    return rows.back();
  };
  for (const auto& t : threads) {
    for (const Span& s : t.spans) {
      if (s.superstep < 0) continue;
      auto& row = row_for(s.rank, s.superstep);
      if (s.phase == Phase::kSuperstep)
        row.superstep_wall += s.seconds();
      else
        row.seconds[static_cast<int>(s.phase)] += s.seconds();
    }
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.superstep < b.superstep;
  });
  return rows;
}

}  // namespace phigraph::trace

#if PG_TRACE_ENABLED
#define PG_TRACE_CONCAT_INNER(a, b) a##b
#define PG_TRACE_CONCAT(a, b) PG_TRACE_CONCAT_INNER(a, b)
/// Record a scoped span for this block. Multiple per scope are fine.
#define PG_TRACE_SCOPE(phase, superstep, rank)                        \
  ::phigraph::trace::ScopedSpan PG_TRACE_CONCAT(pg_trace_span_,       \
                                                __LINE__)(            \
      ::phigraph::trace::Phase::phase, (superstep), (rank))
/// Name the calling thread's timeline.
#define PG_TRACE_THREAD_NAME(name) \
  ::phigraph::trace::Collector::instance().set_thread_name(name)
#else
#define PG_TRACE_SCOPE(phase, superstep, rank) ((void)0)
#define PG_TRACE_THREAD_NAME(name) ((void)0)
#endif
