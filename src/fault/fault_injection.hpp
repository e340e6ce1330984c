// Deterministic fault injection ("fault build") — named fault points at every
// place the fault-tolerance layer must survive a failure, armed by a seeded
// FaultPlan so failure paths are exercised by replayable tests instead of
// luck.
//
// Everything is gated on the PHIGRAPH_FAULTS preprocessor definition (CMake
// option -DPHIGRAPH_FAULTS=ON, the `faults` preset). When the gate is off,
// PG_FAULT_POINT expands to `((void)0)` — the default build carries no extra
// state, loads, or branches, exactly like the audit layer.
//
// A fault point fires by throwing FaultInjected, which then travels the same
// road a real failure would: caught by the engine's guarded phase runner,
// converted into an AllToAll poison, and surfaced to the peer as a
// structured FaultReport.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/expect.hpp"
#include "src/common/rng.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_safety.hpp"
#include "src/fault/fault.hpp"

#if defined(PHIGRAPH_FAULTS)
#define PG_FAULTS_ENABLED 1
#else
#define PG_FAULTS_ENABLED 0
#endif

namespace phigraph::fault {

/// Every named fault point in the runtime. The names mirror the code site:
/// `engine.*` fire around the three user callbacks, `exchange.deposit` at
/// the start of the data-exchange phase, `pipeline.mover_insert` in the
/// mover's CSB insertion, `checkpoint.write` while a frame is written, and
/// `checkpoint.rename` between a file-backed frame's fsynced temp write and
/// the atomic rename that publishes it (a crash there must leave both
/// existing slots intact).
enum class Point : std::uint8_t {
  kExchangeDeposit = 0,
  kEngineGenerate,
  kEngineProcess,
  kEngineUpdate,
  kPipelineMoverInsert,
  kCheckpointWrite,
  kCheckpointRename,
};

inline constexpr int kNumPoints = 7;

constexpr const char* point_name(Point p) noexcept {
  switch (p) {
    case Point::kExchangeDeposit: return "exchange.deposit";
    case Point::kEngineGenerate: return "engine.generate";
    case Point::kEngineProcess: return "engine.process";
    case Point::kEngineUpdate: return "engine.update";
    case Point::kPipelineMoverInsert: return "pipeline.mover_insert";
    case Point::kCheckpointWrite: return "checkpoint.write";
    case Point::kCheckpointRename: return "checkpoint.rename";
  }
  return "?";
}

/// The exception a fired fault point throws. Carries the armed spec's
/// FaultKind so the engine's classification (and therefore the recovery
/// ladder's rung choice) can be exercised deterministically by tests.
class FaultInjected : public std::runtime_error {
 public:
  FaultInjected(Point p, int r, int s, FaultKind k = FaultKind::kPermanent)
      : std::runtime_error(std::string("injected ") + kind_name(k) +
                           " fault at " + point_name(p) + " (rank " +
                           std::to_string(r) + ", superstep " +
                           std::to_string(s) + ")"),
        point(p),
        rank(r),
        superstep(s),
        kind(k) {}

  Point point;
  int rank;
  int superstep;
  FaultKind kind;
};

/// One armed fault: fire on the `occurrence`-th time `point` is reached by
/// `rank` in `superstep` (occurrences count from 1), and keep firing for
/// `shots` consecutive reaches before going quiet. shots > 1 makes a
/// transient fault survive its first retry — the replayed superstep reaches
/// the point again and fires again — so tests can prove the retry budget is
/// honoured; once the shots are spent the retry genuinely succeeds.
struct FaultSpec {
  Point point = Point::kEngineGenerate;
  int rank = 0;
  int superstep = 0;
  int occurrence = 1;
  FaultKind kind = FaultKind::kPermanent;
  int shots = 1;
};

/// A deterministic schedule of faults. Build explicitly via arm(), or derive
/// one from a seed: the same seed always yields the same schedule.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& arm(FaultSpec spec) {
    PG_CHECK_MSG(spec.rank >= 0, "fault rank must be >= 0");
    PG_CHECK_MSG(spec.superstep >= 0 && spec.occurrence >= 1,
                 "fault superstep/occurrence out of range");
    PG_CHECK_MSG(spec.shots >= 1, "fault shots out of range");
    specs_.push_back(spec);
    return *this;
  }

  /// Seeded single-fault plan: point, rank, superstep, and kind are drawn
  /// from the seed (superstep uniform in [0, max_superstep], rank uniform in
  /// [0, nranks)).
  static FaultPlan from_seed(std::uint64_t seed, int max_superstep,
                             int nranks = 2) {
    PG_CHECK(max_superstep >= 0 && nranks >= 1);
    Rng rng(seed);
    FaultSpec spec;
    spec.point = static_cast<Point>(rng.below(kNumPoints));
    spec.rank = static_cast<int>(rng.below(static_cast<std::uint64_t>(nranks)));
    spec.superstep =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(max_superstep) + 1));
    spec.occurrence = 1;
    spec.kind =
        rng.below(2) == 0 ? FaultKind::kTransient : FaultKind::kPermanent;
    FaultPlan plan;
    plan.arm(spec);
    return plan;
  }

  /// Seeded multi-fault chaos plan for the soak test: 1–3 specs mixing
  /// transient and permanent kinds, 1–2 shots each, spread over ranks and
  /// supersteps. Same seed, same schedule.
  static FaultPlan chaos_from_seed(std::uint64_t seed, int max_superstep,
                                   int nranks) {
    PG_CHECK(max_superstep >= 0 && nranks >= 1);
    Rng rng(seed);
    FaultPlan plan;
    const int nspecs = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < nspecs; ++i) {
      FaultSpec spec;
      spec.point = static_cast<Point>(rng.below(kNumPoints));
      spec.rank = static_cast<int>(rng.below(static_cast<std::uint64_t>(nranks)));
      spec.superstep = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(max_superstep) + 1));
      spec.occurrence = 1 + static_cast<int>(rng.below(2));
      spec.kind =
          rng.below(2) == 0 ? FaultKind::kTransient : FaultKind::kPermanent;
      spec.shots = 1 + static_cast<int>(rng.below(2));
      plan.arm(spec);
    }
    return plan;
  }

  [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
    return specs_;
  }
  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }

 private:
  std::vector<FaultSpec> specs_;
};

#if PG_FAULTS_ENABLED

/// Process-global injector (fault builds only). install() arms a plan and
/// resets its occurrence counters; check() is called from PG_FAULT_POINT
/// sites, possibly concurrently from team threads, and throws FaultInjected
/// when an armed spec's occurrence is reached. The armed list is guarded by
/// mu_ (annotated for -Wthread-safety) so an install racing a straggler
/// check() from a previous run cannot read a vector mid-mutation; within a
/// run, occurrence counting stays a relaxed fetch_add on a stable list.
class Injector {
 public:
  static Injector& instance() {
    static Injector inj;
    return inj;
  }

  void install(const FaultPlan& plan) {
    sync::LockGuard g(mu_);
    armed_.clear();
    for (const FaultSpec& s : plan.specs())
      armed_.push_back(std::make_unique<Armed>(s));
  }

  void clear() {
    sync::LockGuard g(mu_);
    armed_.clear();
  }

  void check(Point p, int rank, int superstep) {
    sync::LockGuard g(mu_);
    for (const auto& a : armed_) {
      if (a->spec.point != p || a->spec.rank != rank ||
          a->spec.superstep != superstep)
        continue;
      const int hit = a->hits.fetch_add(1, sync::relaxed) + 1;
      // Fire for `shots` consecutive reaches starting at `occurrence`. Hits
      // accumulate across retries within one install, which is exactly what
      // k-times-then-stop means: a replayed superstep reaches the point
      // again, fires again, and after `shots` total firings the retry
      // finally succeeds.
      if (hit >= a->spec.occurrence && hit < a->spec.occurrence + a->spec.shots)
        throw FaultInjected(p, rank, superstep, a->spec.kind);
    }
  }

 private:
  struct Armed {
    explicit Armed(const FaultSpec& s) : spec(s) {}
    FaultSpec spec;
    sync::Atomic<int> hits{0};
  };
  mutable sync::Mutex mu_;
  std::vector<std::unique_ptr<Armed>> armed_ PG_GUARDED_BY(mu_);
};

/// RAII plan installation for tests: arms on construction, clears on exit.
class ScopedPlan {
 public:
  explicit ScopedPlan(const FaultPlan& plan) { Injector::instance().install(plan); }
  ~ScopedPlan() { Injector::instance().clear(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

#endif  // PG_FAULTS_ENABLED

}  // namespace phigraph::fault

#if PG_FAULTS_ENABLED
#define PG_FAULT_POINT(point, rank, superstep)                       \
  ::phigraph::fault::Injector::instance().check(                     \
      ::phigraph::fault::Point::point, (rank), (superstep))
#else
#define PG_FAULT_POINT(point, rank, superstep) ((void)0)
#endif
