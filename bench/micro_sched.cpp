// Ablation: dynamic-scheduler chunk size (paper §IV-D: "a thread can obtain
// multiple tasks each time" to lower the retrieval frequency), the thread
// team's per-phase fork/join cost, and the spinlock primitive underpinning
// the runtime's fine-grained locking.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "src/sched/dynamic_scheduler.hpp"
#include "src/sched/spinlock.hpp"
#include "src/sched/thread_team.hpp"

namespace {

using namespace phigraph;

void bm_chunk_size(benchmark::State& state) {
  constexpr std::size_t kTasks = 1 << 18;
  const auto chunk = static_cast<std::size_t>(state.range(0));
  sched::DynamicScheduler scheduler;
  sched::ThreadTeam team(4);
  for (auto _ : state) {
    scheduler.reset(kTasks, chunk);
    team.run([&](int) {
      std::uint64_t acc = 0;
      while (auto r = scheduler.next_chunk())
        for (std::size_t i = r->begin; i < r->end; ++i) acc += i;
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
  state.counters["retrievals"] =
      static_cast<double>(scheduler.retrievals());
}

// The fork/join cost of one superstep phase: a run() whose job does
// nothing, on a team of range(0) slots.
void bm_team_run_empty(benchmark::State& state) {
  sched::ThreadTeam team(static_cast<int>(state.range(0)));
  for (auto _ : state) team.run([](int) {});
}

void bm_spinlock_uncontended(benchmark::State& state) {
  sched::SpinLock lock;
  std::uint64_t x = 0;
  for (auto _ : state) {
    lock.lock();
    benchmark::DoNotOptimize(++x);
    lock.unlock();
  }
}

void bm_spinlock_contended(benchmark::State& state) {
  static sched::SpinLock lock;
  static std::uint64_t shared = 0;
  for (auto _ : state) {
    lock.lock();
    benchmark::DoNotOptimize(++shared);
    lock.unlock();
  }
}

}  // namespace

BENCHMARK(bm_chunk_size)->Arg(1)->Arg(16)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_team_run_empty)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(bm_spinlock_uncontended);
BENCHMARK(bm_spinlock_contended)->Threads(1)->Threads(4);

BENCHMARK_MAIN();
