// Fig. 5(b): BFS on the Pokec-like graph. The paper's outlier: few messages
// per superstep, so locking beats pipelining even on the MIC.
//
// Extra rows (beyond the paper): direction-optimizing traversal. The same
// BFS is run forced-push (the paper's scheme), forced-pull, and auto
// (alpha/beta hybrid) on the CPU Lock config; the table reports modeled
// times and the measured host wall-clock speedup of the hybrid over push.
#include <cstdio>

#include "bench/common/fig5.hpp"
#include "src/apps/bfs.hpp"

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  const auto g = bench::make_pokec(scale, /*weighted=*/false);
  // Source a mid-degree vertex: traversals from a front hub blast most of
  // the graph in one superstep; a tail vertex barely traverses. Use a mean-degree
  // vertex (degrees are front-loaded, so ~n/16).
  const apps::Bfs prog{g.num_vertices() / 16};
  const int iters = 1000;

  auto direction_rows = [&](bench::JsonEmitter& json) {
    using core::DirectionMode;
    auto lock = [&](DirectionMode d) {
      return bench::with_direction(
          bench::cpu_setup(core::ExecMode::kLocking), d);
    };
    // Best-of-3 host wall clock per direction: a scheduler hiccup on a
    // shared CI host must not masquerade as a direction-speedup regression.
    auto best_of = [&](DirectionMode d) {
      auto best = bench::run_device(g, prog, lock(d), iters);
      for (int rep = 1; rep < 3; ++rep) {
        auto r = bench::run_device(g, prog, lock(d), iters);
        if (r.host_seconds < best.host_seconds) best = std::move(r);
      }
      return best;
    };
    const auto push = best_of(DirectionMode::kForcePush);
    const auto pull = best_of(DirectionMode::kForcePull);
    const auto autod = best_of(DirectionMode::kAuto);
    bench::print_row("CPU Lock push", push.modeled.execution());
    bench::print_row("CPU Lock pull", pull.modeled.execution());
    bench::print_row("CPU Lock auto", autod.modeled.execution());
    json.add_version("CPU Lock push", push.modeled.execution(), 0, push.trace,
                     push.phases);
    json.add_version("CPU Lock pull", pull.modeled.execution(), 0, pull.trace,
                     pull.phases);
    json.add_version("CPU Lock auto", autod.modeled.execution(), 0,
                     autod.trace, autod.phases);
    bench::print_ratio("direction hybrid over push (modeled)",
                       push.modeled.execution() / autod.modeled.execution(),
                       "Beamer-style hybrid, not in the paper");
    bench::print_ratio("direction hybrid over push (host wall)",
                       push.host_seconds / autod.host_seconds,
                       "measured on this host");
  };

  bench::fig5_run("Fig 5(b)", "BFS", g, prog,
                  iters,
                  partition::RankWeights{4, 3},
                  /*mic_uses_pipe=*/false,  // paper uses locking for BFS
                  {.mic_pipe_vs_lock = "0.84x (locking 1.19x faster)",
                   .mic_best_vs_omp = "1.54x (Lock vs OMP)",
                   .hetero_vs_best = "1.32x at ratio 4:3"},
                  /*cost=*/{}, direction_rows);
  return 0;
}
