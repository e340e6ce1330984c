// Shared driver for the Fig. 5(a)–(e) benches: one application, seven
// versions (CPU/MIC x OMP/Lock/Pipe + CPU-MIC), modeled execution and
// communication time, plus the headline ratios the paper reports.
#pragma once

#include <algorithm>
#include <string>
#include <type_traits>

#include "bench/common/harness.hpp"

namespace phigraph::bench {

struct Fig5Bands {
  std::string mic_pipe_vs_lock;   // paper's MIC Pipe / MIC Lock speedup
  std::string mic_best_vs_omp;    // best framework MIC version / MIC OMP
  std::string hetero_vs_best;     // CPU-MIC / best single-device framework run
};

/// `extra` (optional) is invoked with the JsonEmitter after the seven
/// standard versions are recorded and before the figure closes — figure
/// benches use it to append figure-specific versions (e.g. Fig 5(b)'s
/// traversal-direction rows) into the same table and JSON file.
template <core::VertexProgram Program, typename Extra = std::nullptr_t>
void fig5_run(const std::string& figure, const std::string& app,
              const graph::Csr& g, const Program& prog, int iters,
              const partition::RankWeights& hetero_weights, bool mic_uses_pipe,
              const Fig5Bands& bands, const AppCost& cost = {},
              Extra&& extra = nullptr) {
  const auto scale = get_scale();
  print_header(figure + ": " + app, g, scale);
  JsonEmitter json(figure, app, g, scale);
  trace_run_begin();

  using Mode = core::ExecMode;
  constexpr auto dir = paper_direction<Program>();
  auto cpu = [&](Mode m) {
    return with_direction(with_cost(cpu_setup(m), cost), dir);
  };
  auto mic = [&](Mode m) {
    return with_direction(with_cost(mic_setup(m), cost), dir);
  };
  const auto cpu_omp = run_device(g, prog, cpu(Mode::kOmpStyle), iters);
  const auto cpu_lock = run_device(g, prog, cpu(Mode::kLocking), iters);
  const auto cpu_pipe = run_device(g, prog, cpu(Mode::kPipelining), iters);
  const auto mic_omp = run_device(g, prog, mic(Mode::kOmpStyle), iters);
  const auto mic_lock = run_device(g, prog, mic(Mode::kLocking), iters);
  const auto mic_pipe = run_device(g, prog, mic(Mode::kPipelining), iters);

  // Heterogeneous: a two-rank cluster (CPU = rank 0), hybrid partitioning
  // at the per-app best ratio; CPU runs locking (faster there), MIC runs
  // pipelining except for BFS (paper §V-C).
  const auto hetero = run_cluster(
      g, prog,
      partition::hybrid_partition_k(g, hetero_weights,
                                    {.num_blocks = 256, .seed = 42}),
      {cpu(Mode::kLocking),
       mic(mic_uses_pipe ? Mode::kPipelining : Mode::kLocking)},
      iters);

  print_row("CPU OMP", cpu_omp.modeled.execution());
  print_row("CPU Lock", cpu_lock.modeled.execution());
  print_row("CPU Pipe", cpu_pipe.modeled.execution());
  print_row("MIC OMP", mic_omp.modeled.execution());
  print_row("MIC Lock", mic_lock.modeled.execution());
  print_row("MIC Pipe", mic_pipe.modeled.execution());
  print_row("CPU-MIC", hetero.modeled.execution_seconds,
            hetero.modeled.comm_seconds);

  json.add_version("CPU OMP", cpu_omp.modeled.execution(), 0, cpu_omp.trace,
                   cpu_omp.phases);
  json.add_version("CPU Lock", cpu_lock.modeled.execution(), 0, cpu_lock.trace,
                   cpu_lock.phases);
  json.add_version("CPU Pipe", cpu_pipe.modeled.execution(), 0, cpu_pipe.trace,
                   cpu_pipe.phases);
  json.add_version("MIC OMP", mic_omp.modeled.execution(), 0, mic_omp.trace,
                   mic_omp.phases);
  json.add_version("MIC Lock", mic_lock.modeled.execution(), 0, mic_lock.trace,
                   mic_lock.phases);
  json.add_version("MIC Pipe", mic_pipe.modeled.execution(), 0, mic_pipe.trace,
                   mic_pipe.phases);
  json.add_version("CPU-MIC (cpu rank)", hetero.modeled.execution_seconds,
                   hetero.modeled.comm_seconds, hetero.ranks[0].trace,
                   hetero.ranks[0].phases);
  json.add_version("CPU-MIC (mic rank)", hetero.modeled.execution_seconds,
                   hetero.modeled.comm_seconds, hetero.ranks[1].trace,
                   hetero.ranks[1].phases);
  json.set_failover(hetero.failover);

  const double best_single =
      std::min({cpu_lock.modeled.execution(), cpu_pipe.modeled.execution(),
                mic_lock.modeled.execution(), mic_pipe.modeled.execution()});
  const double mic_best_fw =
      std::min(mic_lock.modeled.execution(), mic_pipe.modeled.execution());

  print_ratio("MIC Pipe speedup over MIC Lock",
              mic_lock.modeled.execution() / mic_pipe.modeled.execution(),
              bands.mic_pipe_vs_lock);
  print_ratio("MIC framework speedup over MIC OMP",
              mic_omp.modeled.execution() / mic_best_fw, bands.mic_best_vs_omp);
  print_ratio("CPU OMP vs CPU Lock",
              cpu_omp.modeled.execution() / cpu_lock.modeled.execution(),
              "~1.0 (OMP wins by ~2.5% on average)");
  print_ratio("CPU-MIC speedup over best single device",
              best_single / hetero.modeled.total(), bands.hetero_vs_best);
  if constexpr (!std::is_same_v<std::decay_t<Extra>, std::nullptr_t>)
    extra(json);
  print_footer();
  trace_run_end(figure);
}

}  // namespace phigraph::bench
