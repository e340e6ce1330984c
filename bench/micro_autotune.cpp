// Ablation: auto-tuning (the paper's §VII future work, implemented).
// Sweeps the MIC worker/mover split and the CPU:MIC partitioning ratio for
// each reducible application, printing the modeled cost curve and the
// tuner's pick — compare against the paper's hand-tuned 180+60 and per-app
// ratios (3:5 PageRank, 1:1 SSSP, 1:4 TopoSort).
#include <cstdio>

#include "bench/common/harness.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"
#include "src/tune/autotune.hpp"

namespace {

using namespace phigraph;

template <core::VertexProgram Program>
void tune_app(const char* name, const graph::Csr& g, const Program& prog,
              int iters, const char* paper_ratio) {
  std::printf("\n-- %s --\n", name);

  // Probe run for the mover-split tuner (on the CSB push path for PageRank:
  // the movers are what is being tuned).
  constexpr auto dir = bench::paper_direction<Program>();
  auto setup =
      bench::with_direction(bench::mic_setup(core::ExecMode::kPipelining), dir);
  setup.engine.max_supersteps = iters;
  setup.profile.msg_bytes = sizeof(typename Program::message_t);
  setup.profile.value_bytes = sizeof(typename Program::vertex_value_t);
  setup.profile.num_vertices = g.num_vertices();
  core::DeviceEngine<Program> probe(core::LocalGraph::whole(g), prog,
                                    setup.engine);
  const auto run = probe.run();
  PG_CHECK_MSG(!run.failed, "autotune probe run failed");

  std::printf("   mover-split cost curve (240 MIC threads):\n");
  for (int movers : {20, 40, 60, 80, 120}) {
    auto p = setup.profile;
    p.threads = 240 - movers;
    p.movers = movers;
    std::printf("     %3d workers + %3d movers: %.4fs\n", p.threads, movers,
                sim::model_run(run.trace, setup.spec, p).execution());
  }
  const auto split = tune::tune_mover_split(run.trace, setup.spec,
                                            setup.profile, 240, /*step=*/5);
  std::printf("   -> tuner picks %d + %d (paper hand-tuned: 180 + 60)\n",
              split.workers, split.movers);

  // Ratio tuner.
  const auto cpu_lock =
      bench::with_direction(bench::cpu_setup(core::ExecMode::kLocking), dir);
  tune::TuneDevice cpu{cpu_lock.engine, cpu_lock.profile,
                       sim::xeon_e5_2680()};
  tune::TuneDevice mic{setup.engine, setup.profile, setup.spec};
  cpu.engine.max_supersteps = mic.engine.max_supersteps = iters;
  const auto bp = partition::blocked_min_cut(g, {.num_blocks = 64, .seed = 5});
  const std::vector<partition::RankWeights> candidates = {
      {1, 4}, {1, 2}, {3, 5}, {1, 1}, {4, 3}, {2, 1}, {4, 1}};
  const auto ratio =
      tune::tune_partition_ratio(g, prog, bp, candidates, {cpu, mic});
  std::printf("   -> tuner picks ratio %d:%d at %.4fs (paper hand-tuned: %s)\n",
              ratio.weights[0], ratio.weights[1], ratio.modeled_seconds,
              paper_ratio);
}

}  // namespace

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  std::printf("== Auto-tuning ablation (paper SVII future work; scale: %s) ==\n",
              scale.name.c_str());
  {
    const auto g = bench::make_pokec(scale, false);
    tune_app("PageRank", g, apps::PageRank{}, 8, "3:5");
  }
  {
    const auto g = bench::make_pokec(scale, true);
    tune_app("SSSP", g, apps::Sssp{g.num_vertices() / 16}, 1000, "1:1");
  }
  {
    const auto g = bench::make_dag(scale);
    tune_app("TopoSort", g, apps::TopoSort{}, 10000, "1:4");
  }
  std::printf("\n");
  return 0;
}
