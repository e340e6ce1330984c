// Fig. 5(f): effect of SIMD processing (vectorization) on execution times.
//
// The three SIMD-reducible applications (PageRank, SSSP, TopoSort) are run
// with the message-processing sub-step vectorized and re-run "in a scalar
// way" (the paper's novec rewrite), for both device profiles. Reported:
// per-sub-step speedup (paper: 2.24/2.35/2.22 on CPU, 6.98/5.16/7.85 on
// MIC) and the whole-execution improvement (9/13/8% CPU, 18/23/21% MIC).
#include <cstdio>

#include "bench/common/harness.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"

namespace {

using namespace phigraph;

struct Row {
  const char* device;
  double novec_proc, vec_proc;
  double novec_exec, vec_exec;
};

template <core::VertexProgram Program>
void run_app(const char* app, const graph::Csr& g, const Program& prog,
             int iters, const char* cpu_band, const char* mic_band) {
  std::printf("\n-- %s --\n", app);
  std::printf("   %-6s %14s %14s %12s %12s\n", "device", "proc novec(s)",
              "proc vec(s)", "proc spdup", "exec gain");
  Row rows[2];
  int i = 0;
  for (bool is_mic : {false, true}) {
    auto mk = [&](bool simd) {
      return bench::with_direction(
          is_mic ? bench::mic_setup(core::ExecMode::kLocking, simd)
                 : bench::cpu_setup(core::ExecMode::kLocking, simd),
          bench::paper_direction<Program>());
    };
    const auto vec = bench::run_device(g, prog, mk(true), iters);
    const auto novec = bench::run_device(g, prog, mk(false), iters);
    rows[i] = {is_mic ? "MIC" : "CPU", novec.modeled.processing,
               vec.modeled.processing, novec.modeled.execution(),
               vec.modeled.execution()};
    const auto& r = rows[i];
    std::printf("   %-6s %14.5f %14.5f %11.2fx %11.1f%%\n", r.device,
                r.novec_proc, r.vec_proc, r.novec_proc / r.vec_proc,
                (1.0 - r.vec_exec / r.novec_exec) * 100.0);
    ++i;
  }
  std::printf("   paper: CPU %s, MIC %s\n", cpu_band, mic_band);
}

}  // namespace

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  std::printf("== Fig 5(f): Effect of SIMD Processing on Execution Times ==\n");
  std::printf("   (locking scheme, best thread configs, scale: %s)\n",
              scale.name.c_str());

  {
    const auto g = bench::make_pokec(scale, false);
    run_app("PageRank", g, apps::PageRank{}, scale.pagerank_iters,
            "2.24x proc / 9% overall", "6.98x proc / 18% overall");
  }
  {
    const auto g = bench::make_pokec(scale, true);
    run_app("SSSP", g, apps::Sssp{g.num_vertices() / 16}, 1000,
            "2.35x proc / 13% overall", "5.16x proc / 23% overall");
  }
  {
    const auto g = bench::make_dag(scale);
    run_app("TopoSort", g, apps::TopoSort{}, 10000,
            "2.22x proc / 8% overall", "7.85x proc / 21% overall");
  }
  std::printf("\n");
  return 0;
}
