// Ablation: direction-optimizing traversal (push vs pull vs auto hybrid).
//
// Runs BFS and SSSP under all three direction modes on a uniform
// (Erdős–Rényi) and a power-law (Pokec-like) graph, reporting per mode the
// measured host wall-clock, the modeled CPU and MIC times, and the direction
// counters (pull supersteps, probed in-edges, early exits). The power-law
// graph is where the hybrid pays off: its dense middle supersteps switch to
// the bitmap pull scan; the uniform graph's shallow plateau barely triggers.
#include <cstdio>
#include <string>

#include "bench/common/harness.hpp"
#include "src/apps/bfs.hpp"
#include "src/apps/sssp.hpp"

namespace {

using namespace phigraph;
using core::DirectionMode;

constexpr DirectionMode kModes[] = {DirectionMode::kForcePush,
                                    DirectionMode::kForcePull,
                                    DirectionMode::kAuto};

template <core::VertexProgram Program>
void direction_sweep(const char* graph_name, const graph::Csr& g,
                     const char* app_name, const Program& prog, int iters,
                     bench::JsonEmitter& json) {
  std::printf("\n-- %s / %s --\n", app_name, graph_name);
  std::printf("   %-6s %12s %12s %12s %6s %14s %12s\n", "dir", "host (s)",
              "cpu model", "mic model", "pulls", "pull edges", "early exit");

  for (DirectionMode mode : kModes) {
    const auto cpu = bench::with_direction(
        bench::cpu_setup(core::ExecMode::kLocking), mode);
    const auto res = bench::run_device(g, prog, cpu, iters);
    const auto mic = bench::with_direction(
        bench::mic_setup(core::ExecMode::kLocking), mode);
    const double mic_model =
        sim::model_run(res.trace, mic.spec, mic.profile).execution();
    const auto t = metrics::totals(res.trace);
    std::printf("   %-6s %12.4f %12.4f %12.4f %6llu %14llu %12llu\n",
                core::direction_mode_name(mode), res.host_seconds,
                res.modeled.execution(), mic_model,
                static_cast<unsigned long long>(t.pull_supersteps),
                static_cast<unsigned long long>(t.pull_edges_scanned),
                static_cast<unsigned long long>(t.pull_early_exits));
    json.add_version(std::string(app_name) + " " + graph_name + " " +
                         core::direction_mode_name(mode),
                     res.modeled.execution(), 0, res.trace, res.phases);
  }
}

}  // namespace

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  std::printf("== Direction-optimizing traversal ablation (scale: %s) ==\n",
              scale.name.c_str());

  auto power_law = bench::make_pokec(scale, /*weighted=*/true);
  auto uniform = gen::erdos_renyi(scale.pokec_n, scale.pokec_m, 0xD12EC);
  gen::add_random_weights(uniform, 0xD12ED);

  bench::JsonEmitter json("micro-direction", "bfs+sssp", power_law, scale);
  {
    const apps::Bfs bfs{power_law.num_vertices() / 16};
    direction_sweep("power-law", power_law, "BFS", bfs, 1000, json);
  }
  {
    const apps::Bfs bfs{uniform.num_vertices() / 16};
    direction_sweep("uniform", uniform, "BFS", bfs, 1000, json);
  }
  {
    const apps::Sssp sssp{power_law.num_vertices() / 16};
    direction_sweep("power-law", power_law, "SSSP", sssp, 1000, json);
  }
  {
    const apps::Sssp sssp{uniform.num_vertices() / 16};
    direction_sweep("uniform", uniform, "SSSP", sssp, 1000, json);
  }
  std::printf("\n");
  return 0;
}
