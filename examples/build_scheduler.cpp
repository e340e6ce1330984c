// Build scheduling: topological sorting of a dense dependency DAG (the
// paper's §V-B TopoSort workload). The per-vertex `order` value doubles as
// a wave schedule: everything with the same order can build in parallel.
//
//   $ ./build_scheduler [num_targets] [num_dependencies]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/apps/toposort.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"

int main(int argc, char** argv) {
  using namespace phigraph;

  const vid_t n = argc > 1 ? static_cast<vid_t>(std::atoll(argv[1])) : 2'000;
  const eid_t m = argc > 2 ? static_cast<eid_t>(std::atoll(argv[2])) : 100'000;

  std::printf("generating dependency DAG: %u targets, %llu edges\n", n,
              static_cast<unsigned long long>(m));
  const auto g = gen::dag_like(n, m, /*seed=*/99, /*levels=*/24);

  core::EngineConfig cfg;
  cfg.mode = core::ExecMode::kPipelining;  // dense fan-in: pipelining's home turf
  cfg.simd_bytes = simd::kMicSimdBytes;    // 16-wide integer SIMD reduction
  cfg.threads = 2;
  cfg.movers = 2;

  const auto res = core::ClusterEngine(g, apps::TopoSort{}, {cfg}).run();
  const auto& order = res.global_values;

  // Group targets into build waves by topological order.
  std::int32_t max_order = 0;
  for (vid_t v = 0; v < n; ++v) max_order = std::max(max_order, order[v].order);
  std::vector<vid_t> wave_size(static_cast<std::size_t>(max_order) + 1, 0);
  for (vid_t v = 0; v < n; ++v) {
    if (order[v].order < 0) {
      std::printf("cycle detected involving target %u!\n", v);
      return 1;
    }
    ++wave_size[static_cast<std::size_t>(order[v].order)];
  }

  std::printf("schedule: %d waves over %d supersteps\n", max_order + 1,
              res.ranks[0].supersteps);
  vid_t widest = 0;
  for (std::size_t w = 0; w < wave_size.size(); ++w) {
    if (w < 6 || w + 3 > wave_size.size())
      std::printf("  wave %2zu: %u targets buildable in parallel\n", w,
                  wave_size[w]);
    else if (w == 6)
      std::printf("  ...\n");
    widest = std::max(widest, wave_size[w]);
  }
  std::printf("peak parallelism: %u targets; critical path length: %d\n",
              widest, max_order + 1);
  return 0;
}
