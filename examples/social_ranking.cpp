// Social-network influence ranking: PageRank on a Pokec-like social graph,
// executed heterogeneously across the CPU (rank 0) and the (simulated) MIC
// (rank 1) of a two-rank cluster with hybrid graph partitioning — the
// paper's flagship workload end-to-end.
//
//   $ ./social_ranking [num_vertices] [num_edges]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/apps/pagerank.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/partition/partition.hpp"
#include "src/sim/model.hpp"

int main(int argc, char** argv) {
  using namespace phigraph;

  const vid_t n = argc > 1 ? static_cast<vid_t>(std::atoll(argv[1])) : 50'000;
  const eid_t m = argc > 2 ? static_cast<eid_t>(std::atoll(argv[2])) : 800'000;

  std::printf("generating pokec-like social graph: %u users, %llu follows\n",
              n, static_cast<unsigned long long>(m));
  const auto g = gen::pokec_like(n, m, /*seed=*/2024);

  // Partition the workload 3:5 between CPU and MIC using the hybrid scheme
  // (256 min-cut blocks dealt to devices by cumulative edge weight).
  auto owner = partition::hybrid_partition_k(g, {3, 5}, {.num_blocks = 256});
  const auto pstats = partition::evaluate_partition_k(g, owner, 2);
  std::printf("hybrid partition 3:5 -> CPU %llu edges, MIC %llu edges, "
              "%llu cross edges (%.1f%%)\n",
              static_cast<unsigned long long>(pstats.edges[0]),
              static_cast<unsigned long long>(pstats.edges[1]),
              static_cast<unsigned long long>(pstats.cross_edges),
              100.0 * static_cast<double>(pstats.cross_edges) /
                  static_cast<double>(g.num_edges()));

  // CPU runs the locking scheme on SSE lanes; MIC runs worker/mover
  // pipelining on 512-bit lanes (the paper's best per-device schemes).
  core::EngineConfig cpu_cfg;
  cpu_cfg.mode = core::ExecMode::kLocking;
  cpu_cfg.simd_bytes = simd::kCpuSimdBytes;
  cpu_cfg.threads = 2;
  cpu_cfg.max_supersteps = 20;

  core::EngineConfig mic_cfg;
  mic_cfg.mode = core::ExecMode::kPipelining;
  mic_cfg.simd_bytes = simd::kMicSimdBytes;
  mic_cfg.threads = 2;
  mic_cfg.movers = 2;
  mic_cfg.max_supersteps = 20;

  core::ClusterEngine<apps::PageRank> engine(g, std::move(owner),
                                             apps::PageRank{},
                                             {cpu_cfg, mic_cfg});
  auto res = engine.run();

  // Top influencers.
  std::vector<vid_t> order(n);
  for (vid_t v = 0; v < n; ++v) order[v] = v;
  std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                    [&](vid_t a, vid_t b) {
                      return res.global_values[a] > res.global_values[b];
                    });
  std::printf("\ntop 10 users by PageRank after %d supersteps:\n",
              res.ranks[0].supersteps);
  for (int i = 0; i < 10; ++i)
    std::printf("  #%2d user %6u  rank %.3f\n", i + 1, order[i],
                res.global_values[order[i]]);

  // Modeled device times for the paper's hardware.
  sim::ExecProfile cpu_prof{core::ExecMode::kLocking, 16, 0, true, 4};
  cpu_prof.num_vertices = pstats.verts[0];
  sim::ExecProfile mic_prof{core::ExecMode::kPipelining, 180, 60, true, 16};
  mic_prof.num_vertices = pstats.verts[1];
  const auto est = sim::model_cluster(
      {{&res.ranks[0].trace, sim::xeon_e5_2680(), cpu_prof},
       {&res.ranks[1].trace, sim::xeon_phi_se10p(), mic_prof}},
      {});
  std::printf("\nmodeled heterogeneous run on the paper's node: "
              "%.3fs execution + %.3fs PCIe communication\n",
              est.execution_seconds, est.comm_seconds);
  return 0;
}
