// Community detection: Semi-Clustering on a DBLP-like co-authorship graph
// (the paper's §V-B SC workload). Shows the scalar CSB path (fat,
// non-reducible message type) and cluster inspection.
//
//   $ ./community_detection [num_vertices] [num_undirected_edges]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/apps/semiclustering.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"

int main(int argc, char** argv) {
  using namespace phigraph;

  const vid_t n = argc > 1 ? static_cast<vid_t>(std::atoll(argv[1])) : 5'000;
  const eid_t m = argc > 2 ? static_cast<eid_t>(std::atoll(argv[2])) : 15'000;

  std::printf("generating DBLP-like co-authorship graph: %u authors, "
              "%llu collaborations\n",
              n, static_cast<unsigned long long>(m));
  const auto g = gen::dblp_like(n, m, /*seed=*/7);

  core::EngineConfig cfg;
  cfg.mode = core::ExecMode::kPipelining;  // the paper's best MIC scheme
  cfg.simd_bytes = simd::kMicSimdBytes;    // SC still uses scalar columns
  cfg.threads = 2;
  cfg.movers = 2;
  cfg.max_supersteps = 6;

  const apps::SemiClustering program(/*f_boundary=*/0.2f);
  const auto res = core::ClusterEngine(g, program, {cfg}).run();
  const auto& lists = res.global_values;

  std::printf("ran %d supersteps; sample semi-clusters:\n",
              res.ranks[0].supersteps);
  int shown = 0;
  for (vid_t v = 0; v < n && shown < 8; ++v) {
    const auto& list = lists[v];
    if (list.count == 0 || list.clusters[0].size < 3) continue;
    const auto& c = list.clusters[0];
    std::printf("  author %5u: cluster {", v);
    for (std::uint32_t i = 0; i < c.size; ++i)
      std::printf("%s%u", i ? ", " : "", c.members[i]);
    std::printf("} score %.3f (internal %.2f, boundary %.2f)\n",
                static_cast<double>(c.score), static_cast<double>(c.inner),
                static_cast<double>(c.boundary()));
    ++shown;
  }

  // Aggregate: how many distinct top clusters of each size emerged.
  std::map<std::uint32_t, int> size_histogram;
  for (vid_t v = 0; v < n; ++v)
    if (lists[v].count > 0) ++size_histogram[lists[v].clusters[0].size];
  std::printf("top-cluster size histogram:\n");
  for (const auto& [size, count] : size_histogram)
    std::printf("  size %u: %d authors\n", size, count);
  return 0;
}
