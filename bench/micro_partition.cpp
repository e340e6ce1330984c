// Ablation: the blocked min-cut partitioner (the Metis substitute) — cut
// quality and runtime vs block count, and cut/balance of the three
// vertex->rank schemes at two ranks (the mechanics behind Fig. 6).
#include <benchmark/benchmark.h>

#include "src/gen/generators.hpp"
#include "src/partition/partition.hpp"

namespace {

using namespace phigraph;

const graph::Csr& social_graph() {
  static const graph::Csr g = gen::pokec_like(30'000, 500'000, 33);
  return g;
}

void bm_blocked_min_cut(benchmark::State& state) {
  const auto& g = social_graph();
  const int blocks = static_cast<int>(state.range(0));
  partition::BlockedPartition bp;
  for (auto _ : state) {
    bp = partition::blocked_min_cut(g, {.num_blocks = blocks, .seed = 3});
    benchmark::DoNotOptimize(bp.cut_edges);
  }
  state.counters["cut_ratio"] = static_cast<double>(bp.cut_edges) /
                                static_cast<double>(g.num_edges());
}

void bm_scheme_cut(benchmark::State& state) {
  const auto& g = social_graph();
  const partition::RankWeights w{3, 5};
  const auto bp =
      partition::blocked_min_cut(g, {.num_blocks = 256, .seed = 3});
  partition::KwayStats stats;
  for (auto _ : state) {
    std::vector<int> owner;
    switch (state.range(0)) {
      case 0: owner = partition::continuous_partition_k(g, w); break;
      case 1: owner = partition::round_robin_partition_k(g, w); break;
      default: owner = partition::hybrid_partition_k(bp, w); break;
    }
    stats = partition::evaluate_partition_k(g, owner, 2);
    benchmark::DoNotOptimize(stats.cross_edges);
  }
  static const char* names[] = {"continuous", "round-robin", "hybrid"};
  state.SetLabel(names[state.range(0)]);
  state.counters["cross_ratio"] = static_cast<double>(stats.cross_edges) /
                                  static_cast<double>(g.num_edges());
  state.counters["balance_err"] = stats.balance_error(w);
}

}  // namespace

BENCHMARK(bm_blocked_min_cut)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_scheme_cut)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
