// Ablation: Condensed Static Buffer design choices.
//  * insertion cost: locking vs single-owner (mover) path
//  * column mapping: one-to-one vs dynamic allocation (lane efficiency)
//  * k sweep: vector arrays per vertex group (memory/pad trade-off)
//  * memory footprint vs a worst-case (max-degree-uniform) buffer
//  * build cost: degree sort, redirection map and storage allocation
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/buffer/csb.hpp"
#include "src/common/rng.hpp"
#include "src/gen/generators.hpp"

namespace {

using namespace phigraph;
using buffer::ColumnMode;
using buffer::Csb;
using buffer::InsertStats;

struct Workload {
  std::vector<vid_t> in_degrees;
  std::vector<std::pair<vid_t, float>> messages;  // one per in-edge
};

Workload make_workload() {
  const auto g = gen::pokec_like(20'000, 300'000, 21);
  Workload w;
  w.in_degrees = g.in_degrees();
  w.messages.reserve(g.num_edges());
  for (vid_t u = 0; u < g.num_vertices(); ++u)
    for (vid_t v : g.out_neighbors(u))
      w.messages.emplace_back(v, static_cast<float>(u));
  return w;
}

const Workload& workload() {
  static const Workload w = make_workload();
  return w;
}

void bm_insert_locking(benchmark::State& state) {
  const auto& w = workload();
  Csb<float> csb(w.in_degrees,
                 {static_cast<int>(state.range(0)), 2, ColumnMode::kDynamic});
  for (auto _ : state) {
    csb.reset_all();
    InsertStats st;
    for (const auto& [dst, val] : w.messages) csb.insert(dst, val, st);
    benchmark::DoNotOptimize(st.inserted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.messages.size()));
}

void bm_insert_owned(benchmark::State& state) {
  const auto& w = workload();
  Csb<float> csb(w.in_degrees,
                 {static_cast<int>(state.range(0)), 2, ColumnMode::kDynamic});
  for (auto _ : state) {
    csb.reset_all();
    InsertStats st;
    for (const auto& [dst, val] : w.messages) csb.insert_owned(dst, val, st);
    benchmark::DoNotOptimize(st.inserted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.messages.size()));
}

/// Lane efficiency: fraction of processed cells that held real messages.
void bm_lane_efficiency(benchmark::State& state) {
  const auto& w = workload();
  const auto mode = state.range(0) == 0 ? ColumnMode::kOneToOne
                                        : ColumnMode::kDynamic;
  Csb<float> csb(w.in_degrees, {16, 2, mode});
  std::uint64_t cells = 0, padded = 0;
  for (auto _ : state) {
    csb.reset_all();
    InsertStats st;
    // Sparse superstep: every 7th message (BFS-like activity).
    for (std::size_t i = 0; i < w.messages.size(); i += 7)
      csb.insert(w.messages[i].first, w.messages[i].second, st);
    cells = padded = 0;
    for (std::size_t g = 0; g < csb.num_groups(); ++g)
      for (int a = 0; a < csb.k(); ++a) {
        const auto rows = csb.array_rows(g, a);
        if (rows == 0) continue;
        padded += csb.pad_array(g, a, rows, 1e30f);
        cells += static_cast<std::uint64_t>(rows) * 16;
      }
    benchmark::DoNotOptimize(cells);
  }
  state.SetLabel(mode == ColumnMode::kOneToOne ? "one-to-one" : "dynamic");
  state.counters["lane_fill"] =
      cells == 0 ? 0.0
                 : static_cast<double>(cells - padded) /
                       static_cast<double>(cells);
}

/// Condensed footprint vs a max-degree-uniform buffer, over k.
void bm_memory_footprint(benchmark::State& state) {
  const auto& w = workload();
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Csb<float> csb(w.in_degrees, {16, k, ColumnMode::kDynamic});
    benchmark::DoNotOptimize(csb.storage_slots());
  }
  Csb<float> csb(w.in_degrees, {16, k, ColumnMode::kDynamic});
  vid_t max_deg = 0;
  for (vid_t d : w.in_degrees) max_deg = std::max(max_deg, d);
  const double worst = static_cast<double>(max_deg + 1) *
                       static_cast<double>(w.in_degrees.size());
  state.counters["slots"] = static_cast<double>(csb.storage_slots());
  state.counters["vs_worst_case"] =
      static_cast<double>(csb.storage_slots()) / worst;
}

/// One CSB build over the in-degrees of a pokec_like graph of traverse-small's
/// size (100k vertices, 1.8M edges), BFS's message type, 16 lanes, k = 2:
/// what every pushing engine pays at construction. The storage is left
/// uninitialized, so its page faults land on the first superstep's inserts,
/// not here.
void bm_csb_build(benchmark::State& state) {
  static const std::vector<vid_t> in =
      gen::pokec_like(100'000, 1'800'000, 1).in_degrees();
  for (auto _ : state) {
    Csb<std::int32_t> csb(in, {16, 2, ColumnMode::kDynamic});
    benchmark::DoNotOptimize(csb.storage_slots());
  }
  Csb<std::int32_t> csb(in, {16, 2, ColumnMode::kDynamic});
  state.counters["storage_mb"] =
      static_cast<double>(csb.storage_slots() * sizeof(std::int32_t)) / 1e6;
}

}  // namespace

BENCHMARK(bm_insert_locking)->Arg(4)->Arg(16);   // lanes
BENCHMARK(bm_insert_owned)->Arg(4)->Arg(16);
BENCHMARK(bm_lane_efficiency)->Arg(0)->Arg(1);   // one-to-one vs dynamic
BENCHMARK(bm_memory_footprint)->Arg(1)->Arg(2)->Arg(4)->Arg(8);  // k sweep
BENCHMARK(bm_csb_build)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
