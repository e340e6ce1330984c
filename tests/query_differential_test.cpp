// Serving differential battery: every lane of a batched multi-source run
// must be bit-identical to the same query run sequentially single-source.
//
// The battery drives the bit-parallel programs (apps/multi_source.hpp) and
// the QueryEngine admission layer (core/query_engine.hpp) across the rank
// matrix {1, 2, 4} x {dense, sparse frontier} x {auto, forced-push,
// forced-pull} (forced directions single-rank only — split partitions
// always push) and compares lane-by-lane against the classic sequential
// algorithms: MsBfs levels against classic_bfs, MsSssp distances against
// classic_dijkstra (both min-combines, so exact equality is required), and
// MsBfs seen-bits against connected-component membership on symmetrized
// graphs (on a directed graph the bits mean reachability, not components —
// the DESIGN.md honest limit).
//
// Satellites riding along:
//   * counter conservation: one batched run scans no more edges than the 64
//     sequential runs it replaces, summed;
//   * frontier tail-word regression: batch sizes 1/63/64/65 and vertex
//     counts straddling the 64-bit word boundary, including forced-pull
//     (the bitmap path), must never light lanes or vertices nobody asked
//     for — plus a direct DenseBitset tail-masking round-trip.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/bfs.hpp"
#include "src/apps/connected_components.hpp"
#include "src/apps/multi_source.hpp"
#include "src/apps/reference.hpp"
#include "src/apps/sssp.hpp"
#include "src/common/rng.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/core/query_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/graph/csr.hpp"
#include "src/partition/partition.hpp"
#include "src/simd/bitset.hpp"
#include "watchdog.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PG_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PG_TEST_SANITIZED 1
#endif
#endif
#ifndef PG_TEST_SANITIZED
#define PG_TEST_SANITIZED 0
#endif

namespace {

using namespace phigraph;
using core::EngineConfig;
using core::ExecMode;

constexpr int kRounds = PG_TEST_SANITIZED ? 2 : 3;

// ---------------------------------------------------------------------------
// Graph + batch helpers.
// ---------------------------------------------------------------------------

enum class Family { kUniform, kPowerLaw, kDisconnected };

const char* family_name(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kPowerLaw: return "power-law";
    case Family::kDisconnected: return "disconnected";
  }
  return "?";
}

graph::Csr make_graph(Family f, std::uint64_t seed) {
  Rng rng(seed);
  graph::Csr g;
  switch (f) {
    case Family::kUniform: {
      const vid_t n = 150 + static_cast<vid_t>(rng.below(300));
      g = gen::erdos_renyi(n, n * (2 + rng.below(4)), seed ^ 0x9e3779b9ull);
      break;
    }
    case Family::kPowerLaw: {
      const vid_t n = 200 + static_cast<vid_t>(rng.below(400));
      g = gen::pokec_like(n, n * (3 + rng.below(4)), seed ^ 0xc2b2ae35ull);
      break;
    }
    case Family::kDisconnected: {
      const vid_t island = 80 + static_cast<vid_t>(rng.below(120));
      const vid_t n = 2 * island + 20;
      std::vector<std::pair<vid_t, vid_t>> edges;
      for (std::uint64_t i = 0; i < island * 4ull; ++i) {
        edges.emplace_back(static_cast<vid_t>(rng.below(island)),
                           static_cast<vid_t>(rng.below(island)));
        edges.emplace_back(island + static_cast<vid_t>(rng.below(island)),
                           island + static_cast<vid_t>(rng.below(island)));
      }
      g = graph::Csr::from_edges(n, edges);
      break;
    }
  }
  gen::add_random_weights(g, seed ^ 0x94d049bbull);
  return g;
}

/// Symmetrized variant of a family graph (every edge in both directions), on
/// which reachability-from-source IS connected-component membership.
graph::Csr make_symmetric_graph(Family f, std::uint64_t seed) {
  const graph::Csr d = make_graph(f, seed);
  std::vector<std::pair<vid_t, vid_t>> edges;
  for (vid_t u = 0; u < d.num_vertices(); ++u)
    for (eid_t i = d.offsets()[u]; i < d.offsets()[u + 1]; ++i) {
      edges.emplace_back(u, d.targets()[i]);
      edges.emplace_back(d.targets()[i], u);
    }
  graph::Csr g = graph::Csr::from_edges(d.num_vertices(), edges);
  gen::add_random_weights(g, seed ^ 0x94d049bbull);
  return g;
}

apps::SourceBatch pick_sources(const graph::Csr& g, int count,
                               std::uint64_t seed) {
  Rng rng(seed);
  apps::SourceBatch b;
  b.count = count;
  for (int l = 0; l < count; ++l)
    b.source[static_cast<std::size_t>(l)] =
        static_cast<vid_t>(rng.below(g.num_vertices()));
  return b;
}

EngineConfig base_cfg(double density, core::DirectionMode dir,
                      std::uint64_t salt) {
  EngineConfig e;
  e.mode = salt % 2 == 0 ? ExecMode::kLocking : ExecMode::kPipelining;
  e.sparse_iteration_threshold = density;
  e.direction_mode = dir;
  e.simd_bytes = simd::kCpuSimdBytes;
  e.threads = 2 + static_cast<int>(salt % 3);
  e.movers = 1 + static_cast<int>(salt % 2);
  return e;
}

/// Run a batch program over `nranks` and return the gathered global values.
template <typename Program>
std::vector<typename Program::vertex_value_t> run_batched(
    const graph::Csr& g, const Program& prog, int nranks, double density,
    core::DirectionMode dir, std::uint64_t salt,
    metrics::SuperstepCounters* totals_out = nullptr) {
  std::vector<EngineConfig> cfgs;
  for (int r = 0; r < nranks; ++r)
    cfgs.push_back(base_cfg(density, dir, salt + static_cast<std::uint64_t>(r)));
  auto owner = partition::round_robin_partition_k(
      g, partition::RankWeights(static_cast<std::size_t>(nranks), 1));
  core::ClusterEngine<Program> ce(g, std::move(owner), prog, std::move(cfgs));
  auto res = ce.run();
  EXPECT_TRUE(res.completed);
  if (totals_out != nullptr) {
    *totals_out = metrics::SuperstepCounters{};
    for (const auto& r : res.ranks) *totals_out += metrics::totals(r.trace);
  }
  return std::move(res.global_values);
}

struct ServeCell {
  int nranks;
  double density;
  core::DirectionMode dir;
};

std::vector<ServeCell> serve_matrix() {
  std::vector<ServeCell> cells;
  for (int nranks : {1, 2, 4})
    for (double density : {0.0, 1.0})
      for (core::DirectionMode dir :
           {core::DirectionMode::kAuto, core::DirectionMode::kForcePush,
            core::DirectionMode::kForcePull}) {
        // Split partitions always push; forced directions only distinguish
        // single-rank cells (same convention as the engine battery).
        if (nranks > 1 && dir != core::DirectionMode::kAuto) continue;
        cells.push_back({nranks, density, dir});
      }
  return cells;
}

std::string cell_name(const ServeCell& c) {
  return "ranks=" + std::to_string(c.nranks) +
         (c.density == 0.0 ? "/dense" : "/sparse") + "/" +
         core::direction_mode_name(c.dir);
}

// ---------------------------------------------------------------------------
// Lane-exactness: batched BFS and SSSP across the rank/direction matrix.
// ---------------------------------------------------------------------------

TEST(QueryDifferential, BatchedBfsSsspLaneExactAcrossMatrix) {
  phigraph::testing::Watchdog wd(
      std::chrono::seconds(PG_TEST_SANITIZED ? 900 : 300));
  constexpr Family kFams[] = {Family::kUniform, Family::kPowerLaw,
                              Family::kDisconnected};
  for (int round = 0; round < kRounds; ++round) {
    const Family fam = kFams[round % std::size(kFams)];
    const auto seed = static_cast<std::uint64_t>(0x51e0 + 0x101 * round);
    const auto g = make_graph(fam, seed);
    const auto batch =
        pick_sources(g, apps::kMaxQueryLanes, seed ^ 0x2545f491ull);

    std::vector<std::vector<std::int32_t>> bfs_ref;
    std::vector<std::vector<float>> sssp_ref;
    for (int l = 0; l < batch.count; ++l) {
      const vid_t src = batch.source[static_cast<std::size_t>(l)];
      bfs_ref.push_back(apps::classic_bfs(g, src));
      sssp_ref.push_back(apps::classic_dijkstra(g, src));
    }

    for (const ServeCell& c : serve_matrix()) {
      const std::uint64_t salt = seed + static_cast<std::uint64_t>(c.nranks);
      const std::string what = std::string(family_name(fam)) + " round " +
                               std::to_string(round) + " " + cell_name(c);

      const auto bfs = run_batched(g, apps::MsBfs(batch), c.nranks, c.density,
                                   c.dir, salt);
      ASSERT_EQ(bfs.size(), g.num_vertices()) << what;
      for (int l = 0; l < batch.count; ++l)
        for (vid_t v = 0; v < g.num_vertices(); ++v)
          ASSERT_EQ(bfs[v].level[static_cast<std::size_t>(l)],
                    bfs_ref[static_cast<std::size_t>(l)][v])
              << what << " bfs lane " << l << " vertex " << v;

      const auto sssp = run_batched(g, apps::MsSssp(batch), c.nranks,
                                    c.density, c.dir, salt + 7);
      for (int l = 0; l < batch.count; ++l)
        for (vid_t v = 0; v < g.num_vertices(); ++v) {
          const float ref = sssp_ref[static_cast<std::size_t>(l)][v];
          const float got = sssp[v].v[static_cast<std::size_t>(l)];
          // classic_dijkstra reports unreached as +inf-like FLT_MAX too;
          // min-combine over identical float expressions must be bit-exact.
          ASSERT_EQ(got, ref) << what << " sssp lane " << l << " vertex " << v;
        }
    }
  }
}

// Seen-bits on a symmetrized graph are component membership: lane l's bit at
// v is set iff v shares a connected component with source l.
TEST(QueryDifferential, SeenBitsMatchComponentMembershipOnSymmetricGraphs) {
  phigraph::testing::Watchdog wd(
      std::chrono::seconds(PG_TEST_SANITIZED ? 600 : 200));
  for (Family fam : {Family::kPowerLaw, Family::kDisconnected}) {
    const auto seed = static_cast<std::uint64_t>(
        0xc0de + (fam == Family::kPowerLaw ? 0 : 0x101));
    const auto g = make_symmetric_graph(fam, seed);
    const auto labels = apps::reference_run(g, apps::ConnectedComponents());
    const auto batch =
        pick_sources(g, apps::kMaxQueryLanes, seed ^ 0x2545f491ull);
    const auto values =
        run_batched(g, apps::MsBfs(batch), 1, 0.0,
                    core::DirectionMode::kAuto, seed);
    for (int l = 0; l < batch.count; ++l) {
      const vid_t src = batch.source[static_cast<std::size_t>(l)];
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        const bool member = ((values[v].seen >> l) & 1u) != 0;
        ASSERT_EQ(member, labels[v] == labels[src])
            << family_name(fam) << " lane " << l << " src " << src
            << " vertex " << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Conservation satellite: the shared scan must not exceed the sum of the
// sequential scans it replaces.
// ---------------------------------------------------------------------------

// Push pinned on both sides: sharing guarantees batched <= sequential only
// in push direction (an active vertex is rescanned once per distinct arrival
// level, never once per reaching query). Pull candidacy lasts until ALL
// lanes resolve, so a 64-lane pull can legitimately scan more in-edges than
// 64 short sequential runs — that axis belongs to the direction bench.
TEST(QueryDifferential, BatchedEdgeScansConservedAgainstSequential) {
  phigraph::testing::Watchdog wd(
      std::chrono::seconds(PG_TEST_SANITIZED ? 600 : 200));
  const auto g = make_graph(Family::kPowerLaw, 0xba7c);
  const auto batch = pick_sources(g, apps::kMaxQueryLanes, 0x5eed);

  std::uint64_t sequential = 0;
  for (int l = 0; l < batch.count; ++l) {
    const auto res =
        core::ClusterEngine(
            g, apps::Bfs(batch.source[static_cast<std::size_t>(l)]),
            {base_cfg(0.0, core::DirectionMode::kForcePush, 3)})
            .run();
    const auto t = metrics::totals(res.ranks[0].trace);
    sequential += t.edges_scanned + t.pull_edges_scanned;
  }

  metrics::SuperstepCounters batched;
  run_batched(g, apps::MsBfs(batch), 1, 0.0, core::DirectionMode::kForcePush,
              3, &batched);
  const std::uint64_t shared =
      batched.edges_scanned + batched.pull_edges_scanned;
  EXPECT_GT(shared, 0u);
  EXPECT_LE(shared, sequential)
      << "one shared 64-lane scan must not exceed 64 sequential scans";
}

// ---------------------------------------------------------------------------
// Tail-word regression satellite: batch sizes and vertex counts straddling
// the 64-bit word boundary.
// ---------------------------------------------------------------------------

TEST(QueryTail, ShortBatchesKeepTailLanesDead) {
  phigraph::testing::Watchdog wd(
      std::chrono::seconds(PG_TEST_SANITIZED ? 600 : 200));
  const auto g = make_graph(Family::kUniform, 0x7a17);
  for (int count : {1, 63, 64}) {
    const auto batch = pick_sources(g, count, 0x7a17u + count);
    std::vector<std::vector<std::int32_t>> refs;
    for (int l = 0; l < count; ++l)
      refs.push_back(
          apps::classic_bfs(g, batch.source[static_cast<std::size_t>(l)]));
    for (core::DirectionMode dir :
         {core::DirectionMode::kForcePush, core::DirectionMode::kForcePull}) {
      const auto values = run_batched(g, apps::MsBfs(batch), 1, 0.0, dir,
                                      static_cast<std::uint64_t>(count));
      const std::uint64_t mask = apps::lane_mask(count);
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(values[v].seen & ~mask, 0u)
            << "batch of " << count << " lit an unused lane at vertex " << v;
        for (int l = 0; l < count; ++l)
          ASSERT_EQ(values[v].level[static_cast<std::size_t>(l)],
                    refs[static_cast<std::size_t>(l)][v])
              << "batch " << count << " lane " << l << " vertex " << v;
        for (int l = count; l < apps::kMaxQueryLanes; ++l)
          ASSERT_EQ(values[v].level[static_cast<std::size_t>(l)], -1)
              << "unused lane " << l << " got a level at vertex " << v;
      }
    }
  }
}

// |V| straddling the word boundary under forced pull: the frontier bitmap's
// last word is partially used and its tail bits must stay dead (the audit
// build aborts if not; this regression holds in every build).
TEST(QueryTail, VertexCountsStraddlingWordBoundaryUnderPull) {
  phigraph::testing::Watchdog wd(std::chrono::seconds(120));
  for (vid_t n : {vid_t{63}, vid_t{64}, vid_t{65}}) {
    // A path 0 -> 1 -> ... -> n-1 reaches every vertex, so every level is
    // determined and the last word's live bits all matter.
    std::vector<std::pair<vid_t, vid_t>> edges;
    for (vid_t v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
    auto g = graph::Csr::from_edges(n, edges);
    gen::add_random_weights(g, 0x600d ^ n);
    apps::SourceBatch batch;
    batch.count = 1;
    batch.source[0] = 0;
    for (core::DirectionMode dir :
         {core::DirectionMode::kForcePush, core::DirectionMode::kForcePull}) {
      const auto values = run_batched(g, apps::MsBfs(batch), 1, 0.0, dir,
                                      static_cast<std::uint64_t>(n));
      for (vid_t v = 0; v < n; ++v)
        ASSERT_EQ(values[v].level[0], static_cast<std::int32_t>(v))
            << "|V|=" << n << " dir=" << core::direction_mode_name(dir)
            << " vertex " << v;
    }
  }
}

TEST(QueryTail, DenseBitsetMasksTailOnAssign) {
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                        std::size_t{65}, std::size_t{130}}) {
    simd::DenseBitset bs(n);
    // An all-ones byte map is the worst case: every representable bit of the
    // last word wants to be set; the bits past n must still come out dead.
    std::vector<std::uint8_t> bytes(n, 1);
    bs.assign_bytes(bytes.data(), n);
    EXPECT_EQ(bs.tail_bits(), 0u) << "n=" << n;
    EXPECT_EQ(bs.count(), n) << "n=" << n;
    std::vector<std::uint8_t> out(n, 0);
    bs.to_bytes(out.data(), n);
    EXPECT_EQ(out, bytes) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// QueryEngine end-to-end: the admission layer must deliver the same answers
// the programs do, across batch splits (65 jobs > one 64-lane batch) and
// mixed kinds, and its serving statistics must add up.
// ---------------------------------------------------------------------------

TEST(QueryEngineServing, SixtyFiveJobsSplitAcrossBatchesStayExact) {
  phigraph::testing::Watchdog wd(
      std::chrono::seconds(PG_TEST_SANITIZED ? 600 : 200));
  const auto g = make_graph(Family::kPowerLaw, 0xace5);
  EngineConfig cfg = base_cfg(0.0, core::DirectionMode::kAuto, 5);
  cfg.serve_batch_max = 64;
  cfg.serve_batch_wait_ms = 20;  // let the queue fill: first batch takes 64
  core::QueryEngine qe(g, cfg);

  Rng rng(0x65);
  std::vector<vid_t> sources;
  std::vector<std::shared_ptr<core::QueryTicket>> tickets;
  for (int i = 0; i < 65; ++i) {
    const auto src = static_cast<vid_t>(rng.below(g.num_vertices()));
    sources.push_back(src);
    tickets.push_back(qe.submit({core::QueryKind::kBfs, src}));
    ASSERT_NE(tickets.back(), nullptr);
  }
  for (int i = 0; i < 65; ++i) {
    const auto& r = tickets[static_cast<std::size_t>(i)]->get();
    EXPECT_EQ(r.kind, core::QueryKind::kBfs);
    EXPECT_EQ(r.source, sources[static_cast<std::size_t>(i)]);
    EXPECT_LE(r.batch_lanes, 64);
    const auto ref = apps::classic_bfs(g, r.source);
    ASSERT_EQ(r.level.size(), ref.size());
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(r.level[v], ref[v]) << "job " << i << " vertex " << v;
  }
  qe.shutdown();
  const auto s = qe.stats();
  EXPECT_EQ(s.jobs, 65u);
  EXPECT_EQ(s.lanes, 65u);
  EXPECT_GE(s.batches, 2u) << "65 jobs cannot fit one 64-lane batch";
  EXPECT_GT(s.edges_scanned, 0u);
  EXPECT_EQ(s.latency_us.count, 65u);
  EXPECT_GE(s.max_queue_depth, 1u);
}

TEST(QueryEngineServing, MixedKindsGroupByKindAndAnswerCorrectly) {
  phigraph::testing::Watchdog wd(
      std::chrono::seconds(PG_TEST_SANITIZED ? 600 : 200));
  const auto g = make_symmetric_graph(Family::kDisconnected, 0x3355);
  const auto labels = apps::reference_run(g, apps::ConnectedComponents());
  EngineConfig cfg = base_cfg(0.0, core::DirectionMode::kAuto, 9);
  cfg.serve_batch_max = 8;
  cfg.serve_batch_wait_ms = 5;
  core::QueryEngine qe(g, cfg);

  Rng rng(0x3355);
  struct Submitted {
    core::QueryJob job;
    std::shared_ptr<core::QueryTicket> ticket;
  };
  std::vector<Submitted> subs;
  for (int i = 0; i < 24; ++i) {
    const auto src = static_cast<vid_t>(rng.below(g.num_vertices()));
    const core::QueryKind kind =
        i % 3 == 0 ? core::QueryKind::kBfs
                   : (i % 3 == 1 ? core::QueryKind::kSssp
                                 : core::QueryKind::kComponent);
    subs.push_back({{kind, src}, nullptr});
    subs.back().ticket = qe.submit(subs.back().job);
    ASSERT_NE(subs.back().ticket, nullptr);
  }
  for (const auto& s : subs) {
    const auto& r = s.ticket->get();
    EXPECT_EQ(r.kind, s.job.kind);
    EXPECT_EQ(r.source, s.job.source);
    switch (s.job.kind) {
      case core::QueryKind::kBfs: {
        const auto ref = apps::classic_bfs(g, s.job.source);
        for (vid_t v = 0; v < g.num_vertices(); ++v)
          ASSERT_EQ(r.level[v], ref[v]);
        break;
      }
      case core::QueryKind::kSssp: {
        const auto ref = apps::classic_dijkstra(g, s.job.source);
        for (vid_t v = 0; v < g.num_vertices(); ++v)
          ASSERT_EQ(r.dist[v], ref[v]);
        break;
      }
      case core::QueryKind::kComponent: {
        for (vid_t v = 0; v < g.num_vertices(); ++v)
          ASSERT_EQ(r.member[v] != 0, labels[v] == labels[s.job.source]);
        break;
      }
      case core::QueryKind::kPpr: break;
    }
  }
}

// PPR answers are fold-order-dependent floats, so the contract is weaker:
// two jobs with the same personalization source in one batch are
// bit-identical, every rank is finite and non-negative, and the
// personalization source of a lane with edges holds positive mass.
TEST(QueryEngineServing, PprLanesDeterministicWithinABatch) {
  phigraph::testing::Watchdog wd(
      std::chrono::seconds(PG_TEST_SANITIZED ? 600 : 200));
  const auto g = make_graph(Family::kPowerLaw, 0x99a1);
  EngineConfig cfg = base_cfg(0.0, core::DirectionMode::kAuto, 2);
  cfg.serve_batch_max = 8;
  cfg.serve_batch_wait_ms = 20;
  core::QueryEngine qe(g, cfg);

  const vid_t src = 1;
  auto a = qe.submit({core::QueryKind::kPpr, src});
  auto b = qe.submit({core::QueryKind::kPpr, src});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const auto& ra = a->get();
  const auto& rb = b->get();
  ASSERT_EQ(ra.batch_lanes, rb.batch_lanes)
      << "both jobs must ride the same batch for lane determinism";
  ASSERT_EQ(ra.rank.size(), g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(ra.rank[v], rb.rank[v]) << "duplicate-source lanes diverged";
    ASSERT_GE(ra.rank[v], 0.0f);
  }
  EXPECT_GT(ra.rank[src], 0.0f);
}

TEST(QueryEngineServing, MultiRankServingMatchesSequential) {
  phigraph::testing::Watchdog wd(
      std::chrono::seconds(PG_TEST_SANITIZED ? 600 : 200));
  const auto g = make_graph(Family::kUniform, 0x2bad);
  std::vector<EngineConfig> cfgs;
  for (int r = 0; r < 2; ++r)
    cfgs.push_back(base_cfg(0.0, core::DirectionMode::kAuto, 11 + r));
  cfgs.front().serve_batch_max = 16;
  cfgs.front().serve_batch_wait_ms = 10;
  core::QueryEngine qe(g, cfgs);
  EXPECT_EQ(qe.num_ranks(), 2);

  Rng rng(0x2bad);
  std::vector<std::pair<vid_t, std::shared_ptr<core::QueryTicket>>> subs;
  for (int i = 0; i < 16; ++i) {
    const auto src = static_cast<vid_t>(rng.below(g.num_vertices()));
    subs.emplace_back(src, qe.submit({core::QueryKind::kBfs, src}));
    ASSERT_NE(subs.back().second, nullptr);
  }
  for (const auto& [src, ticket] : subs) {
    const auto& r = ticket->get();
    const auto ref = apps::classic_bfs(g, src);
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(r.level[v], ref[v]) << "src " << src << " vertex " << v;
  }
}

}  // namespace
