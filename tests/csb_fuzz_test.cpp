// CSB fuzz: randomized insert/reset cycles checked against a dense mirror.
//
// The structured csb_test pins the paper's worked example and a handful of
// property cases; this battery instead drives the buffer with hundreds of
// random layouts (lanes, k, column mode, skewed in-degrees with zero-degree
// holes) and random insertion bursts, and after every burst rebuilds the
// full vertex -> message multiset from the raw storage. Any lost, duplicated
// or misrouted message — or a broken redirection/condensation map — shows up
// as a mirror mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/buffer/csb.hpp"
#include "src/common/rng.hpp"

namespace {

using namespace phigraph;
using buffer::ColumnMode;
using buffer::Csb;
using buffer::InsertStats;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kLayouts = 12;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kLayouts = 12;
#else
constexpr int kLayouts = 40;
#endif
#else
constexpr int kLayouts = 40;
#endif

// Random in-degree vector: mostly small degrees, some zero-degree holes and
// a few heavy hitters, so groups condense to very different column counts.
std::vector<vid_t> random_degrees(Rng& rng, vid_t n) {
  std::vector<vid_t> deg(n);
  for (vid_t v = 0; v < n; ++v) {
    const auto roll = rng.below(10);
    if (roll == 0) {
      deg[v] = 0;
    } else if (roll == 1) {
      deg[v] = 20 + static_cast<vid_t>(rng.below(60));  // heavy hitter
    } else {
      deg[v] = 1 + static_cast<vid_t>(rng.below(6));
    }
  }
  return deg;
}

// The order the CSB must lay vertices out in: in-degree descending, ties by
// ascending id — a stable sort of the ids in ascending order.
std::vector<vid_t> stable_degree_order(const std::vector<vid_t>& deg) {
  std::vector<vid_t> ids(deg.size());
  std::iota(ids.begin(), ids.end(), vid_t{0});
  std::stable_sort(ids.begin(), ids.end(),
                   [&](vid_t a, vid_t b) { return deg[a] > deg[b]; });
  return ids;
}

// Message value encoding a unique sequence number: multiset comparison then
// detects loss, duplication and misrouting, not just count drift.
using Mirror = std::vector<std::vector<std::int64_t>>;

// Rebuild the vertex -> messages map from the buffer's raw storage.
Mirror drain(const Csb<std::int64_t>& csb) {
  Mirror out(csb.num_vertices());
  const vid_t width = csb.group_width();
  for (std::size_t g = 0; g < csb.num_groups(); ++g) {
    for (vid_t col = 0; col < width; ++col) {
      const vid_t v = csb.column_vertex(g, col);
      if (v == kInvalidVertex) continue;
      const std::uint32_t rows = csb.column_count(g, col);
      const int a = static_cast<int>(col) / csb.lanes();
      const int lane = static_cast<int>(col) % csb.lanes();
      const std::int64_t* base = csb.array_base(g, a);
      for (std::uint32_t r = 0; r < rows; ++r)
        out[v].push_back(base[static_cast<std::size_t>(r) * csb.lanes() + lane]);
    }
  }
  for (auto& msgs : out) std::sort(msgs.begin(), msgs.end());
  return out;
}

void expect_equal(const Mirror& got, const Mirror& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v)
    ASSERT_EQ(got[v], want[v]) << what << " vertex " << v;
}

TEST(CsbFuzz, RandomInsertsMatchDenseMirrorAcrossResetCycles) {
  Rng rng(0xc5bf);
  for (int layout = 0; layout < kLayouts; ++layout) {
    const vid_t n = 16 + static_cast<vid_t>(rng.below(500));
    const auto deg = random_degrees(rng, n);
    Csb<std::int64_t>::Config cfg;
    cfg.lanes = 1 << rng.below(5);                       // 1..16
    cfg.k = 1 + static_cast<int>(rng.below(3));          // 1..3
    cfg.mode = rng.below(2) ? ColumnMode::kDynamic : ColumnMode::kOneToOne;
    Csb<std::int64_t> csb(deg, cfg);

    // Redirection is a bijection onto the degree-sorted positions.
    std::vector<bool> hit(n, false);
    for (vid_t v = 0; v < n; ++v) {
      const vid_t pos = csb.redirection(v);
      ASSERT_LT(pos, n);
      ASSERT_FALSE(hit[pos]) << "two vertices share position " << pos;
      hit[pos] = true;
      ASSERT_EQ(csb.sorted_vertex(pos), v);
    }
    // ...and positions are sorted by descending degree (the paper's
    // condensation order), so group capacities shrink monotonically.
    for (vid_t p = 1; p < n; ++p)
      ASSERT_GE(deg[csb.sorted_vertex(p - 1)], deg[csb.sorted_vertex(p)]);
    // Exactly the stable sort's order: equal degrees keep ascending ids.
    const auto order = stable_degree_order(deg);
    for (vid_t p = 0; p < n; ++p)
      ASSERT_EQ(csb.sorted_vertex(p), order[p]) << "position " << p;

    std::int64_t seq = 0;
    const int cycles = 1 + static_cast<int>(rng.below(4));
    for (int cycle = 0; cycle < cycles; ++cycle) {
      // Every superstep the engine resets only the dirty groups; mimic that
      // exactly — resetting clean groups too would hide a stale-count bug.
      for (std::size_t i = 0; i < csb.num_dirty_groups(); ++i)
        csb.reset_group(csb.dirty_group(i));
      csb.clear_dirty();

      Mirror want(n);
      InsertStats stats;
      std::uint64_t inserted = 0;
      // Insert up to each destination's declared capacity (in-degree plus
      // the +1 remote-combine headroom the buffer allocates). Degree-0
      // vertices have no storage at all — the engine never sends to them.
      for (vid_t v = 0; v < n; ++v) {
        const std::uint64_t burst =
            deg[v] == 0 ? 0 : rng.below(deg[v] + 2u);
        for (std::uint64_t i = 0; i < burst; ++i) {
          if (rng.below(2)) {
            csb.insert(v, seq, stats);
          } else {
            csb.insert_owned(v, seq, stats);  // single-threaded: always safe
          }
          want[v].push_back(seq++);
          ++inserted;
        }
      }
      ASSERT_EQ(stats.inserted, inserted);

      expect_equal(drain(csb), want, "cycle drain");

      // Dirty groups are exactly the groups of touched destinations.
      std::vector<bool> want_dirty(csb.num_groups(), false);
      for (vid_t v = 0; v < n; ++v)
        if (!want[v].empty())
          want_dirty[csb.redirection(v) / csb.group_width()] = true;
      std::vector<bool> got_dirty(csb.num_groups(), false);
      for (std::size_t i = 0; i < csb.num_dirty_groups(); ++i) {
        ASSERT_FALSE(got_dirty[csb.dirty_group(i)]) << "group listed twice";
        got_dirty[csb.dirty_group(i)] = true;
      }
      ASSERT_EQ(got_dirty, want_dirty);

      // Conservation: occupied column counts sum to the insert count.
      std::uint64_t occupied = 0;
      for (std::size_t g = 0; g < csb.num_groups(); ++g)
        for (vid_t col = 0; col < csb.group_width(); ++col)
          if (csb.column_vertex(g, col) != kInvalidVertex)
            occupied += csb.column_count(g, col);
      ASSERT_EQ(occupied, inserted);
    }

    // A full reset leaves no messages and no dirty groups behind.
    csb.reset_all();
    ASSERT_EQ(csb.num_dirty_groups(), 0u);
    expect_equal(drain(csb), Mirror(n), "post-reset drain");
  }
}

// The sorted order is the stable sort's, position for position, also when
// one hub's in-degree is far above every other vertex's and when the array is
// all zeros: the layout, and so every fold order, depends on it.
TEST(CsbFuzz, SortedOrderEqualsStableSortWithAHub) {
  Rng rng(0x50f7);
  for (int layout = 0; layout < kLayouts; ++layout) {
    const vid_t n = 1 + static_cast<vid_t>(rng.below(600));
    auto deg = layout % 5 == 4 ? std::vector<vid_t>(n, 0)
                               : random_degrees(rng, n);
    if (layout % 5 != 4 && layout % 2 == 1)
      deg[rng.below(n)] = 5000 + static_cast<vid_t>(rng.below(5000));
    Csb<std::int64_t>::Config cfg;
    cfg.lanes = 1 << rng.below(5);
    cfg.k = 1 + static_cast<int>(rng.below(3));
    Csb<std::int64_t> csb(deg, cfg);
    const auto order = stable_degree_order(deg);
    for (vid_t p = 0; p < n; ++p) {
      ASSERT_EQ(csb.sorted_vertex(p), order[p])
          << "layout " << layout << " position " << p;
      ASSERT_EQ(csb.redirection(order[p]), p) << "layout " << layout;
    }
  }
}

// Dynamic column allocation must keep columns packed: within a group the
// first col_offset columns are occupied and everything after is untouched.
TEST(CsbFuzz, DynamicModePacksColumnsLeft) {
  Rng rng(0xdc01);
  for (int layout = 0; layout < kLayouts / 4; ++layout) {
    const vid_t n = 32 + static_cast<vid_t>(rng.below(200));
    const auto deg = random_degrees(rng, n);
    Csb<std::int64_t>::Config cfg;
    cfg.lanes = 4;
    cfg.k = 2;
    cfg.mode = ColumnMode::kDynamic;
    Csb<std::int64_t> csb(deg, cfg);

    InsertStats stats;
    std::int64_t seq = 0;
    for (vid_t v = 0; v < n; ++v)
      if (deg[v] > 0 && rng.below(2)) csb.insert(v, seq++, stats);

    for (std::size_t g = 0; g < csb.num_groups(); ++g) {
      bool gap_seen = false;
      for (vid_t col = 0; col < csb.group_width(); ++col) {
        const bool used = csb.column_vertex(g, col) != kInvalidVertex;
        if (!used) gap_seen = true;
        ASSERT_FALSE(used && gap_seen)
            << "group " << g << " column " << col << " used after a gap";
      }
    }
  }
}

}  // namespace
