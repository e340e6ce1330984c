// Condensed Static Buffer tests, including the paper's Fig. 1 / Fig. 3 /
// Table I worked example.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/buffer/csb.hpp"
#include "src/common/rng.hpp"
#include "src/graph/paper_example.hpp"

namespace {

using namespace phigraph;
using buffer::ColumnMode;
using buffer::Csb;
using buffer::InsertStats;

Csb<float>::Config cfg(int lanes, int k, ColumnMode mode) {
  Csb<float>::Config c;
  c.lanes = lanes;
  c.k = k;
  c.mode = mode;
  return c;
}

// ---------------------------------------------------------------------------
// The paper's worked example: 16-vertex graph, w/msg_size = 4, k = 2.
// ---------------------------------------------------------------------------

class PaperExampleCsb : public ::testing::Test {
 protected:
  PaperExampleCsb()
      : g_(graph::paper_example_graph()),
        in_deg_(g_.in_degrees()),
        csb_(in_deg_, cfg(4, 2, ColumnMode::kDynamic)) {}

  graph::Csr g_;
  std::vector<vid_t> in_deg_;
  Csb<float> csb_;
};

TEST_F(PaperExampleCsb, InDegreesMatchFigure1) {
  const std::vector<vid_t> expected = {2, 0, 4, 1, 2, 5, 2, 2,
                                       3, 3, 1, 1, 1, 1, 0, 0};
  EXPECT_EQ(in_deg_, expected);
}

TEST_F(PaperExampleCsb, SortedOrderMatchesFigure3) {
  // Fig. 3: sorted vertex IDs 5 2 8 9 0 4 6 7 | 3 10 11 12 13 1 14 15
  const std::vector<vid_t> expected = {5, 2, 8,  9,  0,  4, 6,  7,
                                       3, 10, 11, 12, 13, 1, 14, 15};
  for (vid_t pos = 0; pos < 16; ++pos)
    EXPECT_EQ(csb_.sorted_vertex(pos), expected[pos]) << "pos " << pos;
  // Redirection is the inverse map (Fig. 3 shows redirection[2] = 1, etc.).
  EXPECT_EQ(csb_.redirection(2), 1u);
  EXPECT_EQ(csb_.redirection(0), 4u);
  EXPECT_EQ(csb_.redirection(13), 12u);
  for (vid_t v = 0; v < 16; ++v)
    EXPECT_EQ(csb_.sorted_vertex(csb_.redirection(v)), v);
}

TEST_F(PaperExampleCsb, GroupGeometryMatchesFigure3) {
  // Two vertex groups of 8 = 2 x 4 vertices; max in-degrees 5 and 1.
  EXPECT_EQ(csb_.group_width(), 8u);
  EXPECT_EQ(csb_.num_groups(), 2u);
  EXPECT_EQ(csb_.group_max_degree(0), 5u);
  EXPECT_EQ(csb_.group_max_degree(1), 1u);
  EXPECT_EQ(csb_.num_array_tasks(), 4u);
}

TEST_F(PaperExampleCsb, CondensedFootprintBeatsWorstCase) {
  // CSB allocates (5+1)*8 + (1+1)*8 = 64 slots; a max-degree-uniform buffer
  // would need (5+1)*16 = 96.
  EXPECT_EQ(csb_.storage_slots(), 64u);
  EXPECT_LT(csb_.storage_slots(), std::size_t{96});
}

TEST_F(PaperExampleCsb, TableIMessagesDynamicInsertion) {
  // Active vertices {6,7,11,13,14,15} send the Table I messages.
  const std::vector<std::pair<vid_t, float>> messages = {
      {2, 6.f}, {2, 7.f}, {6, 11.f}, {9, 11.f},
      {9, 13.f}, {12, 13.f}, {10, 14.f}, {7, 15.f}};
  csb_.reset_all();
  InsertStats st;
  for (const auto& [dst, val] : messages) csb_.insert(dst, val, st);

  EXPECT_EQ(st.inserted, 8u);
  EXPECT_EQ(st.columns_allocated, 6u);  // distinct destinations
  EXPECT_EQ(st.conflicts, 2u);          // second msgs for 2 and 9

  // Fig. 3(b): group 0 receives messages for vertices 2, 9, 6, 7 -> its
  // first four columns; group 1 for 10, 12 -> its first two columns.
  EXPECT_EQ(csb_.columns_used(0), 4u);
  EXPECT_EQ(csb_.columns_used(1), 2u);

  // Dynamic allocation condenses: all used columns are in the first vector
  // array of each group, so the second arrays have no rows to process.
  EXPECT_EQ(csb_.array_rows(0, 1), 0u);
  EXPECT_EQ(csb_.array_rows(1, 1), 0u);
  EXPECT_EQ(csb_.array_rows(0, 0), 2u);  // vertices 2 and 9 got 2 msgs each
  EXPECT_EQ(csb_.array_rows(1, 0), 1u);

  // Per-destination contents are exact.
  auto column_of = [&](vid_t v) {
    for (std::size_t g = 0; g < csb_.num_groups(); ++g)
      for (vid_t c = 0; c < csb_.group_width(); ++c)
        if (csb_.column_vertex(g, c) == v) return std::pair<std::size_t, vid_t>{g, c};
    ADD_FAILURE() << "no column for vertex " << v;
    return std::pair<std::size_t, vid_t>{0, 0};
  };
  auto [g2, c2] = column_of(2);
  EXPECT_EQ(csb_.column_count(g2, c2), 2u);
  std::multiset<float> got{csb_.cell(g2, c2, 0), csb_.cell(g2, c2, 1)};
  EXPECT_EQ(got, (std::multiset<float>{6.f, 7.f}));
  auto [g10, c10] = column_of(10);
  EXPECT_EQ(g10, 1u);
  EXPECT_EQ(csb_.column_count(g10, c10), 1u);
  EXPECT_EQ(csb_.cell(g10, c10, 0), 14.f);
}

TEST_F(PaperExampleCsb, OneToOneMappingWastesLanes) {
  // Fig. 3(a): with the predetermined mapping the same six destinations
  // scatter across columns, so both vector arrays of group 0 hold messages.
  Csb<float> one2one(in_deg_, cfg(4, 2, ColumnMode::kOneToOne));
  InsertStats st;
  const std::vector<std::pair<vid_t, float>> messages = {
      {2, 6.f}, {2, 7.f}, {6, 11.f}, {9, 11.f},
      {9, 13.f}, {12, 13.f}, {10, 14.f}, {7, 15.f}};
  for (const auto& [dst, val] : messages) one2one.insert(dst, val, st);

  // Destination sorted positions: 2->1, 9->3 (array 0); 6->6, 7->7 (array 1).
  EXPECT_GT(one2one.array_rows(0, 0), 0u);
  EXPECT_GT(one2one.array_rows(0, 1), 0u);
  // Dynamic mode fit the same messages into array 0 only (see test above) —
  // that is the lane-efficiency win of dynamic column allocation.
}

// ---------------------------------------------------------------------------
// Randomized properties.
// ---------------------------------------------------------------------------

// gtest names each instance after a byte dump of its parameter, so the tail
// after `mode` is an explicit zeroed member: left as compiler padding it held
// stack garbage and the test names changed from run to run.
struct CsbParam {
  int lanes;
  int k;
  ColumnMode mode;
  std::uint8_t zero[3] = {};
};
static_assert(std::has_unique_object_representations_v<CsbParam>);

class CsbProperty : public ::testing::TestWithParam<CsbParam> {};

TEST_P(CsbProperty, MessagesAreConservedAndPlacedPerDestination) {
  const auto p = GetParam();
  Rng rng(42);
  const vid_t n = 500;
  // Random in-degree budget per vertex; messages respect it.
  std::vector<vid_t> budget(n);
  for (auto& b : budget) b = static_cast<vid_t>(rng.below(20));

  Csb<float> csb(budget, {p.lanes, p.k, p.mode});
  csb.reset_all();

  std::map<vid_t, std::multiset<float>> expected;
  InsertStats st;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t count = static_cast<vid_t>(rng.below(budget[v] + 1));
    for (vid_t i = 0; i < count; ++i) {
      const float val = rng.uniform(0.f, 1.f);
      expected[v].insert(val);
      csb.insert(v, val, st);
    }
  }

  // Walk the buffer: every occupied column maps to a distinct vertex and
  // holds exactly that vertex's messages.
  std::map<vid_t, std::multiset<float>> found;
  for (std::size_t g = 0; g < csb.num_groups(); ++g) {
    for (vid_t c = 0; c < csb.group_width(); ++c) {
      const vid_t v = csb.column_vertex(g, c);
      if (v == kInvalidVertex) continue;
      const auto cnt = csb.column_count(g, c);
      if (cnt == 0) continue;
      EXPECT_EQ(found.count(v), 0u) << "vertex in two columns";
      for (std::uint32_t r = 0; r < cnt; ++r) found[v].insert(csb.cell(g, c, r));
    }
  }
  // Drop empty expected entries (vertices that got zero messages).
  std::erase_if(expected, [](const auto& kv) { return kv.second.empty(); });
  EXPECT_EQ(found, expected);

  std::uint64_t total = 0;
  for (const auto& [v, ms] : expected) total += ms.size();
  EXPECT_EQ(st.inserted, total);
  EXPECT_EQ(st.conflicts, total - expected.size());
  if (p.mode == ColumnMode::kDynamic) {
    EXPECT_EQ(st.columns_allocated, expected.size());
  }
}

TEST_P(CsbProperty, ResetClearsEverything) {
  const auto p = GetParam();
  std::vector<vid_t> budget(100, 8);
  Csb<float> csb(budget, {p.lanes, p.k, p.mode});
  csb.reset_all();
  InsertStats st;
  for (vid_t v = 0; v < 100; ++v) csb.insert(v, 1.f, st);
  csb.reset_all();
  for (std::size_t g = 0; g < csb.num_groups(); ++g) {
    EXPECT_EQ(csb.columns_used(g), 0u);
    for (int a = 0; a < p.k; ++a) EXPECT_EQ(csb.array_rows(g, a), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CsbProperty,
    ::testing::Values(CsbParam{4, 2, ColumnMode::kDynamic},
                      CsbParam{4, 2, ColumnMode::kOneToOne},
                      CsbParam{16, 2, ColumnMode::kDynamic},
                      CsbParam{16, 4, ColumnMode::kDynamic},
                      CsbParam{8, 1, ColumnMode::kDynamic},
                      CsbParam{1, 2, ColumnMode::kDynamic},
                      CsbParam{16, 2, ColumnMode::kOneToOne}));

TEST(CsbConcurrency, ParallelLockingInsertIsLossless) {
  const vid_t n = 256;
  std::vector<vid_t> budget(n, 64);
  Csb<std::int32_t> csb(budget, {16, 2, ColumnMode::kDynamic});
  csb.reset_all();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2048;  // 8 * 2048 / 256 = 64 messages per vertex
  std::vector<std::thread> threads;
  std::vector<InsertStats> stats(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        // 64-message budget per vertex, 8 threads: at most 8 per thread/vertex.
        const vid_t dst = static_cast<vid_t>((t * kPerThread + i) % n);
        csb.insert(dst, t, stats[t]);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t inserted = 0;
  for (const auto& s : stats) inserted += s.inserted;
  EXPECT_EQ(inserted, static_cast<std::uint64_t>(kThreads) * kPerThread);

  std::uint64_t stored = 0;
  for (std::size_t g = 0; g < csb.num_groups(); ++g)
    for (vid_t c = 0; c < csb.group_width(); ++c) stored += csb.column_count(g, c);
  EXPECT_EQ(stored, inserted);

  // Each vertex got exactly kThreads*kPerThread/n messages.
  for (std::size_t g = 0; g < csb.num_groups(); ++g)
    for (vid_t c = 0; c < csb.group_width(); ++c) {
      const vid_t v = csb.column_vertex(g, c);
      if (v == kInvalidVertex) continue;
      EXPECT_EQ(csb.column_count(g, c),
                static_cast<std::uint32_t>(kThreads * kPerThread / n));
    }
}

TEST(CsbPadding, PadFillsBubblesOnly) {
  std::vector<vid_t> budget = {5, 3, 1, 0, 0, 0, 0, 0};
  Csb<float> csb(budget, {4, 2, ColumnMode::kDynamic});
  csb.reset_all();
  InsertStats st;
  for (int i = 0; i < 5; ++i) csb.insert(0, 1.f, st);
  for (int i = 0; i < 3; ++i) csb.insert(1, 2.f, st);
  csb.insert(2, 3.f, st);

  const auto rows = csb.array_rows(0, 0);
  EXPECT_EQ(rows, 5u);
  const auto padded = csb.pad_array(0, 0, rows, -1.f);
  // Lane 0: 5/5 msgs, lane 1: 3/5, lane 2: 1/5, lane 3: 0/5 -> 0+2+4+5 = 11.
  EXPECT_EQ(padded, 11u);
  // Messages survive padding.
  EXPECT_EQ(csb.cell(0, 0, 4), 1.f);
  EXPECT_EQ(csb.cell(0, 1, 2), 2.f);
  EXPECT_EQ(csb.cell(0, 1, 3), -1.f);
  EXPECT_EQ(csb.cell(0, 3, 0), -1.f);
}

// ---------------------------------------------------------------------------
// Dirty-group tracking (sparse-frontier execution).
// ---------------------------------------------------------------------------

TEST(CsbDirtyGroups, OnlyTouchedGroupsRegister) {
  // 4 groups of width 4 (lanes 2, k 2), all with capacity for 3 messages.
  std::vector<vid_t> budget(16, 2);
  Csb<float> csb(budget, cfg(2, 2, ColumnMode::kDynamic));
  EXPECT_EQ(csb.num_groups(), 4u);
  EXPECT_EQ(csb.num_dirty_groups(), 0u);
  EXPECT_EQ(csb.num_dirty_array_tasks(), 0u);

  InsertStats st;
  csb.insert(0, 1.f, st);   // group of sorted position of vertex 0
  csb.insert(0, 2.f, st);   // same group: must not register twice
  EXPECT_EQ(csb.num_dirty_groups(), 1u);
  EXPECT_EQ(csb.num_dirty_array_tasks(), 2u);
  const std::size_t g0 = csb.redirection(0) / csb.group_width();
  EXPECT_EQ(csb.dirty_group(0), g0);

  csb.insert(15, 3.f, st);  // a vertex in a different group
  const std::size_t g1 = csb.redirection(15) / csb.group_width();
  ASSERT_NE(g0, g1);
  EXPECT_EQ(csb.num_dirty_groups(), 2u);

  // reset_all clears the groups and the dirty list; re-insertion re-marks.
  csb.reset_all();
  EXPECT_EQ(csb.num_dirty_groups(), 0u);
  csb.insert_owned(15, 4.f, st);
  EXPECT_EQ(csb.num_dirty_groups(), 1u);
  EXPECT_EQ(csb.dirty_group(0), g1);
}

TEST(CsbDirtyGroups, ConcurrentInsertersRegisterEachGroupOnce) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  const vid_t n = 64;
  std::vector<vid_t> budget(n, static_cast<vid_t>(kThreads * kPerThread));
  Csb<float> csb(budget, cfg(4, 2, ColumnMode::kDynamic));

  std::vector<std::thread> threads;
  std::vector<InsertStats> stats(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 7919 + 1);
      for (int i = 0; i < kPerThread; ++i)
        csb.insert(static_cast<vid_t>(rng.below(n)), 1.f, stats[t]);
    });
  for (auto& th : threads) th.join();

  // Every group received messages; each appears exactly once in the list.
  EXPECT_EQ(csb.num_dirty_groups(), csb.num_groups());
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < csb.num_dirty_groups(); ++i)
    seen.insert(csb.dirty_group(i));
  EXPECT_EQ(seen.size(), csb.num_groups());
}

TEST(CsbDirtyGroups, OneToOneModeAlsoTracksDirtyGroups) {
  std::vector<vid_t> budget(16, 2);
  Csb<float> csb(budget, cfg(2, 2, ColumnMode::kOneToOne));
  InsertStats st;
  csb.insert(3, 1.f, st);
  EXPECT_EQ(csb.num_dirty_groups(), 1u);
  EXPECT_EQ(csb.dirty_group(0), csb.redirection(3) / csb.group_width());
}

}  // namespace
