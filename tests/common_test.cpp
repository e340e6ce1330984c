// Tests for the common utilities: RNG, aligned allocation, contracts,
// metrics accumulation, and the vmsg_array view.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "src/buffer/vmsg_array.hpp"
#include "src/common/aligned.hpp"
#include "src/common/expect.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/metrics/counters.hpp"
#include "src/simd/simd.hpp"

namespace {

using namespace phigraph;

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i)
    if (a2.next() != c.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(13);
    ASSERT_LT(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 13u);  // all residues hit
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  std::map<std::uint64_t, int> counts;
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(8)];
  for (const auto& [v, c] : counts)
    EXPECT_NEAR(c, kDraws / 8, kDraws / 8 * 0.1) << "value " << v;
}

TEST(Rng, UniformRanges) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const float f = rng.uniform(2.0f, 5.0f);
    EXPECT_GE(f, 2.0f);
    EXPECT_LT(f, 5.0f);
  }
}

TEST(Aligned, VectorDataIs64ByteAligned) {
  for (std::size_t n : {1, 3, 17, 1000}) {
    aligned_vector<float> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kSimdAlign, 0u);
    aligned_vector<std::uint8_t> b(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kSimdAlign, 0u);
  }
}

TEST(Aligned, AllocatorEquality) {
  AlignedAllocator<int> a, b;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.allocate(0), nullptr);
}

TEST(Expect, CheckAbortsWithMessage) {
  EXPECT_DEATH(PG_CHECK_MSG(1 == 2, "the message"), "the message");
  EXPECT_DEATH(PG_CHECK(false), "check failed");
  PG_CHECK(true);  // no-op
}

TEST(Timer, StopWatchAccumulates) {
  StopWatch w;
  w.start();
  w.stop();
  w.start();
  w.stop();
  EXPECT_GE(w.total_seconds(), 0.0);
  w.clear();
  EXPECT_EQ(w.total_seconds(), 0.0);
}

TEST(Metrics, CountersAccumulate) {
  metrics::SuperstepCounters a;
  a.msgs_local = 10;
  a.vector_rows = 3;
  a.bytes_sent = 100;
  metrics::SuperstepCounters b;
  b.msgs_local = 5;
  b.column_conflicts = 2;
  a += b;
  EXPECT_EQ(a.msgs_local, 15u);
  EXPECT_EQ(a.column_conflicts, 2u);
  EXPECT_EQ(a.vector_rows, 3u);

  metrics::RunTrace trace{a, b};
  const auto t = metrics::totals(trace);
  EXPECT_EQ(t.msgs_local, 20u);
  EXPECT_EQ(t.bytes_sent, 100u);
}

TEST(VMsgArray, ViewsRowsInPlace) {
  using V = simd::Vec<float, 4>;
  aligned_vector<float> storage(12);
  for (std::size_t i = 0; i < 12; ++i) storage[i] = static_cast<float>(i);
  buffer::VMsgArray<V> arr(reinterpret_cast<V*>(storage.data()), 3);
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[0][0], 0.0f);
  EXPECT_EQ(arr[1][2], 6.0f);
  EXPECT_EQ(arr[2][3], 11.0f);
  // Paper-style reduction writes back through the view.
  auto res = arr[0];
  for (std::size_t i = 1; i < arr.size(); ++i) res = res + arr[i];
  arr[0] = res;
  EXPECT_EQ(storage[0], 0.0f + 4.0f + 8.0f);
  EXPECT_EQ(storage[3], 3.0f + 7.0f + 11.0f);
}

TEST(VMsgArray, ScalarElementType) {
  float data[4] = {5, 1, 3, 2};
  buffer::VMsgArray<float> arr(data, 4);
  float mn = arr[0];
  for (std::size_t i = 1; i < arr.size(); ++i) mn = std::min(mn, arr[i]);
  arr[0] = mn;
  EXPECT_EQ(data[0], 1.0f);
}

}  // namespace
