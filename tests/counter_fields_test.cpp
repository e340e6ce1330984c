// Field lists of the stats structs: each names every member exactly once
// (the bench JSON, the compare gate's schema and operator+= all follow the
// list, so a member missing from it would silently vanish from all three),
// and operator+= adds every listed field.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>

#include "bench/common/harness.hpp"
#include "src/metrics/counters.hpp"

namespace {

using namespace phigraph;

template <typename T>
constexpr std::size_t field_count() {
  std::size_t n = 0;
  T::fields([&n](const char*, auto, auto...) { ++n; });
  return n;
}

// The homogeneous structs: the list covers every member iff the sizes add
// up (SuperstepCounters also holds its row index, `superstep`).
static_assert(sizeof(metrics::SuperstepCounters) ==
              (field_count<metrics::SuperstepCounters>() + 1) *
                  sizeof(std::uint64_t));
static_assert(sizeof(metrics::PhaseSeconds) ==
              field_count<metrics::PhaseSeconds>() * sizeof(double));

// Every listed member is distinct, has a distinct JSON name, and together
// they fill the struct: with no padding between 8-byte-aligned members,
// that means the list covers every member.
template <typename T>
void expect_list_covers_struct() {
  const T s{};
  std::set<std::string> names;
  std::set<std::ptrdiff_t> offsets;
  std::size_t bytes = 0;
  T::fields([&](const char* name, auto member, auto...) {
    names.insert(name);
    const auto* field = reinterpret_cast<const char*>(&(s.*member));
    offsets.insert(field - reinterpret_cast<const char*>(&s));
    bytes += sizeof(s.*member);
  });
  EXPECT_EQ(names.size(), field_count<T>());
  EXPECT_EQ(offsets.size(), field_count<T>());
  EXPECT_EQ(bytes, sizeof(T) - (std::is_same_v<T, metrics::SuperstepCounters>
                                    ? sizeof(std::uint64_t)
                                    : 0));
}

TEST(CounterFields, EachListCoversItsStruct) {
  expect_list_covers_struct<metrics::SuperstepCounters>();
  expect_list_covers_struct<metrics::PhaseSeconds>();
  expect_list_covers_struct<metrics::FailoverStats>();
  expect_list_covers_struct<bench::ServingSummary>();
  expect_list_covers_struct<bench::PartitionSummary>();
}

// Sets field i of `s` to (i + 1) * scale.
template <typename T>
void number_fields(T& s, int scale) {
  int i = 0;
  T::fields([&](const char*, auto member, auto...) {
    using V = std::remove_reference_t<decltype(s.*member)>;
    s.*member = static_cast<V>(++i * scale);
  });
}

template <typename T>
void expect_sum_adds_every_field() {
  T a{};
  T b{};
  number_fields(a, 1);
  number_fields(b, 10);
  a += b;
  int i = 0;
  T::fields([&](const char* name, auto member, auto...) {
    using V = std::remove_reference_t<decltype(a.*member)>;
    EXPECT_EQ(a.*member, static_cast<V>(++i * 11)) << name;
  });
}

TEST(CounterFields, SumAddsEveryListedField) {
  expect_sum_adds_every_field<metrics::SuperstepCounters>();
  expect_sum_adds_every_field<metrics::PhaseSeconds>();
}

}  // namespace
