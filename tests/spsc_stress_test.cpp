// SPSC queue stress: one producer and one consumer hammer a small ring with
// randomized stall injection, verifying the FIFO contract (every item
// arrives exactly once, in order) over millions of operations. The point of
// the stalls is to shake out memory-ordering bugs: a pause at a random
// point shifts which load observes which store, so a missing acquire/release
// pair that happens to work in the steady state gets caught when the timing
// wobbles. Run under TSan (the tsan preset includes this suite) the same
// battery doubles as a data-race proof of the two-index protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/sync.hpp"
#include "src/pipeline/spsc_queue.hpp"
#include "watchdog.hpp"

namespace {

using namespace phigraph;
using pipeline::SpscQueue;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::uint64_t kItems = 200'000;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr std::uint64_t kItems = 200'000;
#else
constexpr std::uint64_t kItems = 2'000'000;
#endif
#else
constexpr std::uint64_t kItems = 2'000'000;
#endif

// Occasionally burn a few cycles (or yield) to move the producer/consumer
// phase relationship around. Pure spinning keeps both threads in lockstep;
// the yields force genuine full-queue and empty-queue episodes.
void maybe_stall(Rng& rng) {
  const auto roll = rng.below(64);
  if (roll == 0) {
    std::this_thread::yield();
  } else if (roll < 4) {
    for (auto spin = rng.below(32); spin > 0; --spin) sync::cpu_relax();
  }
}

void run_stress(std::size_t capacity, std::uint64_t seed) {
  phigraph::testing::Watchdog wd(std::chrono::seconds(240));
  SpscQueue<std::uint64_t> q(capacity);

  std::atomic<std::uint64_t> full_spins{0};
  std::thread producer([&] {
    Rng rng(seed);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!q.try_push(i)) {
        full_spins.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
      maybe_stall(rng);
    }
  });

  std::uint64_t expected = 0;
  std::uint64_t order_errors = 0;
  std::uint64_t size_errors = 0;
  Rng rng(seed ^ 0xbadc0ffeull);
  while (expected < kItems) {
    // The occupancy snapshot races with the producer, but must stay within
    // the ring bounds at every instant.
    if (q.size() > q.capacity()) ++size_errors;
    std::uint64_t got;
    if (rng.below(4) == 0) {
      // Batch path: the mover's drain().
      q.drain([&](std::uint64_t item) {
        if (item != expected) ++order_errors;
        ++expected;
      });
    } else if (q.try_pop(got)) {
      if (got != expected) ++order_errors;
      ++expected;
    }
    maybe_stall(rng);
  }
  producer.join();

  EXPECT_EQ(order_errors, 0u);
  EXPECT_EQ(size_errors, 0u);
  EXPECT_EQ(expected, kItems);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // A ring this small against this many items must have hit backpressure —
  // otherwise the test never exercised the full-queue path it exists for.
  if (capacity <= 16) {
    EXPECT_GT(full_spins.load(), 0u);
  }
}

TEST(SpscStress, TinyRingMaximizesBackpressure) { run_stress(4, 0x51ee7); }

TEST(SpscStress, SmallRing) { run_stress(16, 0xfeedface); }

TEST(SpscStress, ProductionSizedRing) { run_stress(1024, 0xabad1dea); }

// Alternating near-empty operation: the consumer keeps up, so every push is
// immediately visible to a pop that races it — the hardest case for the
// producer's release store / consumer's acquire load pairing.
TEST(SpscStress, LockstepHandoff) {
  phigraph::testing::Watchdog wd(std::chrono::seconds(240));
  SpscQueue<std::uint64_t> q(2);  // a single usable slot
  const std::uint64_t items = kItems / 4;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < items; ++i)
      while (!q.try_push(i)) std::this_thread::yield();
  });
  for (std::uint64_t expected = 0; expected < items;) {
    std::uint64_t got;
    if (q.try_pop(got)) {
      ASSERT_EQ(got, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
    ASSERT_LE(q.size(), 1u);
  }
  producer.join();
  EXPECT_TRUE(q.empty());
}

}  // namespace
