// Scheduling substrate tests: spinlock, dynamic chunk scheduler, thread team.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/sched/dynamic_scheduler.hpp"
#include "src/sched/spinlock.hpp"
#include "src/sched/thread_team.hpp"

namespace {

using namespace phigraph;

TEST(SpinLock, MutualExclusion) {
  sched::SpinLock lock;
  std::int64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        sched::LockGuard<sched::SpinLock> g(lock);
        ++counter;  // non-atomic: any lost update fails the final check
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<std::int64_t>(kThreads) * kIncrements);
}

TEST(SpinLock, TryLock) {
  sched::SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(DynamicScheduler, CoversEveryTaskExactlyOnce) {
  constexpr std::size_t kTasks = 100'000;
  sched::DynamicScheduler sched(kTasks, 17);  // odd chunk: ragged tail
  std::vector<std::atomic<int>> seen(kTasks);
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t)
    threads.emplace_back([&] {
      while (auto r = sched.next_chunk())
        for (std::size_t i = r->begin; i < r->end; ++i)
          seen[i].fetch_add(1, std::memory_order_relaxed);
    });
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < kTasks; ++i)
    ASSERT_EQ(seen[i].load(), 1) << "task " << i;
}

TEST(DynamicScheduler, RetrievalCountMatchesChunking) {
  sched::DynamicScheduler sched(1000, 64);
  std::size_t total = 0;
  while (auto r = sched.next_chunk()) total += r->size();
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(sched.retrievals(), (1000 + 63) / 64);
}

TEST(DynamicScheduler, EmptyAndReset) {
  sched::DynamicScheduler sched(0, 8);
  EXPECT_FALSE(sched.next_chunk().has_value());
  sched.reset(5, 8);
  auto r = sched.next_chunk();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 5u);
  EXPECT_FALSE(sched.next_chunk().has_value());
}

TEST(ThreadTeam, RunsJobOnEveryThread) {
  sched::ThreadTeam team(5);
  std::vector<std::atomic<int>> hits(5);
  team.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, SequentialRunsObserveEachOther) {
  sched::ThreadTeam team(4);
  std::atomic<int> sum{0};
  for (int round = 0; round < 50; ++round) {
    team.run([&](int) { sum.fetch_add(1); });
    // run() is a full barrier: all 4 increments of this round are visible.
    EXPECT_EQ(sum.load(), 4 * (round + 1));
  }
}

TEST(ThreadTeam, DistinctThreadIds) {
  sched::ThreadTeam team(6);
  std::vector<std::thread::id> ids(6);
  team.run([&](int tid) { ids[static_cast<std::size_t>(tid)] = std::this_thread::get_id(); });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(ThreadTeam, SlotZeroRunsOnTheCallingThread) {
  for (int size : {1, 4}) {
    sched::ThreadTeam team(size);
    std::vector<std::thread::id> ids(static_cast<std::size_t>(size));
    team.run([&](int slot) {
      ids[static_cast<std::size_t>(slot)] = std::this_thread::get_id();
    });
    EXPECT_EQ(ids[0], std::this_thread::get_id()) << "size " << size;
    for (int slot = 1; slot < size; ++slot)
      EXPECT_NE(ids[static_cast<std::size_t>(slot)], std::this_thread::get_id())
          << "size " << size << " slot " << slot;
  }
}

TEST(ThreadTeam, WorkerSlotExceptionReachesTheCaller) {
  sched::ThreadTeam team(4);
  try {
    team.run([](int slot) {
      if (slot == 2) throw std::runtime_error("slot 2 failed");
    });
    FAIL() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slot 2 failed");
  }
  // The team survives the fault: the next run reaches every slot.
  std::atomic<int> hits{0};
  team.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(ThreadTeam, SlotZeroExceptionLeavesAfterTheJoin) {
  for (int size : {2, 4}) {
    sched::ThreadTeam team(size);
    std::atomic<bool> slot1_done{false};
    try {
      team.run([&](int slot) {
        if (slot == 0) throw std::runtime_error("slot 0 failed");
        if (slot == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          slot1_done.store(true);
        }
      });
      FAIL() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slot 0 failed");
      EXPECT_TRUE(slot1_done.load()) << "size " << size;
    }
  }
}

TEST(ThreadTeam, NestedRunIsNotReentrant) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int size : {1, 4}) {
    EXPECT_DEATH(
        {
          sched::ThreadTeam team(size);
          team.run([&](int slot) {
            if (slot == 0) team.run([](int) {});
          });
        },
        "not reentrant")
        << "size " << size;
  }
}

}  // namespace
