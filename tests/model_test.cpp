// PHIGRAPH_MODEL schedule-exploration tests over the production lock-free
// core. Each test runs the real data structure (SpscQueue, AllToAll,
// CheckpointStore, RemoteBuffer, SpinLock) under the cooperative model
// scheduler, explores >= 10,000 distinct interleavings for the three
// headline protocols, and requires zero race reports and zero invariant
// violations across all of them.
//
// These tests are meaningful only in the `model` preset (PHIGRAPH_MODEL);
// in every other build they collapse to a single skip so the default test
// run stays unchanged.
#include <gtest/gtest.h>

#include "src/common/sync.hpp"

#if PG_MODEL_ENABLED

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/exchange.hpp"
#include "src/comm/remote_buffer.hpp"
#include "src/fault/checkpoint.hpp"
#include "src/model/model.hpp"
#include "src/pipeline/spsc_queue.hpp"
#include "src/sched/spinlock.hpp"

namespace {

using namespace phigraph;

// The acceptance bar for the headline protocols: at least this many
// *distinct* schedules (not merely executions) with a budget comfortably
// above it so the explorer can stop at the target.
constexpr std::size_t kDistinctTarget = 10000;

model::Options coverage_options() {
  model::Options opt;
  opt.iterations = 40000;
  opt.target_distinct = kDistinctTarget + 500;
  opt.preemption_bound = 4;
  return opt;
}

model::Options smoke_options() {
  model::Options opt;
  opt.iterations = 3000;
  opt.preemption_bound = 4;
  return opt;
}

#define PG_MODEL_EXPECT_CLEAN(stats)                                      \
  EXPECT_EQ((stats).failures, 0)                                          \
      << "first failure: " << (stats).first_failure                       \
      << " (replay seed " << (stats).first_failure_seed << ")"

// ---- SpscQueue ------------------------------------------------------------

TEST(ModelSpsc, ProducerConsumerExploresTenThousandSchedules) {
  const model::Options opt = coverage_options();
  const model::ExploreStats stats = model::explore(opt, [] {
    struct State {
      pipeline::SpscQueue<int> q{4};  // 3 usable slots: forces full/empty
      std::vector<int> popped;
    };
    auto st = std::make_shared<State>();
    model::TestCase tc;
    tc.threads.push_back([st] {
      for (int i = 0; i < 6; ++i)
        while (!st->q.try_push(i)) sync::thread_yield();
    });
    tc.threads.push_back([st] {
      int out = -1;
      for (int i = 0; i < 6; ++i) {
        while (!st->q.try_pop(out)) sync::thread_yield();
        st->popped.push_back(out);
      }
    });
    tc.finally = [st]() -> std::string {
      if (st->popped.size() != 6) return "consumer did not pop 6 items";
      for (int i = 0; i < 6; ++i)
        if (st->popped[static_cast<std::size_t>(i)] != i)
          return "FIFO order violated at position " + std::to_string(i);
      if (!st->q.empty()) return "queue not empty after full drain";
      return "";
    };
    return tc;
  });
  PG_MODEL_EXPECT_CLEAN(stats);
  EXPECT_GE(stats.distinct_schedules, kDistinctTarget)
      << "after " << stats.executions << " executions";
}

// ---- AllToAll deposit / drain ---------------------------------------------

TEST(ModelAllToAll, ThreeRanksTwoRoundsExploresTenThousandSchedules) {
  constexpr int kRanks = 3;
  constexpr int kRounds = 2;
  const model::Options opt = coverage_options();
  const model::ExploreStats stats = model::explore(opt, [] {
    struct State {
      comm::AllToAll<int> x{kRanks};
      // One error slot per rank: each virtual thread writes only its own.
      std::array<std::string, kRanks> errors;
    };
    auto st = std::make_shared<State>();
    model::TestCase tc;
    for (int rank = 0; rank < kRanks; ++rank) {
      tc.threads.push_back([st, rank] {
        for (int round = 0; round < kRounds; ++round) {
          std::vector<int> out(kRanks, 0);
          for (int dst = 0; dst < kRanks; ++dst)
            out[static_cast<std::size_t>(dst)] =
                1000 * round + 100 * rank + dst;
          auto r = st->x.exchange_for(rank, std::move(out),
                                      std::chrono::hours(1));
          if (r.status != comm::ExchangeStatus::kOk) {
            st->errors[static_cast<std::size_t>(rank)] =
                "rank " + std::to_string(rank) + " round " +
                std::to_string(round) + ": " +
                comm::exchange_status_name(r.status);
            return;
          }
          for (int src = 0; src < kRanks; ++src) {
            if (src == rank) continue;
            const int want = 1000 * round + 100 * src + rank;
            if (r.values[static_cast<std::size_t>(src)] != want) {
              st->errors[static_cast<std::size_t>(rank)] =
                  "rank " + std::to_string(rank) + " round " +
                  std::to_string(round) + ": wrong value from rank " +
                  std::to_string(src);
              return;
            }
          }
        }
      });
    }
    tc.finally = [st]() -> std::string {
      for (const std::string& e : st->errors)
        if (!e.empty()) return e;
      return "";
    };
    return tc;
  });
  PG_MODEL_EXPECT_CLEAN(stats);
  EXPECT_GE(stats.distinct_schedules, kDistinctTarget)
      << "after " << stats.executions << " executions";
}

// ---- Checkpoint slot alternation ------------------------------------------

namespace {
fault::CheckpointFrame make_frame(int superstep) {
  fault::CheckpointFrame f;
  f.superstep = superstep;
  f.values.assign(8, static_cast<std::uint8_t>(superstep));
  f.active.assign(4, static_cast<std::uint8_t>(superstep * 3));
  f.seal();
  return f;
}
}  // namespace

TEST(ModelCheckpoint, WriterVsReaderExploresTenThousandSchedules) {
  constexpr int kFrames = 4;
  const model::Options opt = coverage_options();
  const model::ExploreStats stats = model::explore(opt, [] {
    struct State {
      fault::CheckpointStore store{fault::CheckpointConfig{1, false, ""}, 0};
      sync::Atomic<int> done{0};
      std::string error;  // written only by the reader thread
    };
    auto st = std::make_shared<State>();
    model::TestCase tc;
    tc.threads.push_back([st] {  // writer: slots alternate 0,1,0,1
      for (int s = 1; s <= kFrames; ++s) st->store.write(make_frame(s));
      st->done.store(1, sync::release);
    });
    tc.threads.push_back([st] {  // reader: concurrent failover probe
      int last = 0;
      while (st->done.load(sync::acquire) == 0) {
        auto f = st->store.latest_valid();
        if (f) {
          if (!f->valid()) {
            st->error = "reader got a frame with a bad CRC";
            return;
          }
          if (f->values != std::vector<std::uint8_t>(
                               8, static_cast<std::uint8_t>(f->superstep))) {
            st->error = "reader saw a torn frame payload at superstep " +
                        std::to_string(f->superstep);
            return;
          }
          if (f->superstep < last) {
            st->error = "latest_valid went backwards: " +
                        std::to_string(f->superstep) + " after " +
                        std::to_string(last);
            return;
          }
          last = f->superstep;
        }
        sync::thread_yield();
      }
    });
    tc.finally = [st]() -> std::string {
      if (!st->error.empty()) return st->error;
      auto f = st->store.latest_valid();
      if (!f) return "no valid frame after the writer finished";
      if (f->superstep != kFrames)
        return "latest frame is superstep " + std::to_string(f->superstep) +
               ", want " + std::to_string(kFrames);
      return "";
    };
    return tc;
  });
  PG_MODEL_EXPECT_CLEAN(stats);
  EXPECT_GE(stats.distinct_schedules, kDistinctTarget)
      << "after " << stats.executions << " executions";
}

// ---- RemoteBuffer phase contract ------------------------------------------

TEST(ModelRemoteBuffer, DepositBarrierDrainIsRaceFree) {
  const model::Options opt = smoke_options();
  const model::ExploreStats stats = model::explore(opt, [] {
    struct State {
      comm::RemoteBuffer<int> buf{8, /*shards=*/1, /*num_ranks=*/1};
      sync::Atomic<int> arrivals{0};
      std::vector<int> drained = std::vector<int>(8, -1);
    };
    auto st = std::make_shared<State>();
    auto plus = [](int a, int b) { return a + b; };
    model::TestCase tc;
    tc.threads.push_back([st, plus] {
      for (vid_t v : {0u, 1u, 2u}) st->buf.deposit(v, 0, 1, plus);
      // HB edge for the phase barrier: the release publishes the deposits,
      // the drainer's acquire spin below pairs with it.
      st->arrivals.fetch_add(1, sync::release);
    });
    tc.threads.push_back([st, plus] {
      for (vid_t v : {1u, 2u, 3u}) st->buf.deposit(v, 0, 10, plus);
      st->arrivals.fetch_add(1, sync::release);
    });
    tc.threads.push_back([st] {
      while (st->arrivals.load(sync::acquire) < 2) sync::thread_yield();
      st->buf.drain([&](vid_t dst, int value) {
        st->drained[static_cast<std::size_t>(dst)] = value;
      });
    });
    tc.finally = [st]() -> std::string {
      const std::vector<int> want = {1, 11, 11, 10, -1, -1, -1, -1};
      if (st->drained != want) return "combined drain produced wrong values";
      if (st->buf.touched_count() != 0) return "drain left entries behind";
      return "";
    };
    return tc;
  });
  PG_MODEL_EXPECT_CLEAN(stats);
  EXPECT_GE(stats.distinct_schedules, 500u);
}

// ---- SpinLock critical sections -------------------------------------------

TEST(ModelSpinlock, CriticalSectionsAreOrdered) {
  const model::Options opt = smoke_options();
  const model::ExploreStats stats = model::explore(opt, [] {
    struct State {
      sched::SpinLock lock;
      int counter = 0;  // plain shared state guarded by `lock`
    };
    auto st = std::make_shared<State>();
    auto body = [st] {
      for (int i = 0; i < 3; ++i) {
        sched::LockGuard<sched::SpinLock> g(st->lock);
        sync::plain_read(&st->counter, "spinlock-guarded counter");
        const int c = st->counter;
        sync::plain_write(&st->counter, "spinlock-guarded counter");
        st->counter = c + 1;
      }
    };
    model::TestCase tc;
    tc.threads.push_back(body);
    tc.threads.push_back(body);
    tc.finally = [st]() -> std::string {
      return st->counter == 6 ? ""
                              : "lost update: counter is " +
                                    std::to_string(st->counter) + ", want 6";
    };
    return tc;
  });
  PG_MODEL_EXPECT_CLEAN(stats);
  EXPECT_GE(stats.distinct_schedules, 500u);
}

// ---- replayability ---------------------------------------------------------

TEST(ModelScheduler, SameSeedSameSchedule) {
  // Drive the scheduler directly: identical seeds must produce identical
  // schedule hashes, distinct seeds almost surely distinct ones.
  auto run_hash = [](std::uint64_t seed) {
    struct State {
      pipeline::SpscQueue<int> q{4};
    };
    auto st = std::make_shared<State>();
    std::vector<std::function<void()>> bodies;
    bodies.push_back([st] {
      for (int i = 0; i < 3; ++i)
        while (!st->q.try_push(i)) sync::thread_yield();
    });
    bodies.push_back([st] {
      int out;
      for (int i = 0; i < 3; ++i)
        while (!st->q.try_pop(out)) sync::thread_yield();
    });
    auto r = model::Scheduler::instance().run(bodies, seed, 4, 200000);
    EXPECT_TRUE(r.failure.empty()) << r.failure;
    return r.schedule_hash;
  };
  EXPECT_EQ(run_hash(42), run_hash(42));
  EXPECT_NE(run_hash(42), run_hash(43));
}

}  // namespace

#else  // !PG_MODEL_ENABLED

TEST(Model, RequiresModelPreset) {
  GTEST_SKIP() << "model-checker tests run under the `model` preset "
                  "(PHIGRAPH_MODEL=ON); this build has it off";
}

#endif  // PG_MODEL_ENABLED
