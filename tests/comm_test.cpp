// Inter-rank communication tests: the rendezvous exchange as the paper's
// two-rank CPU+MIC pair (including the deadline/poison fault-tolerance
// protocol), N-rank timeout attribution, and the combining remote message
// buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "src/comm/exchange.hpp"
#include "src/comm/remote_buffer.hpp"
#include "src/common/rng.hpp"
#include "src/fault/fault.hpp"
#include "tests/watchdog.hpp"

namespace {

using namespace phigraph;
using comm::ExchangeStatus;
using std::chrono::milliseconds;

/// One round of a two-rank AllToAll from `rank`'s side: sends `v` to the
/// peer; on success the peer's value is in values[1 - rank].
template <typename T>
typename comm::AllToAll<T>::Result swap_with_peer(
    comm::AllToAll<T>& x, int rank, T v,
    milliseconds deadline = milliseconds(60000)) {
  std::vector<T> out(2);
  out[static_cast<std::size_t>(1 - rank)] = std::move(v);
  return x.exchange_for(rank, std::move(out), deadline);
}

TEST(Exchange, SwapsValuesBothWays) {
  comm::AllToAll<int> ex(2);
  comm::AllToAll<int>::Result r0, r1;
  std::thread t1([&] { r1 = swap_with_peer(ex, 1, 111); });
  r0 = swap_with_peer(ex, 0, 222);
  t1.join();
  ASSERT_EQ(r0.status, ExchangeStatus::kOk);
  ASSERT_EQ(r1.status, ExchangeStatus::kOk);
  EXPECT_EQ(r0.values[1], 111);
  EXPECT_EQ(r1.values[0], 222);
}

TEST(Exchange, ManyRoundsStayPaired) {
  comm::AllToAll<int> ex(2);
  constexpr int kRounds = 2000;
  std::thread t1([&] {
    for (int r = 0; r < kRounds; ++r) {
      const auto res = swap_with_peer(ex, 1, r * 2 + 1);
      ASSERT_EQ(res.status, ExchangeStatus::kOk);
      ASSERT_EQ(res.values[0], r * 2);  // receives rank 0's value
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    const auto res = swap_with_peer(ex, 0, r * 2);
    ASSERT_EQ(res.status, ExchangeStatus::kOk);
    ASSERT_EQ(res.values[1], r * 2 + 1);  // receives rank 1's value
  }
  t1.join();
}

TEST(Exchange, MovesLargePayloadsWithoutLoss) {
  comm::AllToAll<std::vector<int>> ex(2);
  std::vector<int> a(10000);
  std::vector<int> b(5000);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 100000);
  comm::AllToAll<std::vector<int>>::Result r0, r1;
  std::thread t1([&] { r1 = swap_with_peer(ex, 1, std::move(b)); });
  r0 = swap_with_peer(ex, 0, std::move(a));
  t1.join();
  ASSERT_EQ(r0.status, ExchangeStatus::kOk);
  ASSERT_EQ(r1.status, ExchangeStatus::kOk);
  EXPECT_EQ(r0.values[1].size(), 5000u);
  EXPECT_EQ(r0.values[1].front(), 100000);
  EXPECT_EQ(r1.values[0].size(), 10000u);
  EXPECT_EQ(r1.values[0].back(), 9999);
}

// ---- deadline + poison protocol ---------------------------------------------

fault::FaultReport test_report(int rank) {
  fault::FaultReport r;
  r.rank = rank;
  r.superstep = 3;
  r.phase = "generate";
  r.what = "boom";
  return r;
}

TEST(ExchangeFault, PoisonBeforeDepositFailsImmediately) {
  comm::AllToAll<int> ex(2);
  ex.poison(1, test_report(1));
  // A long deadline must not matter: the poison check precedes the deposit.
  const auto r = swap_with_peer(ex, 0, 7);
  EXPECT_EQ(r.status, ExchangeStatus::kPeerFailed);
  EXPECT_EQ(r.fault.rank, 1);
  EXPECT_EQ(r.fault.superstep, 3);
  EXPECT_EQ(r.fault.what, "boom");
}

TEST(ExchangeFault, PoisonWakesARankWaitingForItsPeer) {
  comm::AllToAll<int> ex(2);
  std::thread failer([&] {
    std::this_thread::sleep_for(milliseconds(50));
    ex.poison(1, test_report(1));
  });
  // Deposits, then blocks waiting for rank 1 — which dies instead of
  // arriving. The waiter must wake on the poison, well before the deadline.
  const auto r = swap_with_peer(ex, 0, 7);
  failer.join();
  EXPECT_EQ(r.status, ExchangeStatus::kPeerFailed);
  EXPECT_EQ(r.fault.rank, 1);
}

TEST(ExchangeFault, PoisonAfterConsumedRoundNeverReArms) {
  comm::AllToAll<int> ex(2);
  // One healthy round completes...
  std::thread peer([&] {
    const auto r = swap_with_peer(ex, 1, 11);
    ASSERT_EQ(r.status, ExchangeStatus::kOk);
    EXPECT_EQ(r.values[0], 22);
  });
  const auto r0 = swap_with_peer(ex, 0, 22);
  peer.join();
  ASSERT_EQ(r0.status, ExchangeStatus::kOk);
  EXPECT_EQ(r0.values[1], 11);
  // ...then rank 0 dies. Every later call, from either rank, fails fast —
  // retries cannot resurrect the channel.
  ex.poison(0, test_report(0));
  for (int round = 0; round < 3; ++round) {
    const auto r1 = swap_with_peer(ex, 1, 33);
    EXPECT_EQ(r1.status, ExchangeStatus::kPeerFailed);
    EXPECT_EQ(r1.fault.rank, 0);
    const auto r2 = swap_with_peer(ex, 0, 44);
    EXPECT_EQ(r2.status, ExchangeStatus::kPeerFailed);
  }
}

TEST(ExchangeFault, FirstPoisonReportWins) {
  comm::AllToAll<int> ex(2);
  ex.poison(0, test_report(0));
  ex.poison(1, test_report(1));
  EXPECT_TRUE(ex.poisoned());
  EXPECT_EQ(ex.fault().rank, 0);
}

TEST(ExchangeFault, TimeoutRetractsTheDepositAndTheChannelStaysUsable) {
  comm::AllToAll<int> ex(2);
  // Nobody shows up: rank 0 times out and its deposit is retracted.
  const auto r = swap_with_peer(ex, 0, 5, milliseconds(20));
  EXPECT_EQ(r.status, ExchangeStatus::kTimeout);
  EXPECT_EQ(r.fault.rank, 1);  // the absent peer is named
  EXPECT_FALSE(ex.poisoned());
  // A later healthy round pairs the fresh values, not the stale deposit.
  std::thread peer([&] {
    const auto rr = swap_with_peer(ex, 1, 2);
    ASSERT_EQ(rr.status, ExchangeStatus::kOk);
    EXPECT_EQ(rr.values[0], 1);
  });
  const auto rr = swap_with_peer(ex, 0, 1);
  peer.join();
  ASSERT_EQ(rr.status, ExchangeStatus::kOk);
  EXPECT_EQ(rr.values[1], 2);
}

TEST(RemoteBuffer, CombinesPerDestination) {
  comm::RemoteBuffer<float> buf(100);
  auto min_combine = [](float a, float b) { return std::min(a, b); };
  buf.deposit(7, 3.0f, min_combine);
  buf.deposit(7, 1.0f, min_combine);
  buf.deposit(7, 2.0f, min_combine);
  buf.deposit(42, 9.0f, min_combine);
  EXPECT_EQ(buf.touched_count(), 2u);

  std::map<vid_t, float> got;
  buf.drain([&](vid_t dst, float v) { got[dst] = v; });
  EXPECT_EQ(got.size(), 2u);
  EXPECT_FLOAT_EQ(got[7], 1.0f);
  EXPECT_FLOAT_EQ(got[42], 9.0f);

  // Drained: buffer is empty and reusable.
  EXPECT_EQ(buf.touched_count(), 0u);
  buf.deposit(7, 5.0f, min_combine);
  buf.drain([&](vid_t dst, float v) {
    EXPECT_EQ(dst, 7u);
    EXPECT_FLOAT_EQ(v, 5.0f);  // no stale combine with the previous round
  });
}

TEST(RemoteBuffer, ConcurrentDepositsAreExact) {
  constexpr vid_t kVerts = 64;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  comm::RemoteBuffer<std::uint64_t> buf(kVerts);
  auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i)
        buf.deposit(static_cast<vid_t>(rng.below(kVerts)), 1u, sum);
    });
  for (auto& th : threads) th.join();

  std::uint64_t total = 0;
  buf.drain([&](vid_t, std::uint64_t v) { total += v; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(RemoteBuffer, ConcurrentOverlappingDepositsAreExactPerDestination) {
  // Stress the sharded touched lists: many threads hammer a small hot set of
  // overlapping destinations plus a cold tail. Per-destination combined sums
  // and the distinct-destination count must both be exact.
  constexpr vid_t kVerts = 4096;
  constexpr vid_t kHot = 16;  // every thread hits all of these
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  comm::RemoteBuffer<std::uint64_t> buf(kVerts, /*shards=*/8);
  auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

  std::vector<std::map<vid_t, std::uint64_t>> expected(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 97 + 13);
      for (int i = 0; i < kPerThread; ++i) {
        // 50% of traffic funnels into the hot set (overlapping across all
        // threads); the rest scatters — both shard-list paths get exercised.
        const vid_t dst = (i % 2 == 0)
                              ? static_cast<vid_t>(rng.below(kHot))
                              : static_cast<vid_t>(rng.below(kVerts));
        const std::uint64_t val = rng.below(1000) + 1;
        buf.deposit(dst, val, sum);
        expected[t][dst] += val;
      }
    });
  for (auto& th : threads) th.join();

  std::map<vid_t, std::uint64_t> want;
  for (const auto& m : expected)
    for (const auto& [dst, v] : m) want[dst] += v;

  // touched_count is exact: one entry per distinct destination, no dupes.
  EXPECT_EQ(buf.touched_count(), want.size());
  std::size_t per_shard_total = 0;
  for (std::size_t s = 0; s < buf.num_shards(); ++s)
    per_shard_total += buf.shard_touched_count(s);
  EXPECT_EQ(per_shard_total, want.size());

  std::map<vid_t, std::uint64_t> got;
  buf.drain([&](vid_t dst, std::uint64_t v) {
    EXPECT_TRUE(got.emplace(dst, v).second) << "duplicate drain of " << dst;
  });
  EXPECT_EQ(got, want);

  // Fully drained and reusable.
  EXPECT_EQ(buf.touched_count(), 0u);
  buf.deposit(3, 7u, sum);
  buf.drain([&](vid_t dst, std::uint64_t v) {
    EXPECT_EQ(dst, 3u);
    EXPECT_EQ(v, 7u);
  });
}

// ---- AllToAll timeout / retraction ------------------------------------------

namespace {
// One rank (the laggard) sits out while the others run a deadline-bounded
// round. The laggard only moves once both prompt ranks have observed their
// timeout, so the scenario is deterministic: at the moment a prompt rank
// times out, the laggard's deposit round is provably behind and the timeout
// must blame it — not a peer whose deposit was merely retracted.
struct LaggardRound {
  static constexpr int kRanks = 3;
  static constexpr int kLaggard = 2;

  comm::AllToAll<int> x{kRanks};
  std::atomic<int> prompt_timeouts{0};
  std::array<comm::AllToAll<int>::Result, kRanks> results;

  static std::vector<int> payload(int rank, int salt) {
    std::vector<int> out(kRanks, 0);
    for (int dst = 0; dst < kRanks; ++dst) out[dst] = salt + 10 * rank + dst;
    return out;
  }

  void run(std::uint64_t seed) {
    Rng rng(seed);
    const auto jitter0 = std::chrono::milliseconds(rng.below(8));
    const auto jitter1 = std::chrono::milliseconds(rng.below(8));
    std::vector<std::thread> threads;
    for (int rank = 0; rank < kRanks - 1; ++rank) {
      const auto jitter = rank == 0 ? jitter0 : jitter1;
      threads.emplace_back([this, rank, jitter] {
        std::this_thread::sleep_for(jitter);
        results[rank] = x.exchange_for(rank, payload(rank, 100),
                                       std::chrono::milliseconds(300));
        prompt_timeouts.fetch_add(1, std::memory_order_release);
      });
    }
    threads.emplace_back([this] {
      while (prompt_timeouts.load(std::memory_order_acquire) <
             kRanks - 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      // Every prompt deposit was retracted by now; this late round finds an
      // empty matrix and must itself time out rather than hang.
      results[kLaggard] = x.exchange_for(kLaggard, payload(kLaggard, 100),
                                         std::chrono::milliseconds(50));
    });
    for (auto& th : threads) th.join();
  }
};
}  // namespace

TEST(AllToAllTimeout, RetractionLeavesMatrixReusableAndBlamesTheLaggard) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LaggardRound round;
    round.run(seed);

    // Both prompt ranks timed out and named the laggard — not each other,
    // even though each other's deposits were retracted and look absent.
    for (int rank = 0; rank < LaggardRound::kRanks - 1; ++rank) {
      EXPECT_EQ(round.results[rank].status, comm::ExchangeStatus::kTimeout)
          << "rank " << rank;
      EXPECT_EQ(round.results[rank].fault.rank, LaggardRound::kLaggard)
          << "rank " << rank << " blamed the wrong peer";
    }
    EXPECT_EQ(round.results[LaggardRound::kLaggard].status,
              comm::ExchangeStatus::kTimeout);

    // The retracted matrix is fully reusable: a clean round with every rank
    // present must succeed and deliver exactly the fresh values.
    std::vector<std::thread> threads;
    std::array<comm::AllToAll<int>::Result, LaggardRound::kRanks> clean;
    for (int rank = 0; rank < LaggardRound::kRanks; ++rank)
      threads.emplace_back([&, rank] {
        clean[rank] = round.x.exchange_for(rank,
                                           LaggardRound::payload(rank, 500),
                                           std::chrono::seconds(30));
      });
    for (auto& th : threads) th.join();
    for (int rank = 0; rank < LaggardRound::kRanks; ++rank) {
      ASSERT_EQ(clean[rank].status, comm::ExchangeStatus::kOk)
          << "rank " << rank << " after retraction";
      for (int src = 0; src < LaggardRound::kRanks; ++src) {
        if (src == rank) continue;
        EXPECT_EQ(clean[rank].values[src], 500 + 10 * src + rank)
            << "stale or lost slot " << src << " -> " << rank;
      }
    }
  }
}

TEST(AllToAllTimeout, PoisonAfterTimeoutNamesTheLaggardEverywhere) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LaggardRound round;
    round.run(seed);
    ASSERT_EQ(round.results[0].status, comm::ExchangeStatus::kTimeout);

    // Rank 0 escalates its timeout verdict into poison. The report carries
    // the culprit its own timeout_result named — the laggard.
    fault::FaultReport report;
    report.rank = round.results[0].fault.rank;
    report.superstep = 7;
    report.phase = "exchange";
    report.what = "peer missed the all-to-all deadline";
    round.x.poison(0, report);
    EXPECT_TRUE(round.x.poisoned());

    // Every later call from any rank — including the laggard itself — fails
    // fast with the same diagnosis; the channel never re-arms.
    for (int rank = 0; rank < LaggardRound::kRanks; ++rank) {
      auto r = round.x.exchange_for(rank, LaggardRound::payload(rank, 900),
                                    std::chrono::seconds(30));
      EXPECT_EQ(r.status, comm::ExchangeStatus::kPeerFailed) << "rank " << rank;
      EXPECT_EQ(r.fault.rank, LaggardRound::kLaggard) << "rank " << rank;
      EXPECT_EQ(r.fault.superstep, 7) << "rank " << rank;
    }
  }
}

TEST(RemoteBuffer, ParallelShardDrainsPartitionTheDestinations) {
  // drain_shard is safe to run concurrently for different shards: drain all
  // shards from distinct threads and verify the union is exact and disjoint.
  constexpr vid_t kVerts = 2048;
  comm::RemoteBuffer<std::uint64_t> buf(kVerts, /*shards=*/16);
  auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  std::uint64_t want_total = 0;
  for (vid_t v = 0; v < kVerts; v += 3) {
    buf.deposit(v, v + 1, sum);
    buf.deposit(v, 1, sum);
    want_total += v + 2;
  }

  std::vector<std::vector<std::pair<vid_t, std::uint64_t>>> per_shard(
      buf.num_shards());
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < buf.num_shards(); ++s)
    threads.emplace_back([&, s] {
      buf.drain_shard(s, [&](vid_t dst, std::uint64_t v) {
        per_shard[s].emplace_back(dst, v);
      });
    });
  for (auto& th : threads) th.join();

  std::map<vid_t, std::uint64_t> got;
  for (const auto& shard : per_shard)
    for (const auto& [dst, v] : shard)
      EXPECT_TRUE(got.emplace(dst, v).second) << "dst in two shards: " << dst;
  std::uint64_t got_total = 0;
  for (const auto& [dst, v] : got) {
    EXPECT_EQ(v, static_cast<std::uint64_t>(dst) + 2);
    got_total += v;
  }
  EXPECT_EQ(got.size(), (kVerts + 2) / 3);
  EXPECT_EQ(got_total, want_total);
}

}  // namespace
