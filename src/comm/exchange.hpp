// Rendezvous exchange — the in-process stand-in for the paper's MPI
// symmetric computing (CPU = rank 0, MIC = rank 1, generalized to N ranks).
//
// Each superstep every rank swaps exactly one combined message batch per
// peer (the paper: "The combination result is sent to the other device as a
// single MPI message") plus one termination-control word. AllToAll<T> is the
// MPI_Alltoall analogue: one staging slot per (source, destination) pair.
//
// Fault tolerance (see DESIGN.md §6): exchange_for() bounds every wait by a
// deadline, so a peer that dies mid-superstep cannot deadlock the survivor,
// and poison() lets a failing rank wake its peers *immediately* with a
// structured FaultReport. A poisoned channel never re-arms within an epoch:
// every later call from any rank returns kPeerFailed at once, so retries
// cannot resurrect a half-dead rendezvous.
#pragma once

#include <chrono>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/expect.hpp"
#include "src/common/sync.hpp"
#include "src/fault/fault.hpp"
#include "src/metrics/trace.hpp"

namespace phigraph::comm {

/// Outcome of a deadline-bounded exchange.
enum class ExchangeStatus : std::uint8_t {
  kOk = 0,
  kTimeout,     // the peer did not show up before the deadline
  kPeerFailed,  // the channel is poisoned; `fault` names the failing rank
};

constexpr const char* exchange_status_name(ExchangeStatus s) noexcept {
  switch (s) {
    case ExchangeStatus::kOk: return "ok";
    case ExchangeStatus::kTimeout: return "timeout";
    case ExchangeStatus::kPeerFailed: return "peer-failed";
  }
  return "?";
}

/// N-rank all-to-all rendezvous over an N x N staging-slot matrix. Each round
/// every rank deposits one value per destination and blocks until every
/// peer's value for it has arrived. Two phases: a rank first waits for its
/// *previous* deposits to be consumed (so rounds cannot overtake each
/// other), then deposits, then waits for all inbound slots, consumes them,
/// and wakes the depositors.
///
/// Within an epoch poison() is first-wins; a timeout retracts this rank's
/// unconsumed deposits so the matrix is not left half-advanced, and reports
/// the first peer that had not arrived (Result::fault.rank) so the caller
/// can name the suspect.
///
/// Recovery epochs: the ladder in ClusterEngine aborts a round, restores
/// engines from a checkpoint, and reuses the same channel. advance_epoch()
/// bumps a generation counter, clears the poison, and wipes every staged
/// deposit and round count. Deposits are stamped with the epoch current when
/// their exchange_for() *entered*, and consumption only accepts
/// current-epoch stamps — so a straggler from an aborted round can neither
/// leak a stale value into the new epoch nor satisfy its rendezvous (it
/// returns kPeerFailed with an "epoch advanced" report instead).
template <typename T>
class AllToAll {
 public:
  struct Result {
    ExchangeStatus status = ExchangeStatus::kOk;
    std::vector<T> values;      // indexed by source rank (kOk only);
                                // values[self] is default-constructed
    fault::FaultReport fault;   // poison reason (kPeerFailed) or, on
                                // kTimeout, rank = first absent peer

    [[nodiscard]] explicit operator bool() const noexcept {
      return status == ExchangeStatus::kOk;
    }
  };

  explicit AllToAll(int num_ranks)
      : n_(num_ranks),
        slot_(static_cast<std::size_t>(num_ranks) *
              static_cast<std::size_t>(num_ranks)),
        present_(slot_.size(), 0),
        slot_epoch_(slot_.size(), 0),
        round_(static_cast<std::size_t>(num_ranks), 0) {
    PG_CHECK_MSG(num_ranks >= 1, "AllToAll needs at least one rank");
  }

  [[nodiscard]] int num_ranks() const noexcept { return n_; }

  /// Deposit `outgoing[dst]` for every destination rank (outgoing[rank]
  /// itself is ignored) and block until every peer's contribution for this
  /// rank is available. `outgoing` must hold exactly num_ranks() entries.
  Result exchange_for(int rank, std::vector<T> outgoing,
                      std::chrono::milliseconds deadline) {
    PG_CHECK(rank >= 0 && rank < n_);
    PG_CHECK_MSG(static_cast<int>(outgoing.size()) == n_,
                 "AllToAll: one outgoing value per rank is required");
    // The whole rendezvous (both waits) is the PCIe-latency stand-in; the
    // span has no superstep of its own — exchanges also carry control
    // traffic — so it is excluded from phase-time accounting.
    PG_TRACE_SCOPE(kExchangeWait, -1, rank);
    const auto until = std::chrono::steady_clock::now() + deadline;
    std::unique_lock<sync::Mutex> l(mu_);
    // Deposits made by this call belong to the epoch current at entry. If
    // recovery advances the epoch while this rank is blocked below, its
    // rendezvous is void: it bails out instead of consuming new-epoch slots.
    const std::uint64_t my_epoch = epoch_;
    // Phase 1: wait until this rank's previous deposits were all consumed.
    if (!cv_.wait_until(l, until, [&] {
          if (poisoned_ || epoch_ != my_epoch) return true;
          for (int dst = 0; dst < n_; ++dst)
            if (dst != rank && present_[idx(rank, dst)]) return false;
          return true;
        }))
      return timeout_result(rank);
    if (epoch_ != my_epoch) return stale_epoch_result(my_epoch);
    if (poisoned_) return poisoned_result();
    // Slot elements are plain shared state; every touch is under mu_ (the
    // model AllToAll test drives deposit/drain/retract through the race
    // detector to prove the monitor discipline is airtight).
    for (int dst = 0; dst < n_; ++dst) {
      if (dst == rank) continue;
      sync::plain_write(&slot_[idx(rank, dst)], "AllToAll staging slot");
      slot_[idx(rank, dst)] = std::move(outgoing[dst]);
      present_[idx(rank, dst)] = 1;
      slot_epoch_[idx(rank, dst)] = my_epoch;
    }
    // Round bookkeeping for timeout attribution: a retracted deposit leaves
    // the slot indistinguishable from "never deposited", but the depositor's
    // round count proves it showed up — so timeouts blame the peer that is
    // genuinely behind, not a peer that timed out moments earlier.
    ++round_[static_cast<std::size_t>(rank)];
    cv_.notify_all();
    // Phase 2: wait for every inbound slot, then consume them all at once.
    // A slot stamped with a different epoch counts as absent: it was staged
    // for a rendezvous that no longer exists.
    if (!cv_.wait_until(l, until, [&] {
          if (poisoned_ || epoch_ != my_epoch) return true;
          for (int src = 0; src < n_; ++src)
            if (src != rank && !(present_[idx(src, rank)] &&
                                 slot_epoch_[idx(src, rank)] == my_epoch))
              return false;
          return true;
        })) {
      // Retract whatever nobody consumed yet so the channel stays usable.
      for (int dst = 0; dst < n_; ++dst) {
        if (dst == rank) continue;
        if (present_[idx(rank, dst)]) {
          sync::plain_write(&slot_[idx(rank, dst)], "AllToAll staging slot");
          slot_[idx(rank, dst)] = T{};
          present_[idx(rank, dst)] = 0;
        }
      }
      return timeout_result(rank);
    }
    if (epoch_ != my_epoch) return stale_epoch_result(my_epoch);
    if (poisoned_) return poisoned_result();
    Result r;
    r.values.resize(static_cast<std::size_t>(n_));
    for (int src = 0; src < n_; ++src) {
      if (src == rank) continue;
      sync::plain_read(&slot_[idx(src, rank)], "AllToAll staging slot");
      r.values[static_cast<std::size_t>(src)] = std::move(slot_[idx(src, rank)]);
      present_[idx(src, rank)] = 0;
    }
    cv_.notify_all();
    return r;
  }

  /// Marks the channel dead on behalf of `rank` and wakes every waiter. The
  /// first report wins; only advance_epoch() can clear it.
  void poison(int rank, fault::FaultReport reason) {
    PG_CHECK(rank >= 0 && rank < n_);
    {
      sync::LockGuard l(mu_);
      if (!poisoned_) {
        poisoned_ = true;
        fault_ = std::move(reason);
      }
    }
    cv_.notify_all();
  }

  /// Start a new recovery epoch: clear the poison, wipe every staged deposit
  /// and round count, and wake any waiter (which will observe the epoch
  /// change and bail out with a stale-epoch report). Called by the recovery
  /// ladder after all rank threads of the aborted epoch have been joined —
  /// but the epoch stamps keep even an unjoined straggler harmless.
  void advance_epoch() {
    {
      sync::LockGuard l(mu_);
      ++epoch_;
      poisoned_ = false;
      fault_ = {};
      for (std::size_t i = 0; i < slot_.size(); ++i) {
        if (present_[i]) {
          sync::plain_write(&slot_[i], "AllToAll staging slot");
          slot_[i] = T{};
          present_[i] = 0;
        }
      }
      for (auto& r : round_) r = 0;
    }
    cv_.notify_all();
  }

  /// The current recovery epoch (0 until the first advance_epoch()).
  [[nodiscard]] std::uint64_t epoch() const {
    sync::LockGuard l(mu_);
    return epoch_;
  }

  [[nodiscard]] bool poisoned() const {
    sync::LockGuard l(mu_);
    return poisoned_;
  }

  /// The poison reason (default-constructed report if not poisoned).
  [[nodiscard]] fault::FaultReport fault() const {
    sync::LockGuard l(mu_);
    return fault_;
  }

 private:
  [[nodiscard]] std::size_t idx(int src, int dst) const noexcept {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }

  Result poisoned_result() const {
    return Result{ExchangeStatus::kPeerFailed, {}, fault_};
  }

  /// Caller holds mu_. The epoch advanced while this rank was inside its
  /// rendezvous: the round is void. Reported as kPeerFailed (the caller's
  /// run is over either way) with a self-describing reason; rank -1 keeps
  /// the report from being mistaken for a genuine peer diagnosis.
  Result stale_epoch_result(std::uint64_t entered) const {
    Result r;
    r.status = ExchangeStatus::kPeerFailed;
    r.fault.superstep = -1;
    r.fault.phase = "exchange";
    r.fault.kind = fault::FaultKind::kTransient;
    r.fault.what = "recovery epoch advanced mid-rendezvous (entered epoch " +
                   std::to_string(entered) + ", now " + std::to_string(epoch_) +
                   ")";
    return r;
  }

  /// Caller holds mu_. Names the likeliest dead rank so handle_peer_down can
  /// report a culprit: prefer a peer that never reached this rank's round (it
  /// is genuinely behind — probably dead), falling back to the first absent
  /// slot (a peer whose deposit was retracted after its own timeout looks
  /// absent but its round count proves it arrived).
  Result timeout_result(int rank) const {
    Result r;
    r.status = ExchangeStatus::kTimeout;
    const std::uint64_t my_round = round_[static_cast<std::size_t>(rank)];
    int first_absent = -1;
    for (int src = 0; src < n_; ++src) {
      if (src == rank) continue;
      if (!present_[idx(src, rank)]) {
        if (first_absent < 0) first_absent = src;
        if (round_[static_cast<std::size_t>(src)] < my_round) {
          r.fault.rank = src;
          return r;
        }
      }
    }
    if (first_absent >= 0) r.fault.rank = first_absent;
    return r;
  }

  int n_;
  mutable sync::Mutex mu_;
  sync::CondVar cv_;
  std::vector<T> slot_;                 // [src * n + dst]
  std::vector<std::uint8_t> present_;   // parallel to slot_
  std::vector<std::uint64_t> slot_epoch_;  // epoch each deposit was staged in
  std::vector<std::uint64_t> round_;    // deposits completed per epoch+rank
  std::uint64_t epoch_ = 0;             // recovery generation (guarded by mu_)
  bool poisoned_ = false;
  fault::FaultReport fault_;
};

}  // namespace phigraph::comm
