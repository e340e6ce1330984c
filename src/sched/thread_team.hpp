// Persistent thread team.
//
// The engine executes many supersteps, each with several parallel phases;
// spawning threads per phase would swamp the runtime. A ThreadTeam of T slots
// keeps T - 1 worker threads parked on a condition variable; each run() call
// executes slot 0 on the calling thread and wakes the workers for the rest
// (fork/join, like an OpenMP parallel region, whose master is thread 0). A
// 1-slot team starts no thread and calls the job inline.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/audit.hpp"
#include "src/common/expect.hpp"
#include "src/common/sync.hpp"

namespace phigraph::sched {

class ThreadTeam {
 public:
  /// Creates `size - 1` worker threads, parked until the first run(); the
  /// caller of run() is the remaining slot.
  explicit ThreadTeam(int size);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(threads_.size()) + 1;
  }

  /// Runs job(slot) for every slot in [0, size()): slot 0 on the calling
  /// thread, the others on the workers. Returns once every slot has
  /// returned; if any slot threw, rethrows the first exception caught, on
  /// the calling thread and only after that join.
  /// Not reentrant: one run() at a time per team.
  void run(const std::function<void(int)>& job);

  /// Forgets the orchestrator binding (checked build only, no-op otherwise):
  /// a recovery epoch may legally resume this engine from a different
  /// driving thread, and the next run() re-binds to it.
  void rebind_orchestrator() noexcept {
#if PG_AUDIT_ENABLED
    orchestrator_.rebind();
#endif
  }

 private:
  void worker_loop(int slot);
  /// Runs one slot, keeping the first exception any slot of this run throws.
  void run_slot(const std::function<void(int)>& job, int slot) noexcept;

  std::vector<std::thread> threads_;  // slots 1 .. size() - 1
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;   // bumped per run()
  int remaining_ = 0;         // workers still executing the current job
  bool shutdown_ = false;
  std::exception_ptr error_;  // first exception of the current run()
  sync::Atomic<bool> running_{false};  // a run() is in progress
#if PG_AUDIT_ENABLED
  // Checked build only: the fork/join model has one orchestrator — the first
  // run() binds it, later run() calls from other threads abort.
  audit::ThreadAffinity orchestrator_;
#endif
};

inline ThreadTeam::ThreadTeam(int size) {
  PG_CHECK(size >= 1);
  threads_.reserve(static_cast<std::size_t>(size) - 1);
  for (int slot = 1; slot < size; ++slot)
    threads_.emplace_back([this, slot] { worker_loop(slot); });
}

inline ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard<std::mutex> g(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

inline void ThreadTeam::run(const std::function<void(int)>& job) {
  PG_AUDIT_AFFINITY(orchestrator_, "thread-team-orchestrator",
                    "ThreadTeam::run");
  PG_CHECK_MSG(!running_.exchange(true, sync::acquire),
               "ThreadTeam::run is not reentrant");
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> g(mu_);
      job_ = &job;
      remaining_ = static_cast<int>(threads_.size());
      ++epoch_;
    }
    cv_start_.notify_all();
  }
  run_slot(job, 0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> g(mu_);
    cv_done_.wait(g, [this] { return remaining_ == 0; });
    job_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  running_.store(false, sync::release);
  if (error) std::rethrow_exception(error);
}

inline void ThreadTeam::run_slot(const std::function<void(int)>& job,
                                 int slot) noexcept {
  try {
    job(slot);
  } catch (...) {
    std::lock_guard<std::mutex> g(mu_);
    if (!error_) error_ = std::current_exception();
  }
}

inline void ThreadTeam::worker_loop(int slot) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> g(mu_);
      cv_start_.wait(
          g, [&] { return shutdown_ || (job_ != nullptr && epoch_ != seen_epoch); });
      if (shutdown_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    run_slot(*job, slot);
    {
      std::lock_guard<std::mutex> g(mu_);
      if (--remaining_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace phigraph::sched
