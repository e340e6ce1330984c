// Cooperative mutex + condition variable for the model build.
//
// sync::Mutex / sync::CondVar resolve to these under PHIGRAPH_MODEL, so the
// monitor-based rendezvous code (AllToAll) runs under the model
// scheduler unchanged: lock/unlock are schedule points carrying the
// unlock->lock happens-before edge, waits block cooperatively, and *timed*
// waits time out exactly when model time advances — i.e. when no thread is
// runnable (see scheduler.hpp). Real wall-clock deadlines are ignored on
// model threads: model time is abstract, and because wait_until re-checks
// the predicate on timeout, a correct protocol returns the same result it
// would have produced with a real clock.
//
// Off a model thread both classes fall back to the plain std primitives, so
// a model build behaves like a default build everywhere except inside an
// exploration.
#pragma once

#include <condition_variable>
#include <mutex>

#include "src/model/scheduler.hpp"

namespace phigraph::model {

class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
    if (Scheduler::on_model_thread())
      Scheduler::instance().mutex_lock(state_);
    else
      real_.lock();
  }

  bool try_lock() {
    if (Scheduler::on_model_thread())
      return Scheduler::instance().mutex_try_lock(state_);
    return real_.try_lock();
  }

  void unlock() {
    if (Scheduler::on_model_thread())
      Scheduler::instance().mutex_unlock(state_);
    else
      real_.unlock();
  }

 private:
  std::mutex real_;
  MutexState state_;
};

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() {
    if (Scheduler::on_model_thread())
      Scheduler::instance().cv_notify(this, /*all=*/false);
    else
      real_.notify_one();
  }

  void notify_all() {
    if (Scheduler::on_model_thread())
      Scheduler::instance().cv_notify(this, /*all=*/true);
    else
      real_.notify_all();
  }

  template <typename Lock, typename Pred>
  void wait(Lock& l, Pred pred) {
    if (!Scheduler::on_model_thread()) {
      real_.wait(l, pred);
      return;
    }
    while (!pred()) wait_core(l, /*timed=*/false);
  }

  /// Predicate-looped timed wait (the only timed form the runtime uses).
  /// Returns pred() after a timeout, true otherwise — std semantics.
  template <typename Lock, typename TimePoint, typename Pred>
  bool wait_until(Lock& l, const TimePoint& until, Pred pred) {
    if (!Scheduler::on_model_thread()) return real_.wait_until(l, until, pred);
    while (!pred()) {
      if (wait_core(l, /*timed=*/true)) return pred();  // model timeout
    }
    return true;
  }

 private:
  /// One blocking round on a model thread: arm, release the caller's lock,
  /// park, re-acquire. Arming *before* the unlock closes the lost-wakeup
  /// window — a notify landing during the unlock's schedule point marks
  /// this thread notified and cv_block returns immediately. Returns true on
  /// a model timeout.
  template <typename Lock>
  bool wait_core(Lock& l, bool timed) {
    Scheduler& s = Scheduler::instance();
    s.cv_arm(this);
    l.unlock();
    const bool timed_out = s.cv_block(this, timed);
    l.lock();
    return timed_out;
  }

  std::condition_variable_any real_;
};

}  // namespace phigraph::model
