// A small fork-join thread pool for serving::Engine's batch fan-out and the
// routing root fan-out. ParallelFor is the only entry point: the calling
// thread runs items of its own call, up to num_threads() - 1 workers join
// it, and a caller never runs another call's items — so concurrent callers
// sharing one pool cannot stall each other. Items must not throw (the
// codebase is Status-based); an item may itself call ParallelFor on the
// same pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cancel_token.h"

namespace pcde {

class ThreadPool {
 public:
  /// `num_threads` counts the calling thread: ThreadPool(n) starts n - 1
  /// workers, so ThreadPool(1) runs every item on the caller. 0 picks the
  /// hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0) {
    size_t n = num_threads != 0 ? num_threads
                                : static_cast<size_t>(
                                      std::thread::hardware_concurrency());
    if (n == 0) n = 1;
    num_threads_ = n;
    workers_.reserve(n - 1);
    for (size_t i = 1; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  size_t num_threads() const { return num_threads_; }

  /// Runs fn(i) for i in [0, n) and returns once every item has finished.
  /// One call's items run on at most num_threads() threads at once: the
  /// caller plus the workers that join it while items remain. Items are
  /// claimed through one atomic cursor, so a call costs one queue push and
  /// one wakeup, not one per item.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn) {
    ParallelFor(n, std::forward<Fn>(fn), nullptr);
  }

  /// Cancellable variant: once `cancel` trips, the remaining items are
  /// drained, not run, and the call returns as soon as the items already
  /// started finish (cancellation is cooperative); the caller decides per
  /// item whether it ran (e.g. by writing a result slot in fn).
  /// `cancel == nullptr` is exactly the plain overload. n == 0 returns
  /// immediately and touches nothing; n == 1 runs inline.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn, const CancelToken* cancel) {
    if (n == 0) return;
    if (n == 1 || workers_.empty()) {
      for (size_t i = 0; i < n && !CancelToken::Check(cancel); ++i) fn(i);
      return;
    }
    using Callable = std::remove_reference_t<Fn>;
    Group group;
    group.fn = const_cast<void*>(
        static_cast<const void*>(std::addressof(fn)));
    group.run = [](void* f, size_t i) { (*static_cast<Callable*>(f))(i); };
    group.n = n;
    group.cancel = cancel;
    // Read only through this copy once the group is queued: joining
    // workers decrement open_slots under mutex_.
    const size_t helpers_wanted = std::min(n, num_threads_) - 1;
    group.open_slots = helpers_wanted;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&group);
    }
    if (helpers_wanted == 1) {
      wake_.notify_one();
    } else {
      wake_.notify_all();
    }
    RunItems(&group);
    // Every item is claimed (or drained): close the group to new helpers,
    // then wait out the ones still finishing an item. The group lives on
    // this frame, so no helper may touch it after the wait returns.
    std::unique_lock<std::mutex> lock(mutex_);
    if (group.open_slots > 0) {
      open_.erase(std::find(open_.begin(), open_.end(), &group));
    }
    group.done.wait(lock, [&group] { return group.helpers == 0; });
  }

 private:
  /// One in-flight ParallelFor call, owned by the caller's frame.
  struct Group {
    void (*run)(void* fn, size_t i) = nullptr;
    void* fn = nullptr;
    size_t n = 0;
    const CancelToken* cancel = nullptr;
    std::atomic<size_t> cursor{0};
    // Guarded by mutex_: helpers that may still join (the group is queued
    // in open_ exactly while this is nonzero), helpers inside RunItems,
    // and the caller's wait for the latter to reach zero.
    size_t open_slots = 0;
    size_t helpers = 0;
    std::condition_variable done;
  };

  static void RunItems(Group* group) {
    for (size_t i = group->cursor.fetch_add(1, std::memory_order_relaxed);
         i < group->n;
         i = group->cursor.fetch_add(1, std::memory_order_relaxed)) {
      if (CancelToken::Check(group->cancel)) return;
      group->run(group->fn, i);
    }
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stopping_ || !open_.empty(); });
      if (stopping_) return;
      Group* group = open_.front();
      if (--group->open_slots == 0) open_.pop_front();
      ++group->helpers;
      lock.unlock();
      RunItems(group);
      lock.lock();
      if (--group->helpers == 0) group->done.notify_one();
    }
  }

  size_t num_threads_ = 1;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Group*> open_;  // guarded by mutex_: calls taking helpers
  bool stopping_ = false;    // guarded by mutex_
  std::vector<std::thread> workers_;  // last: the workers use the above
};

}  // namespace pcde
