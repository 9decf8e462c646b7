// Tests for the fork-join thread pool behind Engine::EstimateBatch and the
// routing root fan-out. Build with -DPCDE_SANITIZE=address (or thread) to
// exercise the pool under a sanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace pcde {
namespace {

TEST(ThreadPoolTest, ParallelForCoversTheRange) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<uint64_t>> out(kN);
  for (auto& o : out) o.store(0);
  pool.ParallelFor(kN, [&out](size_t i) { out[i].fetch_add(i + 1); });
  uint64_t total = 0;
  for (auto& o : out) total += o.load();
  EXPECT_EQ(total, kN * (kN + 1) / 2);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsEveryItemOnTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  std::atomic<int> elsewhere{0};
  pool.ParallelFor(100, [&](size_t) {
    count.fetch_add(1);
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersShareOnePool) {
  // The serving::Engine pattern: multiple client threads issue
  // ParallelFor batches against one shared pool. Each call must complete
  // exactly its own items and return (group-scoped wait, not global
  // quiescence) without deadlock.
  ThreadPool pool(2);
  constexpr size_t kCallers = 4;
  constexpr size_t kItems = 400;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kItems, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      pool.ParallelFor(kItems, [&hits, c](size_t i) { hits[c][i] += 1; });
      // The group wait returned: this caller's items must all be done,
      // regardless of the other callers' in-flight work.
      for (size_t i = 0; i < kItems; ++i) {
        EXPECT_EQ(hits[c][i], 1) << "caller " << c << " item " << i;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(std::accumulate(hits[c].begin(), hits[c].end(), 0),
              static_cast<int>(kItems));
  }
}

TEST(ThreadPoolTest, ParallelForZeroItemsReturnsImmediately) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  // The pool is still fully usable afterwards — the degenerate call must
  // not leave a stuck group behind.
  pool.ParallelFor(10, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ParallelForSingleItemRunsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(1, [&ran_on](size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, ParallelForCancelledBeforeStartRunsNothing) {
  ThreadPool pool(2);
  CancelToken token;
  token.Cancel();
  std::atomic<int> count{0};
  // A tripped token drains the whole range without invoking fn — and the
  // call still returns.
  pool.ParallelFor(100, [&count](size_t) { count.fetch_add(1); }, &token);
  EXPECT_EQ(count.load(), 0);
  // Single-item inline path honours the token too.
  pool.ParallelFor(1, [&count](size_t) { count.fetch_add(1); }, &token);
  EXPECT_EQ(count.load(), 0);
  // A fresh (untripped) token changes nothing.
  CancelToken live;
  pool.ParallelFor(50, [&count](size_t) { count.fetch_add(1); }, &live);
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCancelMidGroupStopsAndReturns) {
  // Trip the token from inside the group: every item either ran before the
  // trip or was drained after it; the call returns without hanging, and
  // the pool stays usable.
  ThreadPool pool(3);
  CancelToken token;
  constexpr size_t kN = 10000;
  std::atomic<size_t> ran{0};
  pool.ParallelFor(
      kN,
      [&](size_t i) {
        if (i == 64) token.Cancel();
        ran.fetch_add(1);
      },
      &token);
  const size_t after_cancel = ran.load();
  EXPECT_GE(after_cancel, 1u);
  EXPECT_LE(after_cancel, kN);
  std::atomic<size_t> again{0};
  pool.ParallelFor(100, [&again](size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 100u);
}

TEST(ThreadPoolTest, ParallelForNullTokenMatchesPlainOverload) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(256, [&sum](size_t i) { sum.fetch_add(i); }, nullptr);
  EXPECT_EQ(sum.load(), 255u * 256u / 2u);
}

TEST(ThreadPoolTest, OneCallRunsOnAtMostNumThreadsIncludingTheCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::mutex mutex;
  std::set<std::thread::id> threads;
  pool.ParallelFor(64, [&](size_t) {
    const int now = running.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    running.fetch_sub(1);
  });
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 3);
  EXPECT_LE(threads.size(), 3u);
}

TEST(ThreadPoolTest, NestedParallelForOnTheSamePoolCompletes) {
  // An item may fan out on the pool it runs on: the inner call's caller
  // runs its own items, so it completes even with every worker busy in
  // the outer call.
  ThreadPool pool(3);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::atomic<int>> inner_done(kOuter);
  for (auto& d : inner_done) d.store(0);
  pool.ParallelFor(kOuter, [&](size_t i) {
    pool.ParallelFor(kInner, [&inner_done, i](size_t) {
      inner_done[i].fetch_add(1);
    });
    // The inner call returned: all of its items are done.
    EXPECT_EQ(inner_done[i].load(), static_cast<int>(kInner)) << i;
  });
  for (size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(inner_done[i].load(), static_cast<int>(kInner)) << i;
  }
}

TEST(ThreadPoolTest, CallersRunOnlyTheirOwnItems) {
  // Two clients share a ThreadPool(2) for about half a second, one looping
  // 200-item calls and the other 2-item calls. A worker may help either,
  // but no item of one caller may run on the other caller's thread.
  ThreadPool pool(2);
  std::atomic<bool> stop{false};
  std::atomic<std::thread::id> big_id{};
  std::atomic<std::thread::id> small_id{};
  std::atomic<int> big_on_small{0};
  std::atomic<int> small_on_big{0};
  std::atomic<int> big_calls{0};
  std::atomic<int> small_calls{0};
  std::thread big([&] {
    big_id.store(std::this_thread::get_id());
    while (!stop.load()) {
      pool.ParallelFor(200, [&](size_t) {
        if (std::this_thread::get_id() == small_id.load()) {
          big_on_small.fetch_add(1);
        }
      });
      big_calls.fetch_add(1);
    }
  });
  std::thread small([&] {
    small_id.store(std::this_thread::get_id());
    while (!stop.load()) {
      pool.ParallelFor(2, [&](size_t) {
        if (std::this_thread::get_id() == big_id.load()) {
          small_on_big.fetch_add(1);
        }
      });
      small_calls.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  big.join();
  small.join();
  EXPECT_GT(big_calls.load(), 0);
  EXPECT_GT(small_calls.load(), 0);
  EXPECT_EQ(big_on_small.load(), 0);
  EXPECT_EQ(small_on_big.load(), 0);
}

}  // namespace
}  // namespace pcde
