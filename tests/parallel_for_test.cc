#include "parallel/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace rpdbscan {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(pool, 0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleElement) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  ParallelFor(pool, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  ParallelFor(pool, 5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  const std::vector<int> expect = {0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect);  // inline path preserves order
}

TEST(ParallelForTest, SumMatchesSerial) {
  ThreadPool pool(3);
  const size_t n = 10000;
  std::atomic<long long> sum{0};
  ParallelFor(pool, n, [&](size_t i) {
    sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n * (n - 1) / 2));
}

TEST(ParallelForTest, ExplicitChunkSize) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(97);
  ParallelFor(pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); },
              /*chunk=*/5);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ConcurrentCallersWaitOnlyForTheirOwnLoops) {
  // The first thread's loop body blocks until the second thread's loop on
  // the same pool has returned. The second loop must not wait on the
  // first's blocked claimants, even when they hold every worker.
  ThreadPool pool(4);
  std::atomic<bool> first_running{false};
  std::atomic<bool> second_returned{false};
  std::vector<std::atomic<int>> first_hits(8);
  std::thread first([&] {
    ParallelFor(
        pool, first_hits.size(),
        [&](size_t i) {
          first_running.store(true);
          while (!second_returned.load()) std::this_thread::yield();
          first_hits[i].fetch_add(1);
        },
        /*chunk=*/1);
  });
  while (!first_running.load()) std::this_thread::yield();
  std::vector<int> second_hits(1000, 0);
  ParallelFor(pool, second_hits.size(), [&](size_t i) { ++second_hits[i]; });
  second_returned.store(true);
  first.join();
  for (const int h : second_hits) EXPECT_EQ(h, 1);
  for (const auto& h : first_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedLoopsOnOnePool) {
  ThreadPool pool(3);
  constexpr size_t kOuter = 8, kInner = 100;
  std::vector<int> hits(kOuter * kInner, 0);
  ParallelFor(
      pool, kOuter,
      [&](size_t o) {
        ParallelFor(pool, kInner, [&](size_t i) { ++hits[o * kInner + i]; });
      },
      /*chunk=*/1);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, WorkerIndicesAreDistinctAndIncludeTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::mutex mu;
  std::map<size_t, std::set<std::thread::id>> threads_of_worker;
  std::map<std::thread::id, std::set<size_t>> workers_of_thread;
  const size_t claimants = ParallelForWorkers(
      pool, 64,
      [&](size_t worker, size_t) {
        const std::thread::id self = std::this_thread::get_id();
        if (self == caller) caller_ran.store(true);
        // No iteration ends before the caller has taken one, so the
        // workers cannot drain the loop first.
        while (!caller_ran.load()) std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mu);
        threads_of_worker[worker].insert(self);
        workers_of_thread[self].insert(worker);
      },
      /*chunk=*/1);
  EXPECT_GE(claimants, 1u);
  EXPECT_LE(claimants, pool.num_threads());
  for (const auto& [worker, threads] : threads_of_worker) {
    EXPECT_LT(worker, claimants);
    EXPECT_EQ(threads.size(), 1u) << "worker " << worker;
  }
  for (const auto& [thread, workers] : workers_of_thread) {
    EXPECT_EQ(workers.size(), 1u);
  }
  ASSERT_EQ(workers_of_thread.count(caller), 1u);
  EXPECT_EQ(*workers_of_thread[caller].begin(), 0u);
}

TEST(ParallelForTest, BackToBackTinyLoopsRunEveryIndexOnce) {
  // Loops of 1-8 one-microsecond chunks end about when a parked worker
  // wakes, so some are helped and the workers waking for others race
  // their callers' take-back.
  ThreadPool pool(4);
  std::vector<int> hits(8);
  std::vector<size_t> per_worker(4);
  for (size_t round = 0; round < 4000; ++round) {
    const size_t n = 1 + round % 8;
    std::fill(hits.begin(), hits.end(), 0);
    std::fill(per_worker.begin(), per_worker.end(), 0);
    const size_t claimants = ParallelForWorkers(
        pool, n,
        [&](size_t worker, size_t i) {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(1);
          while (std::chrono::steady_clock::now() < until) {
          }
          ++hits[i];
          ++per_worker[worker];
        },
        /*chunk=*/1);
    ASSERT_EQ(claimants, std::min<size_t>(n, 4)) << "round " << round;
    size_t total = 0;
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], i < n ? 1 : 0) << "round " << round << " i " << i;
    }
    for (const size_t c : per_worker) total += c;
    ASSERT_EQ(total, n) << "round " << round;
  }
}

}  // namespace
}  // namespace rpdbscan
