#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace rpdbscan {
namespace {

// Spins until `count` reaches `target`.
void AwaitCount(const std::atomic<size_t>& count, size_t target) {
  while (count.load() < target) std::this_thread::yield();
}

TEST(ThreadPoolTest, IdleWorkersRunEachClaimantOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(8);
  std::vector<std::thread::id> ran_on(8);
  std::atomic<size_t> started{0};
  auto body = [&](size_t c) {
    runs[c].fetch_add(1);
    ran_on[c] = std::this_thread::get_id();
    started.fetch_add(1);
    // Every claimant stays open until all four have started: the caller
    // takes none back, and no worker can run two.
    AwaitCount(started, 4);
  };
  pool.ForkJoin(8, body);  // capped at the pool's 4 threads
  for (size_t c = 0; c < 8; ++c) EXPECT_EQ(runs[c].load(), c < 4 ? 1 : 0);
  EXPECT_EQ(ran_on[0], caller);
  for (size_t c = 1; c < 4; ++c) {
    EXPECT_NE(ran_on[c], caller);
    for (size_t o = 1; o < c; ++o) EXPECT_NE(ran_on[c], ran_on[o]);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> runs(4, 0);
  auto body = [&](size_t c) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs[c];
  };
  pool.ForkJoin(4, body);
  EXPECT_EQ(runs, (std::vector<int>{1, 0, 0, 0}));
}

TEST(ThreadPoolTest, ReturnsOnlyAfterLongClaimantEnds) {
  ThreadPool pool(2);
  std::atomic<size_t> started{0};
  std::atomic<bool> done{false};
  auto body = [&](size_t c) {
    started.fetch_add(1);
    if (c == 0) {
      AwaitCount(started, 2);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.store(true);
  };
  pool.ForkJoin(2, body);
  EXPECT_TRUE(done.load());
}

TEST(ThreadPoolTest, UnstartedClaimantsAreTakenBack) {
  // The one worker is held inside another thread's loop, so the second
  // loop's claimant 1 cannot start: its caller runs claimant 0, takes
  // claimant 1 back and returns without waiting for the busy worker.
  ThreadPool pool(2);
  std::atomic<size_t> first_started{0};
  std::atomic<bool> release{false};
  auto first_body = [&](size_t c) {
    first_started.fetch_add(1);
    if (c == 0) {
      AwaitCount(first_started, 2);
      return;
    }
    while (!release.load()) std::this_thread::yield();
  };
  std::thread first([&] { pool.ForkJoin(2, first_body); });
  AwaitCount(first_started, 2);

  std::vector<int> runs(2, 0);
  auto second_body = [&](size_t c) { ++runs[c]; };
  pool.ForkJoin(2, second_body);
  EXPECT_EQ(runs, (std::vector<int>{1, 0}));

  release.store(true);
  first.join();
}

// Counts pool workers whose thread-local state was destroyed, i.e. that
// exited.
std::atomic<int> g_worker_exits{0};
struct ExitMark {
  bool armed = false;
  ~ExitMark() {
    if (armed) g_worker_exits.fetch_add(1);
  }
};
thread_local ExitMark t_exit_mark;

TEST(ThreadPoolTest, DestructorJoinsItsWorkers) {
  g_worker_exits.store(0);
  {
    ThreadPool pool(4);
    std::atomic<size_t> started{0};
    auto body = [&](size_t c) {
      if (c != 0) t_exit_mark.armed = true;
      started.fetch_add(1);
      AwaitCount(started, 4);  // one claimant on each worker
    };
    pool.ForkJoin(4, body);
    EXPECT_EQ(g_worker_exits.load(), 0);  // the workers stay parked
  }
  // Thread-local destructors run as a thread exits: every worker has
  // ended by the time the pool's destructor returns.
  EXPECT_EQ(g_worker_exits.load(), 3);
}

}  // namespace
}  // namespace rpdbscan
