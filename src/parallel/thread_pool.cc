#include "parallel/thread_pool.h"

namespace rpdbscan {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads - 1);
  for (size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Run(Job& job) {
  if (job.end <= 1) {
    job.invoke(job.body, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job.next_open = open_;
    open_ = &job;
  }
  const size_t helpers = job.end - 1;
  if (helpers >= workers_.size()) {
    work_.notify_all();
  } else {
    for (size_t i = 0; i < helpers; ++i) work_.notify_one();
  }
  try {
    job.invoke(job.body, 0);
  } catch (...) {
    Join(job);  // the started claimants still read the caller's frame
    throw;
  }
  Join(job);
}

void ThreadPool::Join(Job& job) {
  std::unique_lock<std::mutex> lock(mu_);
  if (job.next < job.end) {
    // Still listed: unlist it, so no worker starts another claimant.
    Job** link = &open_;
    while (*link != &job) link = &(*link)->next_open;
    *link = job.next_open;
    job.next = job.end;
  }
  job.joined.wait(lock, [&job] { return job.running == 0; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_.wait(lock, [this] { return stopping_ || open_ != nullptr; });
    if (open_ == nullptr) return;  // stopping_, and no loop is open
    Job& job = *open_;
    const size_t claimant = job.next++;
    if (job.next == job.end) open_ = job.next_open;
    ++job.running;
    lock.unlock();
    job.invoke(job.body, claimant);
    lock.lock();
    // Under mu_: the caller cannot see running == 0, return and end the
    // job's lifetime before this worker releases mu_ again.
    if (--job.running == 0) job.joined.notify_one();
  }
}

}  // namespace rpdbscan
