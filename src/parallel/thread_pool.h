#ifndef RPDBSCAN_PARALLEL_THREAD_POOL_H_
#define RPDBSCAN_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace rpdbscan {

/// A fork-join pool: `ThreadPool(n)` is n-way parallelism, the calling
/// thread plus n - 1 workers spawned by the constructor (they start under
/// the constructing thread's CPU mask).
///
/// This is the execution substrate that stands in for the Spark executor
/// fleet in the paper's evaluation, and its one primitive is ForkJoin:
/// the caller runs claimant 0 of a loop, idle workers start the others,
/// and once the caller's own claimant returns it takes back every
/// claimant no worker has started and waits only for the started ones.
/// Several threads may share one pool, and a claimant may fork-join
/// again, without one loop ever waiting on another's claimants. A loop
/// allocates nothing: its state lives in the caller's frame.
///
/// Thread-safe. Destroy the pool only when no ForkJoin is running on it.
class ThreadPool {
 public:
  /// Spawns `num_threads` - 1 workers; 0 is taken as 1 (no workers, every
  /// loop runs on its caller).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers.
  ~ThreadPool();

  /// Runs `body(0)` on the calling thread, and `body(c)` for each other
  /// claimant c below min(claimants, num_threads()) at most once, on a
  /// worker that is free before body(0) returns. Claimants no worker has
  /// started when body(0) returns are never run, so body(0) must be able
  /// to finish the loop's work alone, and a claimant should return once
  /// no work is left. Returns when every started claimant has returned:
  /// their writes happen before the return, and no worker touches the
  /// call's state after it.
  template <typename Body>
  void ForkJoin(size_t claimants, Body& body) {
    Job job(&Invoke<Body>, &body,
            claimants < num_threads() ? claimants : num_threads());
    Run(job);
  }

  size_t num_threads() const { return workers_.size() + 1; }

 private:
  /// One ForkJoin call, on its caller's stack. Listed in open_ while it
  /// has claimants no worker has started and the caller has not taken
  /// back.
  struct Job {
    Job(void (*invoke_fn)(void*, size_t), void* body_ptr, size_t claimants)
        : invoke(invoke_fn), body(body_ptr), end(claimants) {}
    void (*invoke)(void*, size_t);
    void* body;
    size_t end;          // claimants are [0, end)
    size_t next = 1;     // next claimant a worker may start (mu_)
    size_t running = 0;  // claimants workers started, not yet returned (mu_)
    Job* next_open = nullptr;  // open_ list link (mu_)
    std::condition_variable joined;  // running fell to 0
  };

  template <typename Body>
  static void Invoke(void* body, size_t claimant) {
    (*static_cast<Body*>(body))(claimant);
  }

  void Run(Job& job);
  /// Takes back `job`'s unstarted claimants and waits for its started
  /// ones.
  void Join(Job& job);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_;  // a job was listed, or stopping_ set
  Job* open_ = nullptr;           // newest first (mu_)
  bool stopping_ = false;         // (mu_)
  std::vector<std::thread> workers_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_PARALLEL_THREAD_POOL_H_
