#ifndef RPDBSCAN_PARALLEL_PARALLEL_FOR_H_
#define RPDBSCAN_PARALLEL_PARALLEL_FOR_H_

#include <atomic>
#include <cstddef>

#include "parallel/thread_pool.h"

namespace rpdbscan {

/// Runs `fn(i)` for every i in [0, n) on `pool`, blocking until all
/// iterations complete. Work is handed out in dynamic chunks through a
/// shared atomic cursor, so iterations with skewed costs still balance.
///
/// `fn` must be safe to invoke concurrently from multiple threads.
template <typename Fn>
void ParallelFor(ThreadPool& pool, size_t n, Fn&& fn, size_t chunk = 0) {
  if (n == 0) return;
  if (pool.num_threads() == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (chunk == 0) {
    chunk = n / (pool.num_threads() * 8);
    if (chunk == 0) chunk = 1;
  }
  std::atomic<size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const size_t begin = cursor.fetch_add(chunk);
      if (begin >= n) return;
      const size_t end = begin + chunk < n ? begin + chunk : n;
      for (size_t i = begin; i < end; ++i) fn(i);
    }
  };
  // Submit one claimant per pool thread; each pulls chunks until drained.
  for (size_t t = 0; t < pool.num_threads(); ++t) pool.Submit(worker);
  pool.Wait();
}

/// ParallelFor with a stable worker identity: runs `fn(worker, i)` where
/// `worker` indexes the claimant task that pulled iteration `i`. Each
/// claimant is one task execution, so state indexed by `worker` (scratch
/// buffers, stat accumulators) is only ever touched by one thread at a
/// time and needs no synchronization — the read-path pattern of the label
/// server's batched API. Returns the number of claimants used (at most
/// pool.num_threads(); 1 on the sequential fallback), i.e. how many
/// worker slots `fn` may have seen.
///
/// `max_claimants` (0 = no cap) bounds how many claimant tasks are
/// submitted. A CPU-bound caller on a pool wider than the machine can cap
/// at hardware_concurrency: claimants beyond the core count cannot add
/// throughput — they only time-slice one another and shred each other's
/// cache residency (on a 1-vCPU host, serving throughput fell as the pool
/// grew).
template <typename Fn>
size_t ParallelForWorkers(ThreadPool& pool, size_t n, Fn&& fn,
                          size_t chunk = 0, size_t max_claimants = 0) {
  if (n == 0) return 0;
  size_t claimants = pool.num_threads();
  if (max_claimants > 0 && max_claimants < claimants) {
    claimants = max_claimants;
  }
  if (claimants <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(size_t{0}, i);
    return 1;
  }
  if (chunk == 0) {
    chunk = n / (claimants * 8);
    if (chunk == 0) chunk = 1;
  }
  std::atomic<size_t> cursor{0};
  for (size_t t = 0; t < claimants; ++t) {
    pool.Submit([&cursor, &fn, n, chunk, t] {
      for (;;) {
        const size_t begin = cursor.fetch_add(chunk);
        if (begin >= n) return;
        const size_t end = begin + chunk < n ? begin + chunk : n;
        for (size_t i = begin; i < end; ++i) fn(t, i);
      }
    });
  }
  pool.Wait();
  return claimants;
}

}  // namespace rpdbscan

#endif  // RPDBSCAN_PARALLEL_PARALLEL_FOR_H_
