#ifndef RPDBSCAN_PARALLEL_PARALLEL_FOR_H_
#define RPDBSCAN_PARALLEL_PARALLEL_FOR_H_

#include <atomic>
#include <cstddef>

#include "parallel/thread_pool.h"

namespace rpdbscan {

/// ParallelFor with a stable worker identity: runs `fn(worker, i)` for
/// every i in [0, n) on `pool`, blocking until all iterations complete.
/// Work is handed out in dynamic chunks of `chunk` iterations (0 = about
/// eight chunks per claimant) through the loop's own atomic cursor, so
/// iterations with skewed costs still balance. `worker` indexes the
/// fork-join claimant that pulled iteration `i`; the calling thread is
/// claimant 0, and each claimant runs on one thread, so state indexed by
/// `worker` (scratch buffers, stat accumulators) is only ever touched by
/// one thread at a time and needs no synchronization — the read-path
/// pattern of the label server's batched API. Returns the number of
/// claimants (at most pool.num_threads() and the chunk count; 1 when the
/// loop runs inline on the caller), i.e. how many worker slots `fn` may
/// have seen.
///
/// `max_claimants` (0 = no cap) bounds the claimants. A CPU-bound caller
/// on a pool wider than the machine can cap at hardware_concurrency:
/// claimants beyond the core count cannot add throughput — they only
/// time-slice one another and shred each other's cache residency (on a
/// 1-vCPU host, serving throughput fell as the pool grew).
///
/// `fn` must be safe to invoke concurrently from multiple threads.
template <typename Fn>
size_t ParallelForWorkers(ThreadPool& pool, size_t n, Fn&& fn,
                          size_t chunk = 0, size_t max_claimants = 0) {
  if (n == 0) return 0;
  size_t claimants = pool.num_threads();
  if (max_claimants > 0 && max_claimants < claimants) {
    claimants = max_claimants;
  }
  if (chunk == 0) {
    chunk = n / (claimants * 8);
    if (chunk == 0) chunk = 1;
  }
  const size_t num_chunks = (n - 1) / chunk + 1;
  if (num_chunks < claimants) claimants = num_chunks;
  if (claimants <= 1) {
    for (size_t i = 0; i < n; ++i) fn(size_t{0}, i);
    return 1;
  }
  std::atomic<size_t> cursor{0};
  auto claimant = [&](size_t worker) {
    for (;;) {
      const size_t begin = cursor.fetch_add(chunk);
      if (begin >= n) return;
      const size_t end = n - begin > chunk ? begin + chunk : n;
      for (size_t i = begin; i < end; ++i) fn(worker, i);
    }
  };
  pool.ForkJoin(claimants, claimant);
  return claimants;
}

/// Runs `fn(i)` for every i in [0, n) on `pool`, blocking until all
/// iterations complete: ParallelForWorkers without the worker index.
template <typename Fn>
void ParallelFor(ThreadPool& pool, size_t n, Fn&& fn, size_t chunk = 0) {
  ParallelForWorkers(
      pool, n, [&fn](size_t, size_t i) { fn(i); }, chunk);
}

}  // namespace rpdbscan

#endif  // RPDBSCAN_PARALLEL_PARALLEL_FOR_H_
