#ifndef RPDBSCAN_PARALLEL_PARALLEL_SORT_H_
#define RPDBSCAN_PARALLEL_PARALLEL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace rpdbscan {

/// The number of low key bytes that hold every key <= `max_key`: the
/// `num_key_bytes` that sorts keys bounded by it (0 when every key is 0).
inline unsigned RadixKeyBytes(uint64_t max_key) {
  unsigned bytes = 0;
  for (; max_key != 0; max_key >>= 8) ++bytes;
  return bytes;
}

/// Stable LSD radix sort of `items` by an integer key, 8 bits per pass,
/// parallelized over contiguous chunks of the input when a pool is given.
///
/// Each pass builds one 256-bucket histogram per chunk in parallel, turns
/// them into per-(bucket, chunk) start offsets with a single sequential
/// prefix scan (bucket-major, so chunk order inside a bucket preserves the
/// input order and the sort stays stable), then scatters in parallel: every
/// chunk owns a disjoint destination range per bucket. A pass whose byte is
/// constant over the whole input (common for the high key bytes) is
/// detected from the histograms and skipped outright.
///
/// `byte_of(item, b)` must return byte `b` (0 = least significant) of the
/// item's key and be safe to call concurrently. `num_key_bytes` bounds the
/// passes; `scratch` is resized to match and used as the ping-pong buffer.
/// The sorted sequence always ends up back in `items`.
template <typename Item, typename ByteOfFn>
void ParallelRadixSort(std::vector<Item>& items, std::vector<Item>& scratch,
                       unsigned num_key_bytes, ByteOfFn&& byte_of,
                       ThreadPool* pool) {
  const size_t n = items.size();
  if (n <= 1 || num_key_bytes == 0) return;
  scratch.resize(n);

  size_t num_chunks = 1;
  if (pool != nullptr && pool->num_threads() > 1 && n >= 4096) {
    num_chunks = pool->num_threads() * 4;
    if (num_chunks > n / 1024) num_chunks = n / 1024;
    if (num_chunks == 0) num_chunks = 1;
  }
  const size_t chunk_len = (n + num_chunks - 1) / num_chunks;

  // counts[c * 256 + v]: occurrences of byte value v inside chunk c.
  std::vector<uint64_t> counts(num_chunks * 256);

  Item* src = items.data();
  Item* dst = scratch.data();
  bool in_items = true;
  for (unsigned b = 0; b < num_key_bytes; ++b) {
    std::fill(counts.begin(), counts.end(), 0);
    auto count_chunk = [&](size_t c) {
      const size_t begin = c * chunk_len;
      const size_t end = begin + chunk_len < n ? begin + chunk_len : n;
      uint64_t* local = counts.data() + c * 256;
      for (size_t i = begin; i < end; ++i) ++local[byte_of(src[i], b)];
    };
    if (num_chunks == 1) {
      count_chunk(0);
    } else {
      ParallelFor(*pool, num_chunks, count_chunk, /*chunk=*/1);
    }

    // Bucket-major exclusive prefix: offsets[c * 256 + v] = start of chunk
    // c's run inside bucket v. Counts bucket occupancy on the way.
    uint64_t run = 0;
    size_t nonempty_buckets = 0;
    for (size_t v = 0; v < 256; ++v) {
      uint64_t bucket_total = 0;
      for (size_t c = 0; c < num_chunks; ++c) {
        bucket_total += counts[c * 256 + v];
      }
      if (bucket_total > 0) ++nonempty_buckets;
      for (size_t c = 0; c < num_chunks; ++c) {
        const uint64_t cnt = counts[c * 256 + v];
        counts[c * 256 + v] = run;
        run += cnt;
      }
    }
    if (nonempty_buckets <= 1) continue;  // byte cannot reorder anything

    auto scatter_chunk = [&](size_t c) {
      const size_t begin = c * chunk_len;
      const size_t end = begin + chunk_len < n ? begin + chunk_len : n;
      uint64_t* cursor = counts.data() + c * 256;
      for (size_t i = begin; i < end; ++i) {
        dst[cursor[byte_of(src[i], b)]++] = src[i];
      }
    };
    if (num_chunks == 1) {
      scatter_chunk(0);
    } else {
      ParallelFor(*pool, num_chunks, scatter_chunk, /*chunk=*/1);
    }
    Item* tmp = src;
    src = dst;
    dst = tmp;
    in_items = !in_items;
  }
  if (!in_items) items.swap(scratch);
}

}  // namespace rpdbscan

#endif  // RPDBSCAN_PARALLEL_PARALLEL_SORT_H_
