#include "parallel/parallel_sort.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/thread_pool.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

// Key plus original position: the position tag turns every equality check
// into a stability check (std::stable_sort on the key alone is the oracle).
struct Item {
  uint64_t key = 0;
  uint32_t pos = 0;
};

uint8_t ByteOf(const Item& item, unsigned b) {
  return static_cast<uint8_t>(item.key >> (8 * b));
}

std::vector<Item> Tagged(const std::vector<uint64_t>& keys) {
  std::vector<Item> items(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    items[i] = Item{keys[i], static_cast<uint32_t>(i)};
  }
  return items;
}

// Runs the radix sort (with `threads` pool workers; 0 = no pool) and
// asserts the result matches a stable sort of the same input — same key
// order AND same original-position order inside equal-key runs.
void ExpectStableSorted(const std::vector<uint64_t>& keys, size_t threads,
                        unsigned num_key_bytes = 8) {
  std::vector<Item> items = Tagged(keys);
  std::vector<Item> expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });
  std::vector<Item> scratch;
  if (threads == 0) {
    ParallelRadixSort(items, scratch, num_key_bytes, ByteOf, nullptr);
  } else {
    ThreadPool pool(threads);
    ParallelRadixSort(items, scratch, num_key_bytes, ByteOf, &pool);
  }
  ASSERT_EQ(items.size(), expected.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].key, expected[i].key) << "at index " << i;
    EXPECT_EQ(items[i].pos, expected[i].pos)
        << "stability broken at index " << i << " (key " << items[i].key
        << ")";
  }
}

TEST(ParallelSortTest, EmptyInput) {
  ExpectStableSorted({}, 0);
  ExpectStableSorted({}, 4);
}

TEST(ParallelSortTest, SingleElement) {
  ExpectStableSorted({42}, 0);
  ExpectStableSorted({42}, 4);
}

TEST(ParallelSortTest, AllEqualKeysSkipEveryPass) {
  // Every byte is constant, so the degenerate-pass skip fires 8 times and
  // the input must come back untouched (which is also the stable order).
  std::vector<uint64_t> keys(5000, 0xdeadbeefcafe1234ULL);
  ExpectStableSorted(keys, 0);
  ExpectStableSorted(keys, 4);
}

TEST(ParallelSortTest, MoreThreadsThanElements) {
  ExpectStableSorted({3, 1, 2}, 8);
  ExpectStableSorted({2, 2, 1}, 8);
}

TEST(ParallelSortTest, PreSortedInput) {
  std::vector<uint64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 3;
  ExpectStableSorted(keys, 0);
  ExpectStableSorted(keys, 4);
}

TEST(ParallelSortTest, ReverseSortedInput) {
  std::vector<uint64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = (keys.size() - i) * 7;
  ExpectStableSorted(keys, 0);
  ExpectStableSorted(keys, 4);
}

TEST(ParallelSortTest, RandomKeysWithHeavyDuplication) {
  // Few distinct keys over many elements: equal-key runs are long, so any
  // stability bug in the chunked scatter shows up immediately.
  Rng rng(1234);
  std::vector<uint64_t> keys(50000);
  for (uint64_t& k : keys) k = rng.Uniform(17);
  ExpectStableSorted(keys, 0);
  ExpectStableSorted(keys, 4);
}

TEST(ParallelSortTest, FullWidthRandomKeys) {
  Rng rng(99);
  std::vector<uint64_t> keys(20000);
  for (uint64_t& k : keys) k = rng.Next();
  ExpectStableSorted(keys, 0);
  ExpectStableSorted(keys, 4);
}

TEST(ParallelSortTest, SpillScaleStability) {
  // The out-of-core Phase I-1 leans on radix-sort stability at run sizes
  // of tens of thousands of records (core/external_phase1.cc). Exercise a
  // spill-relevant scale with a skewed key distribution: long equal-key
  // runs mixed with full-width outliers.
  Rng rng(4242);
  std::vector<uint64_t> keys(200000);
  for (uint64_t& k : keys) {
    k = rng.Uniform(10) == 0 ? rng.Next() : rng.Uniform(97);
  }
  ExpectStableSorted(keys, 4);
}

// Mirrors the external-sort spill/merge contract at the parallel_sort
// level: sort fixed-size chunks independently (the spill pass), then
// k-way merge with (key, chunk index) ordering (the merge sweep), and
// check the result is *identical* — keys and position tags — to one
// monolithic radix sort. Chunks carry ascending position ranges, so
// stability inside each chunk plus the chunk-index tie-break must
// reproduce the global stable order even when equal keys straddle chunk
// boundaries.
TEST(ParallelSortTest, ChunkedSortPlusMergeMatchesMonolithicSort) {
  Rng rng(777);
  const size_t n = 30000;
  const size_t chunk = 4096;  // last chunk is partial on purpose
  std::vector<uint64_t> keys(n);
  // Few distinct keys: every chunk boundary cuts through an equal-key run.
  for (uint64_t& k : keys) k = rng.Uniform(13);
  std::vector<Item> monolithic = Tagged(keys);
  std::vector<Item> scratch;
  ThreadPool pool(4);
  ParallelRadixSort(monolithic, scratch, 8, ByteOf, &pool);

  // Spill pass: independent stable sorts over chunks.
  std::vector<std::vector<Item>> runs;
  for (size_t first = 0; first < n; first += chunk) {
    const size_t count = std::min(chunk, n - first);
    std::vector<Item> run(count);
    for (size_t i = 0; i < count; ++i) {
      run[i] = Item{keys[first + i], static_cast<uint32_t>(first + i)};
    }
    ParallelRadixSort(run, scratch, 8, ByteOf, &pool);
    runs.push_back(std::move(run));
  }
  // Merge sweep: smallest (key, run index) first.
  std::vector<Item> merged;
  merged.reserve(n);
  std::vector<size_t> cursor(runs.size(), 0);
  while (merged.size() < n) {
    size_t best = runs.size();
    for (size_t r = 0; r < runs.size(); ++r) {
      if (cursor[r] == runs[r].size()) continue;
      if (best == runs.size() ||
          runs[r][cursor[r]].key < runs[best][cursor[best]].key) {
        best = r;
      }
    }
    merged.push_back(runs[best][cursor[best]++]);
  }
  ASSERT_EQ(merged.size(), monolithic.size());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(merged[i].key, monolithic[i].key) << "at index " << i;
    ASSERT_EQ(merged[i].pos, monolithic[i].pos)
        << "chunk-boundary stability broken at index " << i;
  }
}

TEST(ParallelSortTest, TruncatedKeyBytesSortOnlyLowBytes) {
  // num_key_bytes = 2 must order by the low 16 bits only — and remain
  // stable w.r.t. the high bits it never looks at.
  Rng rng(7);
  std::vector<uint64_t> raw(10000);
  for (uint64_t& k : raw) k = rng.Next();
  std::vector<Item> items = Tagged(raw);
  std::vector<Item> expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Item& a, const Item& b) {
                     return (a.key & 0xffff) < (b.key & 0xffff);
                   });
  std::vector<Item> scratch;
  ThreadPool pool(4);
  ParallelRadixSort(items, scratch, 2, ByteOf, &pool);
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].pos, expected[i].pos) << "at index " << i;
  }
}

// Phase II's row sort: the serial path (no pool) over uint32_t cell ids
// below a cell count n, keyed on RadixKeyBytes(n - 1) low bytes. The
// cell counts straddle each byte boundary. The second input of each
// (n, length) pair keeps byte 1 at 0 while the bytes around it vary, so
// that pass is skipped between two scattering ones.
TEST(ParallelSortTest, SerialCellIdRowsMatchStdSort) {
  EXPECT_EQ(RadixKeyBytes(0), 0u);
  EXPECT_EQ(RadixKeyBytes(255), 1u);
  EXPECT_EQ(RadixKeyBytes(256), 2u);
  EXPECT_EQ(RadixKeyBytes(65535), 2u);
  EXPECT_EQ(RadixKeyBytes(65536), 3u);
  EXPECT_EQ(RadixKeyBytes(uint64_t{1} << 24), 4u);
  EXPECT_EQ(RadixKeyBytes(~uint64_t{0}), 8u);

  Rng rng(2718);
  const uint64_t cell_counts[] = {1,     2,     256,
                                  257,   65536, 65537,
                                  (uint64_t{1} << 24) + 1};
  const size_t lengths[] = {0, 1, 2, 255, 256, 257, 5000};
  auto byte_of = [](uint32_t id, unsigned b) {
    return static_cast<uint8_t>(id >> (8 * b));
  };
  std::vector<uint32_t> ids;
  std::vector<uint32_t> scratch;
  for (const uint64_t n : cell_counts) {
    const unsigned key_bytes = RadixKeyBytes(n - 1);
    for (const size_t len : lengths) {
      for (const bool constant_middle : {false, true}) {
        SCOPED_TRACE("n " + std::to_string(n) + ", length " +
                     std::to_string(len) +
                     (constant_middle ? ", byte 1 constant" : ""));
        ids.resize(len);
        for (uint32_t& id : ids) {
          if (!constant_middle) {
            id = static_cast<uint32_t>(rng.Uniform(n));
            continue;
          }
          const uint64_t high = rng.Uniform((n - 1) / 65536 + 1) << 16;
          const uint64_t low = rng.Uniform(256);
          id = static_cast<uint32_t>(high + low < n ? high + low : high);
        }
        std::vector<uint32_t> expected = ids;
        std::sort(expected.begin(), expected.end());
        ParallelRadixSort(ids, scratch, key_bytes, byte_of, nullptr);
        ASSERT_EQ(ids, expected);
      }
    }
  }
}

}  // namespace
}  // namespace rpdbscan
