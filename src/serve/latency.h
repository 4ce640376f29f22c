#ifndef RPDBSCAN_SERVE_LATENCY_H_
#define RPDBSCAN_SERVE_LATENCY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace rpdbscan {

/// Percentile digest of a latency sample set, in microseconds.
/// Percentiles are nearest-rank over the sorted samples (p(q) =
/// sorted[ceil(q * n) - 1]), the conservative convention: a reported
/// p99 is an actually-observed latency, never an interpolation.
struct LatencySummary {
  uint64_t samples = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
};

/// What a LatencySummary measured, which names its keys in
/// ServeStatsToJson.
enum class LatencyKind : uint8_t {
  /// A request loop's sojourn per request: response written minus frame
  /// admitted (latency_*).
  kSojourn,
  /// A one-shot batch's completion offsets: each query's completion time
  /// minus the batch's admission instant (completion_*). In a batch of
  /// many queries this grows with the query's place in the batch, so it
  /// is not a per-query latency.
  kCompletion,
};

/// Per-worker latency sample store for the serving batch paths: each
/// worker of a classification batch owns one instance (no sharing, no
/// synchronization on the hot path), stamped from one monotonic clock
/// epoch, and the per-worker stores are merged after the barrier.
///
/// Below `capacity` every sample is kept, so merged percentiles are
/// exact. Past it the store degrades to Vitter's Algorithm R reservoir
/// (uniform without replacement, deterministic for a given seed and add
/// sequence). The default capacity is set above every batch this
/// repository times, so overflow — and the mild non-uniformity of
/// concatenating two overflowed reservoirs in Merge — only matters for
/// callers streaming unbounded request counts, who get a uniform-ish
/// long-run sample instead of unbounded memory.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(size_t capacity = size_t{1} << 16,
                            uint64_t seed = 1)
      : capacity_(capacity == 0 ? 1 : capacity), rng_(Mix64(seed)) {}

  /// Records one latency observation in nanoseconds.
  void Add(uint64_t ns) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(ns);
      return;
    }
    const uint64_t j = rng_.Uniform(seen_);
    if (j < capacity_) samples_[static_cast<size_t>(j)] = ns;
  }

  /// Folds another reservoir's samples in (the post-barrier merge of the
  /// per-worker stores). Exact whenever neither side overflowed; the
  /// merged store keeps at most its own capacity.
  void Merge(const LatencyReservoir& o) {
    for (const uint64_t ns : o.samples_) {
      ++seen_;
      if (samples_.size() < capacity_) {
        samples_.push_back(ns);
        continue;
      }
      const uint64_t j = rng_.Uniform(seen_);
      if (j < capacity_) samples_[static_cast<size_t>(j)] = ns;
    }
    seen_ += o.seen_ - o.samples_.size();
  }

  uint64_t seen() const { return seen_; }
  bool empty() const { return samples_.empty(); }
  void Clear() {
    samples_.clear();
    seen_ = 0;
  }

  /// Sorts a copy of the samples and reads the nearest-rank percentiles.
  LatencySummary Summarize() const {
    LatencySummary s;
    if (samples_.empty()) return s;
    std::vector<uint64_t> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    auto rank = [&](double q) {
      size_t r = static_cast<size_t>(q * static_cast<double>(n) + 0.999999);
      if (r == 0) r = 1;
      if (r > n) r = n;
      return sorted[r - 1];
    };
    s.samples = seen_;
    s.p50_us = static_cast<double>(rank(0.50)) * 1e-3;
    s.p99_us = static_cast<double>(rank(0.99)) * 1e-3;
    s.p999_us = static_cast<double>(rank(0.999)) * 1e-3;
    s.max_us = static_cast<double>(sorted[n - 1]) * 1e-3;
    return s;
  }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  std::vector<uint64_t> samples_;
  Rng rng_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_SERVE_LATENCY_H_
