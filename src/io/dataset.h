#ifndef RPDBSCAN_IO_DATASET_H_
#define RPDBSCAN_IO_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/status.h"

namespace rpdbscan {

/// An in-memory point set: `size()` points of `dim()` float32 coordinates,
/// stored row-major in one flat buffer (the paper's data sets are all float
/// typed, Table 3). Dimensionality is a runtime property because the
/// evaluation spans 2-d (OpenStreetMap) through 13-d (TeraClickLog) data.
///
/// Copyable and movable; copying copies the buffer.
///
/// A Dataset can also *borrow* an external row-major buffer (see
/// Borrowed()): the out-of-core path hands the unchanged pipeline a
/// zero-copy view of a memory-mapped file payload this way. A borrowed
/// view owns nothing — the backing storage must outlive it — and is
/// read-only (Append/mutable_point are owning-storage operations).
class Dataset {
 public:
  /// Creates an empty data set of dimension `dim` (>= 1).
  explicit Dataset(size_t dim) : dim_(dim == 0 ? 1 : dim) {}

  /// Wraps an existing flat buffer. Fails if `coords.size()` is not a
  /// multiple of `dim` or `dim` is zero.
  static StatusOr<Dataset> FromFlat(size_t dim, std::vector<float> coords);

  /// A non-owning view of `count` row-major points at `data`. The buffer
  /// must stay alive and unchanged for the lifetime of the view (and of
  /// any copy of it).
  static Dataset Borrowed(size_t dim, const float* data, size_t count) {
    Dataset ds(dim);
    ds.borrowed_ = data;
    ds.borrowed_count_ = count;
    return ds;
  }

  size_t dim() const { return dim_; }
  size_t size() const {
    return borrowed_ != nullptr ? borrowed_count_ : coords_.size() / dim_;
  }
  bool empty() const { return size() == 0; }
  /// True when this view does not own its storage (see Borrowed()).
  bool borrowed() const { return borrowed_ != nullptr; }

  /// Pointer to the `i`-th point's `dim()` coordinates. `i < size()`.
  const float* point(size_t i) const { return raw() + i * dim_; }
  /// Owning storage only; a borrowed view is read-only.
  float* mutable_point(size_t i) { return coords_.data() + i * dim_; }

  /// Base of the row-major coordinate buffer (owning or borrowed) —
  /// size() * dim() floats. Prefer this over flat() in code that must
  /// also accept borrowed views.
  const float* raw() const {
    return borrowed_ != nullptr ? borrowed_ : coords_.data();
  }

  /// Appends one point given `dim()` coordinates. Owning storage only.
  void Append(const float* p) { coords_.insert(coords_.end(), p, p + dim_); }
  void Append(std::initializer_list<float> p);

  /// Reserves room for `n` points.
  void Reserve(size_t n) { coords_.reserve(n * dim_); }

  /// Drops points [n, size()) (`n <= size()`). Owning storage only.
  void Truncate(size_t n) { coords_.resize(n * dim_); }

  /// The owned flat buffer. Empty for a borrowed view — use raw()/size()
  /// in code that must handle both backings.
  const std::vector<float>& flat() const { return coords_; }

  /// Size of the raw coordinate payload in bytes (used as the denominator
  /// when reporting dictionary size as a fraction of the data, Table 5).
  size_t PayloadBytes() const { return size() * dim_ * sizeof(float); }

 private:
  size_t dim_;
  std::vector<float> coords_;
  /// Non-null iff this is a borrowed view (then coords_ stays empty).
  const float* borrowed_ = nullptr;
  size_t borrowed_count_ = 0;
};

/// Euclidean distance squared between two `dim`-vectors, accumulated in
/// double (float inputs, double math — the usual geometry-kernel hygiene).
inline double DistanceSquared(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

/// Cluster labels produced by any algorithm in this repository: one entry
/// per point; `kNoise` for outliers, otherwise a non-negative cluster id.
/// Cluster ids are arbitrary (compare clusterings with the Rand index, not
/// by id equality).
using Labels = std::vector<int64_t>;

/// Label value for noise/outlier points.
inline constexpr int64_t kNoise = -1;

}  // namespace rpdbscan

#endif  // RPDBSCAN_IO_DATASET_H_
