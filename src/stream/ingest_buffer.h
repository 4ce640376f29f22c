#ifndef RPDBSCAN_STREAM_INGEST_BUFFER_H_
#define RPDBSCAN_STREAM_INGEST_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell_set.h"
#include "core/grid.h"
#include "io/dataset.h"
#include "parallel/thread_pool.h"
#include "util/status.h"

namespace rpdbscan {

/// Accumulates streamed point batches into the pipeline's cell-key/CSR
/// layout (DESIGN.md §9). Owns the growing Dataset and its CellSet; every
/// Append runs the batch through the Phase I-1 radix-sort grouping and
/// splices it in (CellSet::IngestAppended), so the structures are at all
/// times bit-identical to a from-scratch CellSet::Build over the
/// accumulated points. Cells touched since the last TakeTouched are
/// tracked: an epoch recomputes their dictionary entries and extends the
/// last cell graph by them.
class IngestBuffer {
 public:
  /// Starts the buffer from the (non-empty) seed batch — batch number 0.
  /// `num_partitions` and `seed` are the CellSet::Build inputs; they are
  /// replayed on every later Append. All seed cells count as touched.
  static StatusOr<IngestBuffer> Create(Dataset seed_batch,
                                       const GridGeometry& geom,
                                       size_t num_partitions, uint64_t seed,
                                       ThreadPool* pool = nullptr);

  // CellSet is move-only (spans into its own arrays), so the buffer is too.
  IngestBuffer(IngestBuffer&&) = default;
  IngestBuffer& operator=(IngestBuffer&&) = default;

  /// Appends one batch (may be empty — a no-op that still counts as a
  /// batch) and splices it into the cell structures. Fails on a
  /// dimensionality mismatch or a coordinate that cannot be binned,
  /// leaving the buffer unchanged.
  Status Append(const Dataset& batch, ThreadPool* pool = nullptr);

  /// The accumulated points, in ingest order (point ids are stable: a
  /// point keeps the id it was appended with forever).
  const Dataset& data() const { return data_; }
  const CellSet& cells() const { return cells_; }
  size_t num_batches() const { return num_batches_; }
  /// Key-layout rebuilds forced by batches escaping the lattice bounds.
  size_t rekeys() const { return cells_.rekeys(); }

  /// Ascending, duplicate-free ids of every cell that gained points since
  /// the last TakeTouched (or since Create). Clears the tracked set.
  std::vector<uint32_t> TakeTouched();

 private:
  IngestBuffer(Dataset data, CellSet cells)
      : data_(std::move(data)), cells_(std::move(cells)) {}

  Dataset data_;
  CellSet cells_;
  size_t num_batches_ = 1;
  /// Sorted unique cell ids touched since the last TakeTouched.
  std::vector<uint32_t> touched_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_STREAM_INGEST_BUFFER_H_
