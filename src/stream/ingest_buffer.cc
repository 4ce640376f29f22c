#include "stream/ingest_buffer.h"

#include <algorithm>
#include <numeric>

namespace rpdbscan {

StatusOr<IngestBuffer> IngestBuffer::Create(Dataset seed_batch,
                                            const GridGeometry& geom,
                                            size_t num_partitions,
                                            uint64_t seed,
                                            ThreadPool* pool) {
  if (seed_batch.empty()) {
    return Status::InvalidArgument("seed batch is empty");
  }
  auto cells_or =
      CellSet::Build(seed_batch, geom, num_partitions, seed, pool);
  if (!cells_or.ok()) return cells_or.status();
  IngestBuffer buffer(std::move(seed_batch), std::move(*cells_or));
  buffer.touched_.resize(buffer.cells_.num_cells());
  std::iota(buffer.touched_.begin(), buffer.touched_.end(), 0u);
  return buffer;
}

Status IngestBuffer::Append(const Dataset& batch, ThreadPool* pool) {
  if (batch.dim() != data_.dim()) {
    return Status::InvalidArgument("batch dim does not match buffer dim");
  }
  if (batch.empty()) {
    ++num_batches_;
    return Status::OK();
  }
  const size_t first_new = data_.size();
  data_.Reserve(first_new + batch.size());
  for (size_t i = 0; i < batch.size(); ++i) data_.Append(batch.point(i));
  std::vector<uint32_t> batch_touched;
  const Status ingested =
      cells_.IngestAppended(data_, first_new, pool, &batch_touched);
  if (!ingested.ok()) {
    data_.Truncate(first_new);  // a rejected batch leaves no trace
    return ingested;
  }
  ++num_batches_;
  // Union into the accumulated touched set (both sides sorted unique).
  std::vector<uint32_t> merged;
  merged.reserve(touched_.size() + batch_touched.size());
  std::set_union(touched_.begin(), touched_.end(), batch_touched.begin(),
                 batch_touched.end(), std::back_inserter(merged));
  touched_ = std::move(merged);
  return Status::OK();
}

std::vector<uint32_t> IngestBuffer::TakeTouched() {
  std::vector<uint32_t> out = std::move(touched_);
  touched_.clear();
  return out;
}

}  // namespace rpdbscan
