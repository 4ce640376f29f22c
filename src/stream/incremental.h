#ifndef RPDBSCAN_STREAM_INCREMENTAL_H_
#define RPDBSCAN_STREAM_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/phase2.h"
#include "core/rp_dbscan.h"
#include "io/dataset.h"
#include "parallel/thread_pool.h"
#include "serve/snapshot.h"
#include "stream/ingest_buffer.h"
#include "util/status.h"

namespace rpdbscan {

/// Per-epoch observables of the incremental pipeline (the stream CLI's
/// JSON fields).
struct EpochStats {
  uint64_t sequence = 0;
  size_t total_points = 0;
  size_t total_cells = 0;
  size_t batches_ingested = 0;
  /// Cells that gained points since the previous epoch.
  size_t touched_cells = 0;
  /// The affected set: the touched cells plus the untouched cells their
  /// Phase II gathers reached.
  size_t dirty_cells = 0;
  /// Reached cells whose points were all core already: their rows were
  /// only tested against the touched cells that reached them.
  size_t extended_cells = 0;
  /// Points of the cells that re-ran the Phase II per-cell unit: the
  /// touched cells and the reached cells holding a non-core point.
  size_t reclustered_points = 0;
  size_t rekeys = 0;
  size_t num_clusters = 0;
  size_t num_noise_points = 0;
  double epoch_publish_seconds = 0;
  /// Stage times within epoch_publish_seconds; audits count in none.
  /// The touched cells' MakeCellEntry plus the dictionary assembly.
  double dictionary_seconds = 0;
  /// RecomputeCells, which extends the last epoch's cell graph in place.
  double phase2_seconds = 0;
  /// MergeSubgraphs plus LabelPoints.
  double merge_seconds = 0;
  /// BuildCapturedModel plus the snapshot freeze.
  double package_seconds = 0;
};

/// One published epoch: the snapshot (with epoch lineage set), the full
/// per-point labels of the accumulated data, and the epoch's stats.
struct EpochResult {
  ClusterModelSnapshot snapshot;
  Labels labels;
  EpochStats stats;
};

/// The streaming re-clusterer (DESIGN.md §9): accumulates batches through
/// an IngestBuffer and, on PublishEpoch, recomputes the touched cells'
/// dictionary entries, extends the last epoch's Phase II cell graph by
/// the touched cells (RecomputeCells), and merges and labels the result.
///
/// Every epoch is bit-identical to RunRpDbscan from scratch on the
/// accumulated points with the same options — labels, cluster ids,
/// predecessor lists, and border references all match, because an append
/// only grows densities and every entry the extension leaves as it is
/// provably did not change (see DESIGN.md §9 for the argument;
/// tests/stream_incremental_test.cc enforces it differentially).
///
/// Not thread-safe; one writer drives Ingest/PublishEpoch while published
/// snapshots serve reads elsewhere (stream/epoch_registry.h).
class StreamClusterer {
 public:
  /// Seeds the stream with `seed_batch` (epoch 0 recomputes everything —
  /// it flows through the same incremental code path with all cells
  /// touched). `options` are the RunRpDbscan options each epoch must be
  /// equivalent to; capture_model is implied. A non-default query_eps or
  /// point_source is refused with InvalidArgument naming the field:
  /// epochs run neither the ladder nor the out-of-core path.
  static StatusOr<StreamClusterer> Create(Dataset seed_batch,
                                          const RpDbscanOptions& options);

  StreamClusterer(StreamClusterer&&) = default;
  StreamClusterer& operator=(StreamClusterer&&) = default;

  /// Appends one batch (empty allowed) without recomputing anything.
  Status Ingest(const Dataset& batch);

  /// Extends the last epoch's cell graph by the touched cells, merges,
  /// labels, and packages the result as a snapshot carrying this epoch's
  /// lineage. Audits each stage at options.audit_level (kOff skips).
  /// Consumes nothing: further Ingest/PublishEpoch calls continue from
  /// the new epoch.
  StatusOr<EpochResult> PublishEpoch();

  const Dataset& data() const { return buffer_.data(); }
  const IngestBuffer& buffer() const { return buffer_; }
  const RpDbscanOptions& options() const { return options_; }
  /// The last epoch's Phase II output: point and cell core flags and the
  /// cell graph the merge read.
  const Phase2Result& phase2() const { return phase2_; }
  /// Sequence the next PublishEpoch will get (== epochs published so far).
  uint64_t next_sequence() const { return sequence_; }
  ThreadPool& pool() { return *pool_; }

 private:
  StreamClusterer(RpDbscanOptions options, std::unique_ptr<ThreadPool> pool,
                  IngestBuffer buffer);

  RpDbscanOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  IngestBuffer buffer_;
  uint64_t sequence_ = 0;

  // Prior-epoch caches, all indexed by dense cell id / point id and
  // resized as the stream grows: the entries of untouched cells carry
  // over, and the Phase II output is extended by the touched cells.
  std::vector<CellEntry> entries_;
  /// The last epoch's dictionary, shared with its snapshot: the prior the
  /// next epoch's assembly carries stencil neighborhoods over from, so
  /// only new cells have their windows swept. Null before epoch 0.
  std::shared_ptr<const CellDictionary> dict_;
  /// The last epoch's Phase II output: point and cell core flags and the
  /// cell graph's successor rows, extended in place by each epoch.
  Phase2Result phase2_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_STREAM_INCREMENTAL_H_
