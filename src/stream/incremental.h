#ifndef RPDBSCAN_STREAM_INCREMENTAL_H_
#define RPDBSCAN_STREAM_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cell_dictionary.h"
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
  /// Stencil closure of the touched cells — the recompute scope.
  size_t dirty_cells = 0;
  bool dirty_used_stencil = false;
  /// Points whose core flags were recomputed (the dirty cells' points).
  size_t reclustered_points = 0;
  size_t rekeys = 0;
  size_t num_clusters = 0;
  size_t num_noise_points = 0;
  double epoch_publish_seconds = 0;
  /// Stage times within epoch_publish_seconds; audits count in none.
  /// The touched cells' MakeCellEntry plus the dictionary assembly.
  double dictionary_seconds = 0;
  /// The dirty closure, RecomputeCells and the subgraph rebuild.
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
/// an IngestBuffer and, on PublishEpoch, re-runs sub-cell assembly, the
/// Phase II stencil queries, and the merge only over the dirty component
/// subgraph, splicing the results into the prior epoch's cached tables.
///
/// Every epoch is bit-identical to RunRpDbscan from scratch on the
/// accumulated points with the same options — labels, cluster ids,
/// predecessor lists, and border references all match, because each
/// spliced structure is a pure per-cell function whose inputs provably
/// did not change outside the dirty set (see DESIGN.md §9 for the
/// argument; tests/stream_incremental_test.cc enforces it differentially).
///
/// Not thread-safe; one writer drives Ingest/PublishEpoch while published
/// snapshots serve reads elsewhere (stream/epoch_registry.h).
class StreamClusterer {
 public:
  /// Seeds the stream with `seed_batch` (epoch 0 recomputes everything —
  /// it flows through the same incremental code path with all cells
  /// touched). `options` are the RunRpDbscan options each epoch must be
  /// equivalent to; capture_model is implied.
  static StatusOr<StreamClusterer> Create(Dataset seed_batch,
                                          const RpDbscanOptions& options);

  StreamClusterer(StreamClusterer&&) = default;
  StreamClusterer& operator=(StreamClusterer&&) = default;

  /// Appends one batch (empty allowed) without recomputing anything.
  Status Ingest(const Dataset& batch);

  /// Recomputes the dirty subgraph, splices, merges, labels, and packages
  /// the result as a snapshot carrying this epoch's lineage. Audits each
  /// stage at options.audit_level (kOff skips). Consumes nothing: further
  /// Ingest/PublishEpoch calls continue from the new epoch.
  StatusOr<EpochResult> PublishEpoch();

  const Dataset& data() const { return buffer_.data(); }
  const IngestBuffer& buffer() const { return buffer_; }
  const RpDbscanOptions& options() const { return options_; }
  /// Sequence the next PublishEpoch will get (== epochs published so far).
  uint64_t next_sequence() const { return sequence_; }
  ThreadPool& pool() { return *pool_; }

 private:
  StreamClusterer(RpDbscanOptions options, size_t num_threads,
                  IngestBuffer buffer);

  RpDbscanOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  IngestBuffer buffer_;
  uint64_t sequence_ = 0;

  // Prior-epoch caches, all indexed by dense cell id / point id and
  // resized as the stream grows. Each holds a pure per-cell (or per-point)
  // function of the accumulated data, so non-dirty entries carry over.
  std::vector<CellEntry> entries_;
  /// The last epoch's dictionary, shared with its snapshot: the prior the
  /// next epoch's assembly carries stencil neighborhoods over from, so
  /// only new cells have their windows swept. Null before epoch 0.
  std::shared_ptr<const CellDictionary> dict_;
  std::vector<uint8_t> point_is_core_;
  std::vector<uint8_t> cell_is_core_;
  std::vector<std::vector<uint32_t>> cell_edges_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_STREAM_INCREMENTAL_H_
