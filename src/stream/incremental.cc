#include "stream/incremental.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/labeling.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "parallel/parallel_for.h"
#include "util/stopwatch.h"
#include "verify/audit.h"

namespace rpdbscan {
namespace {

/// The RunRpDbscan dictionary options, duplicated here so an epoch builds
/// the dictionary a from-scratch run with the same options would.
CellDictionaryOptions DictOptionsOf(const RpDbscanOptions& options) {
  CellDictionaryOptions dict_opts;
  dict_opts.max_cells_per_subdict = options.max_cells_per_subdict;
  return dict_opts;
}

}  // namespace

StreamClusterer::StreamClusterer(RpDbscanOptions options,
                                 std::unique_ptr<ThreadPool> pool,
                                 IngestBuffer buffer)
    : options_(std::move(options)),
      pool_(std::move(pool)),
      buffer_(std::move(buffer)) {}

StatusOr<StreamClusterer> StreamClusterer::Create(
    Dataset seed_batch, const RpDbscanOptions& options) {
  if (options.min_pts == 0) {
    return Status::InvalidArgument("min_pts must be >= 1");
  }
  if (seed_batch.empty()) {
    return Status::InvalidArgument("seed batch is empty");
  }
  // An epoch runs the classic in-RAM pipeline; these options would make
  // RunRpDbscan differ from it, so they are refused rather than dropped.
  const RpDbscanOptions classic;
  if (options.query_eps != classic.query_eps) {
    return Status::InvalidArgument("stream does not support query_eps");
  }
  if (options.point_source != nullptr) {
    return Status::InvalidArgument("stream does not support point_source");
  }
  auto geom_or =
      GridGeometry::Create(seed_batch.dim(), options.eps, options.rho);
  if (!geom_or.ok()) return geom_or.status();

  // The RunRpDbscan thread/partition resolution, fixed at stream start so
  // every epoch draws the same partition split a from-scratch run would.
  size_t num_threads = options.num_threads;
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  RpDbscanOptions resolved = options;
  resolved.num_threads = num_threads;
  if (resolved.num_partitions == 0) resolved.num_partitions = num_threads * 4;

  // One pool for the stream's whole life: the seed batch's grouping and
  // every epoch run on it.
  auto pool = std::make_unique<ThreadPool>(num_threads);
  auto buffer_or =
      IngestBuffer::Create(std::move(seed_batch), *geom_or,
                           resolved.num_partitions, resolved.seed, pool.get());
  if (!buffer_or.ok()) return buffer_or.status();
  return StreamClusterer(std::move(resolved), std::move(pool),
                         std::move(*buffer_or));
}

Status StreamClusterer::Ingest(const Dataset& batch) {
  return buffer_.Append(batch, pool_.get());
}

StatusOr<EpochResult> StreamClusterer::PublishEpoch() {
  Stopwatch watch;
  ThreadPool& pool = *pool_;
  const Dataset& data = buffer_.data();
  const CellSet& cells = buffer_.cells();
  const GridGeometry& geom = cells.geom();
  const size_t num_cells = cells.num_cells();
  const AuditLevel audit = options_.audit_level;

  EpochStats stats;
  stats.sequence = sequence_;
  stats.total_points = data.size();
  stats.total_cells = num_cells;
  stats.batches_ingested = buffer_.num_batches();
  stats.rekeys = buffer_.rekeys();

  const std::vector<uint32_t> touched = buffer_.TakeTouched();
  stats.touched_cells = touched.size();

  if (audit != AuditLevel::kOff) {
    RPDBSCAN_RETURN_IF_ERROR(
        AuditCellSet(data, cells, audit).ToStatus("stream cell-set"));
  }

  // ---- Sub-cell assembly, touched cells only. A cell's dictionary entry
  // is a pure function of its point list, so untouched entries carry over
  // verbatim; the assembled dictionary is structurally identical to a
  // from-scratch Build (tree layout and stencil depend only on the entry
  // set), and RunRpDbscan queries its built dictionary the same way.
  // Cell ids only grow, so the last epoch's dictionary is a prior over a
  // prefix of the cells: its stencil neighborhoods carry over, and only
  // the new cells' windows are swept.
  Stopwatch stage;
  entries_.resize(num_cells);
  if (!touched.empty()) {
    ParallelFor(pool, touched.size(), [&](size_t i) {
      const uint32_t cid = touched[i];
      entries_[cid] =
          CellDictionary::MakeCellEntry(data, geom, cells.cell(cid), cid);
    });
  }
  auto dict_or = CellDictionary::FromEntries(
      geom, entries_, DictOptionsOf(options_), &pool, dict_.get());
  if (!dict_or.ok()) return dict_or.status();
  const CellDictionary& dict = *dict_or;
  stats.dictionary_seconds = stage.ElapsedSeconds();

  if (audit != AuditLevel::kOff) {
    RPDBSCAN_RETURN_IF_ERROR(
        AuditDictionary(data, cells, dict, audit)
            .ToStatus("stream dictionary"));
  }

  // ---- Phase II: extend the last epoch's graph by the touched cells.
  // Prior cores stay core; the touched cells and the reached cells
  // holding a non-core point re-run the per-cell unit, and the reached
  // all-core cells only test the touched cells that reach them.
  stage.Reset();
  const RecomputeSummary recomputed =
      RecomputeCells(data, cells, dict, options_.min_pts, pool,
                     Phase2Options(), touched, &phase2_);
  stats.dirty_cells = recomputed.affected_cells;
  stats.extended_cells = recomputed.extended_cells;
  stats.reclustered_points = recomputed.rerun_points;
  stats.phase2_seconds = stage.ElapsedSeconds();

  if (audit != AuditLevel::kOff) {
    RPDBSCAN_RETURN_IF_ERROR(
        AuditCellGraph(data, cells, phase2_.point_is_core, phase2_.subgraphs)
            .ToStatus("stream cell-graph"));
  }

  // ---- Merge + label over the full graph. ----
  stage.Reset();
  MergeOptions merge_opts;
  merge_opts.reduce_edges = options_.reduce_edges;
  merge_opts.pool = &pool;
  merge_opts.parallel_unions = !options_.sequential_merge;
  MergeResult merged =
      MergeSubgraphs(phase2_.subgraphs, num_cells, merge_opts);
  stats.num_clusters = merged.num_clusters;
  const double merge_seconds = stage.ElapsedSeconds();

  if (audit != AuditLevel::kOff) {
    RPDBSCAN_RETURN_IF_ERROR(
        AuditMergeForest(phase2_.subgraphs.cell_is_core, merged, audit)
            .ToStatus("stream merge-forest"));
  }

  stage.Reset();
  Labels labels =
      LabelPoints(data, cells, merged, phase2_.point_is_core, pool);
  stats.merge_seconds = merge_seconds + stage.ElapsedSeconds();
  for (const int64_t l : labels) {
    if (l == kNoise) ++stats.num_noise_points;
  }

  if (audit != AuditLevel::kOff) {
    RPDBSCAN_RETURN_IF_ERROR(
        AuditLabels(data, cells, merged, phase2_.point_is_core, labels,
                    options_.min_pts, audit, options_.seed)
            .ToStatus("stream labels"));
  }

  // ---- Package as a snapshot with epoch lineage. ----
  stage.Reset();
  CapturedModel model =
      BuildCapturedModel(data, cells, std::move(merged),
                         phase2_.point_is_core, std::move(*dict_or),
                         options_.min_pts);
  SnapshotOptions snap_opts;
  snap_opts.dict_opts = DictOptionsOf(options_);
  auto snap_or = ClusterModelSnapshot::FromModel(std::move(model), snap_opts);
  if (!snap_or.ok()) return snap_or.status();
  stats.package_seconds = stage.ElapsedSeconds();
  dict_ = snap_or->shared_dictionary();
  ClusterModelSnapshot::EpochInfo info;
  info.sequence = sequence_;
  info.parent_sequence = sequence_ == 0 ? 0 : sequence_ - 1;
  info.points_ingested = data.size();
  info.batches_ingested = buffer_.num_batches();
  snap_or->set_epoch(info);

  ++sequence_;
  stats.epoch_publish_seconds = watch.ElapsedSeconds();
  return EpochResult{std::move(*snap_or), std::move(labels), stats};
}

}  // namespace rpdbscan
