#ifndef RPDBSCAN_SERVE_SNAPSHOT_H_
#define RPDBSCAN_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/merge.h"
#include "core/rp_dbscan.h"
#include "parallel/thread_pool.h"
#include "util/status.h"

namespace rpdbscan {

/// Load-time / save-time knobs of the snapshot.
struct SnapshotOptions {
  /// Dictionary rebuild options applied on load (and recorded at save so
  /// the auditor can compare engines). Defragmentation layout, candidate
  /// index and stencil availability follow these; results never do — every
  /// dictionary engine answers (eps,rho)-region queries identically.
  CellDictionaryOptions dict_opts;
  /// Save-time only: include the border-reference section (stored core
  /// points of predecessor cells). Costs space proportional to the
  /// referenced core points; without it, queries landing in non-core cells
  /// can only be answered sandwich-approximately.
  bool include_border_refs = true;
};

/// An immutable, versioned freeze of one finished RP-DBSCAN run — the
/// unit the serving layer loads and answers out-of-sample queries from.
/// On disk it is a checksummed sectioned container (.rpsnap, see
/// docs/WIRE_FORMATS.md §3): grid geometry and run parameters, the
/// Lemma 4.3 dictionary wire payload, the engine metadata (dictionary-
/// global FlatCellIndex capacity, lattice-stencil parameters), the
/// per-cell cluster-label table, the predecessor lists, and optionally
/// the border references. Loading rebuilds the read-only query structures
/// (sub-dictionaries, global cell index, stencil) through
/// CellDictionary::Deserialize and validates every section — a truncated
/// or corrupted file fails with a stage-named Status, never UB.
///
/// Immutable after construction; all accessors are const and the whole
/// object is safe to share across serving threads. The dictionary is held
/// by shared ownership, so a stream epoch's snapshot and the stream's next
/// epoch (its prior, see StreamClusterer) use one copy.
class ClusterModelSnapshot {
 public:
  static constexpr uint32_t kMagic = 0x4e535052;  // "RPSN" little-endian
  static constexpr uint32_t kFormatVersion = 1;

  // Section ids of the container (docs/WIRE_FORMATS.md §3).
  static constexpr uint32_t kSectionMeta = 1;
  static constexpr uint32_t kSectionDictionary = 2;
  static constexpr uint32_t kSectionEngine = 3;
  static constexpr uint32_t kSectionLabels = 4;
  static constexpr uint32_t kSectionPredecessors = 5;
  static constexpr uint32_t kSectionBorderRefs = 6;
  static constexpr uint32_t kSectionEpoch = 7;
  static constexpr uint32_t kSectionHierarchy = 8;

  /// Geometry and run parameters of the frozen clustering.
  struct Meta {
    size_t dim = 0;
    double eps = 0;
    double rho = 0;
    size_t min_pts = 0;
    size_t num_points = 0;  // training-set size
    size_t num_cells = 0;
    size_t num_subcells = 0;
    size_t num_clusters = 0;
    bool has_border_refs = false;
    /// Effective region-query radius of the frozen run (== eps for a
    /// classic coupled run; the rung radius for eps-ladder levels, whose
    /// grid stays at the base eps). Serving replays the border walk at
    /// this radius. Files written before the field existed load as eps
    /// (the meta section is size-gated).
    double query_eps = 0;
  };

  /// One rung of a persisted eps-ladder (kSectionHierarchy): its query
  /// radius and threshold, the per-cell cluster table at that rung, and
  /// each cluster's containing cluster one rung up (kNoParent sentinel,
  /// as in hierarchy/eps_ladder.h, for the top rung).
  struct HierarchyLevelInfo {
    double eps = 0;
    uint64_t min_pts = 0;
    std::vector<uint32_t> cell_cluster;
    std::vector<uint32_t> parent;
  };

  /// Streaming-epoch lineage (docs/WIRE_FORMATS.md §3, section 7 —
  /// optional; written only for snapshots published by the streaming
  /// pipeline). `sequence` is the epoch's position in the ingest stream
  /// (0 = the seed batch), `parent_sequence` the epoch it was spliced
  /// from (== sequence for epoch 0), and the ingested counters describe
  /// the accumulated stream up to this epoch.
  struct EpochInfo {
    uint64_t sequence = 0;
    uint64_t parent_sequence = 0;
    uint64_t points_ingested = 0;
    uint64_t batches_ingested = 0;
  };

  /// Freezes a CapturedModel (RunRpDbscan with capture_model on).
  /// Consumes the model. Fails with InvalidArgument when the model is
  /// internally inconsistent (table sizes vs the dictionary).
  static StatusOr<ClusterModelSnapshot> FromModel(
      CapturedModel model, const SnapshotOptions& opts = SnapshotOptions());

  /// The full .rpsnap container bytes.
  std::vector<uint8_t> Serialize() const;

  /// Parses Serialize() output, rebuilding the read-only query structures
  /// with `opts.dict_opts` (on `pool` when given). Every framing,
  /// checksum and semantic violation fails with a Status naming the stage
  /// ("snapshot header: ...", "snapshot section 'labels' ...", ...).
  static StatusOr<ClusterModelSnapshot> Deserialize(
      const std::vector<uint8_t>& bytes,
      const SnapshotOptions& opts = SnapshotOptions(),
      ThreadPool* pool = nullptr);

  Status WriteFile(const std::string& path) const;
  static StatusOr<ClusterModelSnapshot> ReadFile(
      const std::string& path,
      const SnapshotOptions& opts = SnapshotOptions(),
      ThreadPool* pool = nullptr);

  const Meta& meta() const { return meta_; }
  const CellDictionary& dictionary() const { return *dict_; }
  /// The same dictionary, shared: a holder keeps it alive past the
  /// snapshot — the stream keeps each epoch's as the next epoch's prior
  /// (CellDictionary::FromEntries) — without a copy.
  const std::shared_ptr<const CellDictionary>& shared_dictionary() const {
    return dict_;
  }
  bool has_border_refs() const { return meta_.has_border_refs; }

  /// Epoch lineage (streaming snapshots only; round-trips through
  /// Serialize/Deserialize). Absent on one-shot freezes and on snapshots
  /// written before the epoch section existed — the flag bit keeps old
  /// files loading unchanged.
  bool has_epoch() const { return has_epoch_; }
  const EpochInfo& epoch() const { return epoch_; }
  /// Attaches epoch lineage before Serialize. Metadata-only: no clustering
  /// state changes, so the snapshot stays safe to share once published.
  void set_epoch(const EpochInfo& info) {
    epoch_ = info;
    has_epoch_ = true;
  }

  /// Multi-level eps-ladder lineage (optional, flag-gated like the epoch
  /// section). Level 0 is the finest rung; the snapshot's own tables are
  /// typically that rung's. Round-trips through Serialize/Deserialize
  /// with full per-level validation.
  bool has_hierarchy() const { return !hierarchy_.empty(); }
  const std::vector<HierarchyLevelInfo>& hierarchy() const {
    return hierarchy_;
  }
  /// Attaches ladder lineage before Serialize. Metadata-only, like
  /// set_epoch. Levels must carry num_cells-sized cluster tables.
  void set_hierarchy(std::vector<HierarchyLevelInfo> levels) {
    hierarchy_ = std::move(levels);
  }

  /// Per cell id: dense cluster id for core cells, kNoCluster otherwise
  /// (the merged Phase III table).
  const std::vector<uint32_t>& cell_cluster() const { return cell_cluster_; }

  /// Predecessor CSR: core predecessor cells of non-core cell `cid`, in
  /// training (labeling) order.
  const std::vector<uint64_t>& pred_offsets() const { return pred_offsets_; }
  const std::vector<uint32_t>& preds() const { return preds_; }
  const uint32_t* PredsOf(uint32_t cid, size_t* count) const {
    *count = static_cast<size_t>(pred_offsets_[cid + 1] -
                                 pred_offsets_[cid]);
    return preds_.data() + pred_offsets_[cid];
  }

  /// Border-reference CSR: stored core-point coordinates of cell `cid`
  /// (count points of meta().dim floats), in training point-id order.
  /// Empty for unreferenced cells and when !has_border_refs().
  const std::vector<uint64_t>& ref_offsets() const { return ref_offsets_; }
  const std::vector<float>& ref_coords() const { return ref_coords_; }
  const float* RefCoordsOf(uint32_t cid, size_t* count) const {
    *count = static_cast<size_t>(ref_offsets_[cid + 1] - ref_offsets_[cid]);
    return ref_coords_.data() + ref_offsets_[cid] * meta_.dim;
  }

 private:
  ClusterModelSnapshot() = default;

  Meta meta_;
  /// The dict_opts the snapshot was built/loaded with (recorded for the
  /// engine section; affects serving performance only).
  CellDictionaryOptions dict_opts_;
  /// Never null once constructed; shared (immutable) with whoever holds
  /// shared_dictionary().
  std::shared_ptr<const CellDictionary> dict_;
  std::vector<uint32_t> cell_cluster_;
  std::vector<uint64_t> pred_offsets_;
  std::vector<uint32_t> preds_;
  std::vector<uint64_t> ref_offsets_;
  std::vector<float> ref_coords_;
  EpochInfo epoch_;
  bool has_epoch_ = false;
  std::vector<HierarchyLevelInfo> hierarchy_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_SERVE_SNAPSHOT_H_
