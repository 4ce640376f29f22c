#ifndef RPDBSCAN_CORE_CELL_SET_H_
#define RPDBSCAN_CORE_CELL_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell_coord.h"
#include "core/cell_key.h"
#include <string>

#include "core/flat_cell_index.h"
#include "core/grid.h"
#include "io/dataset.h"
#include "io/point_source.h"
#include "parallel/thread_pool.h"
#include "util/status.h"

namespace rpdbscan {

/// Non-owning view of one cell's point ids inside the CellSet's flat CSR
/// array. Mirrors the read-only surface of the std::vector it replaced, so
/// every consumer iterates it the same way — but a cell no longer owns an
/// allocation.
class PointIdSpan {
 public:
  PointIdSpan() = default;
  PointIdSpan(const uint32_t* data, size_t size)
      : data_(data), size_(static_cast<uint32_t>(size)) {}

  const uint32_t* begin() const { return data_; }
  const uint32_t* end() const { return data_ + size_; }
  const uint32_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  uint32_t front() const { return data_[0]; }
  uint32_t back() const { return data_[size_ - 1]; }

 private:
  const uint32_t* data_ = nullptr;
  uint32_t size_ = 0;
};

/// One non-empty grid cell and the ids of the points inside it.
struct CellData {
  CellCoord coord;
  /// Point ids (indices into the Dataset) belonging to this cell, ascending.
  /// A view into CellSet::point_ids() (CSR layout).
  PointIdSpan point_ids;
  /// Owning pseudo-random partition (Phase I-1 assignment).
  uint32_t owner_partition = 0;
};

/// Wall-time sub-breakdown of CellSet::Build (feeds RunStats'
/// partition_seconds breakdown). On the hash-map fallback path the grouping
/// lands in scatter_seconds and sorted_path_used is false.
struct Phase1Breakdown {
  double key_seconds = 0;      // per-point key encoding (sorted path)
  double sort_seconds = 0;     // parallel radix sort of (key, pid) pairs
  double scatter_seconds = 0;  // group scan + CSR emit (+ hash fallback)
  bool sorted_path_used = false;
};

/// Knobs of the out-of-core Phase I-1 build (CellSet::BuildExternal).
struct ExternalBuildOptions {
  /// Upper bound on the bytes the build keeps resident at once: the pair
  /// buffer of each chunk sort, the staging buffer of each spill, and the
  /// merge readers are all sized from it. The input payload itself is
  /// streamed through a chunk of this size and released.
  size_t memory_budget_bytes = 64u << 20;
  /// Directory for spill runs; empty uses the system temp directory. A
  /// unique subdirectory is created (and removed) per build.
  std::string spill_dir;
};

/// What the external build actually did (feeds RunStats and the smoke
/// test's residency assertions).
struct ExternalBuildStats {
  /// False when the cell key exceeded 128 bits and the build fell back to
  /// the in-RAM hash path over a borrowed view (no spill happened).
  bool external_path_used = false;
  size_t chunks = 0;
  size_t runs = 0;
  /// Bytes written to (and later merged from) the spill directory.
  uint64_t spill_bytes = 0;
  /// Peak bytes of build-owned transient buffers, as accounted by the
  /// build itself (pair buffers, staging, merge readers). Excludes the
  /// output CSR arrays and the mapped input (whose residency the chunk
  /// budget already bounds).
  uint64_t peak_accounted_bytes = 0;
  double bounds_seconds = 0;  // streamed min/max pass
  double spill_seconds = 0;   // chunk encode + sort + run write
  double merge_seconds = 0;   // two k-way merge sweeps + CSR emit
};

/// The grid view of a data set plus its pseudo random partitioning
/// (Phase I-1, Alg. 2 part 1): every point is binned to its cell, then
/// whole *cells* — not points — are distributed across k partitions by a
/// random key, which is the paper's central data-split idea (Sec. 4.1).
///
/// Cell ids are dense [0, num_cells) and shared with the cell dictionary
/// and cell graph. Point ids live in one flat CSR array
/// (`cell_point_offsets()` / `point_ids()`); each CellData exposes its
/// slice as a span. The key width decides the grouping, and both ways
/// produce byte-identical structures:
///
///  * sorted: parallel key encoding (core/cell_key.h), a parallel radix
///    sort of (key, point_id) pairs (parallel/parallel_sort.h), and one
///    scan that emits the CSR arrays — zero per-cell allocations;
///  * hash-map, only when a cell key cannot fit 128 bits: a sequential
///    unordered-map scan.
///
/// Both paths number cells in first-encounter order of a forward point scan
/// and list each cell's points ascending, so everything downstream —
/// partition assignment included — is bit-identical between them.
///
/// Every build path rejects a coordinate it cannot bin (NaN, +-Inf, or
/// beyond the int32 cell lattice, see GridGeometry::Binnable) with an
/// InvalidArgument naming the first offending point id and dimension.
class CellSet {
 public:
  /// Bins `data` into cells and assigns each cell a partition in
  /// [0, num_partitions) with a seeded hash (deterministic given the seed,
  /// uniform like the paper's random key). `pool` parallelizes the sorted
  /// path when given; null runs it sequentially (still sort-based).
  static StatusOr<CellSet> Build(const Dataset& data,
                                 const GridGeometry& geom,
                                 size_t num_partitions, uint64_t seed,
                                 ThreadPool* pool = nullptr);

  /// Out-of-core variant of Build: streams `source` in chunks that fit
  /// `opts.memory_budget_bytes`, sorts each chunk's (cell key, point id)
  /// pairs with the same LSD passes as the in-RAM sorted path, spills the
  /// sorted runs to disk, and k-way merges them into the CSR cell layout —
  /// so peak transient memory is bounded by the budget instead of the
  /// input size. The result is bit-identical to
  /// Build(borrowed-view-of-source, ...): same first-encounter cell
  /// numbering, same ascending per-cell point lists, same partition draw.
  /// When the cell key cannot fit 128 bits the build transparently falls
  /// back to the in-RAM hash path (out-of-core needs the sorted
  /// representation); stats->external_path_used records which happened.
  static StatusOr<CellSet> BuildExternal(const PointSource& source,
                                         const GridGeometry& geom,
                                         size_t num_partitions, uint64_t seed,
                                         const ExternalBuildOptions& opts,
                                         ThreadPool* pool = nullptr,
                                         ExternalBuildStats* stats = nullptr);

  /// Incrementally bins the appended suffix of `data` — points
  /// [first_new, data.size()) — into the existing structures (the
  /// streaming ingest path). `data` must be the build-time data set plus
  /// appended points, so `first_new` must equal the number of points
  /// already binned. The result is bit-identical to a from-scratch Build
  /// over all of `data`:
  ///  * existing cells keep their ids and append the new point ids (old
  ///    ids precede new ones, both ascending, so per-cell lists stay in
  ///    first-encounter — i.e. ascending — order);
  ///  * new cells get the next dense ids in first-encounter order of the
  ///    batch (every new cell's first point id exceeds every existing
  ///    cell's, so the global first-encounter numbering is preserved);
  ///  * the partition assignment is re-drawn from the build-time seed over
  ///    the grown cell count — exactly what Build would draw.
  /// The batch is grouped through the same key-encode + radix-sort path as
  /// Build. Lattice bounds are NOT assumed immutable: a batch point whose
  /// cell falls outside the build-time key layout triggers a re-key (the
  /// layout is rebuilt from the extended lattice bounds; rekeys() counts
  /// these) instead of silently wrapping onto an aliased key. When even
  /// the extended layout exceeds 128 bits — or the set was built on the
  /// hash path — the batch is grouped by hashing instead. A batch with a
  /// coordinate that cannot be binned is rejected whole and leaves the set
  /// unchanged.
  ///
  /// `*touched` (optional) receives the ascending, duplicate-free ids of
  /// every cell that gained at least one point, new cells included.
  Status IngestAppended(const Dataset& data, size_t first_new,
                        ThreadPool* pool = nullptr,
                        std::vector<uint32_t>* touched = nullptr);

  // Spans point into this object's flat arrays: moving preserves them
  // (vector buffers are stable under move), copying would not.
  CellSet(const CellSet&) = delete;
  CellSet& operator=(const CellSet&) = delete;
  CellSet(CellSet&&) = default;
  CellSet& operator=(CellSet&&) = default;

  const GridGeometry& geom() const { return geom_; }
  size_t num_cells() const { return cells_.size(); }
  size_t num_partitions() const { return partitions_.size(); }

  const CellData& cell(uint32_t id) const { return cells_[id]; }
  const std::vector<CellData>& cells() const { return cells_; }

  /// CSR layout: cell `id`'s points are
  /// point_ids()[cell_point_offsets()[id] .. cell_point_offsets()[id+1]).
  const std::vector<uint64_t>& cell_point_offsets() const {
    return cell_point_offsets_;
  }
  const std::vector<uint32_t>& point_ids() const { return point_ids_; }

  /// Cell ids owned by partition `pid`.
  const std::vector<uint32_t>& partition(uint32_t pid) const {
    return partitions_[pid];
  }

  /// Dense id of the cell at `coord`, or -1 if the cell is empty/unknown.
  int64_t FindCell(const CellCoord& coord) const {
    return index_.Find(coord, cells_);
  }

  /// The coord -> id hash table behind FindCell (read-only; the auditors
  /// verify its capacity/load-factor contract against the cell count).
  const FlatCellIndex& index() const { return index_; }

  /// Total points in partition `pid` (cached at build time).
  size_t PartitionPoints(uint32_t pid) const {
    return partition_points_[pid];
  }

  /// Number of points in the largest / smallest partition (used by the
  /// partitioning-balance tests and Fig. 13-style accounting).
  size_t MaxPartitionPoints() const;
  size_t MinPartitionPoints() const;

  /// Build-time sub-phase breakdown of the last Build (IngestAppended
  /// does not update it).
  const Phase1Breakdown& breakdown() const { return breakdown_; }

  /// Total points currently binned (== the CSR point-id array length).
  size_t num_points() const { return point_ids_.size(); }

  /// Key-layout rebuilds forced by out-of-bounds ingest (see
  /// IngestAppended). 0 until a batch point falls outside the lattice
  /// bounds the current layout was derived from.
  size_t rekeys() const { return rekey_count_; }

 private:
  explicit CellSet(const GridGeometry& geom) : geom_(geom) {}

  /// Fills cells_ / cell_point_offsets_ / point_ids_ and breakdown_:
  /// sorted grouping, or hash grouping when the key does not fit 128
  /// bits. Fails when a coordinate cannot be binned.
  Status BuildGroups(const Dataset& data, ThreadPool* pool);
  void BuildHashedGroups(const Dataset& data);
  void AssignPartitions(size_t num_partitions, uint64_t seed);

  GridGeometry geom_;
  std::vector<CellData> cells_;
  std::vector<uint64_t> cell_point_offsets_;
  std::vector<uint32_t> point_ids_;
  FlatCellIndex index_;
  std::vector<std::vector<uint32_t>> partitions_;
  std::vector<size_t> partition_points_;
  Phase1Breakdown breakdown_;
  /// Build-time inputs replayed by IngestAppended: the partition draw
  /// (count + seed) and the sorted path's key layout with the running
  /// per-dimension lattice bounds it was derived from. layout_valid_ is
  /// false on the hash path (no layout exists) and after a re-key grew
  /// the layout past 128 bits.
  size_t target_partitions_ = 1;
  uint64_t seed_ = 0;
  CellKeyLayout layout_;
  int64_t lat_min_[CellCoord::kMaxDim] = {};
  int64_t lat_max_[CellCoord::kMaxDim] = {};
  bool layout_valid_ = false;
  size_t rekey_count_ = 0;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_CELL_SET_H_
