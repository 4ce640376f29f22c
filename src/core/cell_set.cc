#include "core/cell_set.h"

#include <algorithm>
#include <array>
#include <type_traits>
#include <unordered_map>

#include "core/cell_key.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_sort.h"
#include "util/random.h"
#include "util/reservoir.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace {

/// (key, point_id) pair of the sorted grouping pass, 64-bit key flavor.
/// Most data sets land here (key bits = sum over dims of
/// log2(cells spanned per dim), e.g. ~33 bits for the 3-d GeoLife
/// analogue), and the 16-byte pair keeps the radix passes cache-friendly.
struct Key64Pair {
  uint64_t key;
  uint32_t pid;
};

/// 128-bit flavor for wide/high-dimensional grids (up to 128 key bits).
struct Key128Pair {
  uint64_t lo;
  uint64_t hi;
  uint32_t pid;
};

inline bool SameKey(const Key64Pair& a, const Key64Pair& b) {
  return a.key == b.key;
}
inline bool SameKey(const Key128Pair& a, const Key128Pair& b) {
  return a.lo == b.lo && a.hi == b.hi;
}

inline uint8_t KeyByte(const Key64Pair& p, unsigned b) {
  return static_cast<uint8_t>(p.key >> (8 * b));
}
inline uint8_t KeyByte(const Key128Pair& p, unsigned b) {
  return b < 8 ? static_cast<uint8_t>(p.lo >> (8 * b))
               : static_cast<uint8_t>(p.hi >> (8 * (b - 8)));
}

/// One contiguous run of equal keys in the sorted pair array. `first_pid`
/// is the run's smallest point id (the radix sort is stable and pairs
/// start in point-id order), which is exactly the id of the first point of
/// the original forward scan to hit this cell — ordering groups by it
/// reproduces the hash path's first-encounter cell numbering.
struct CellGroup {
  uint32_t first_pid;
  uint64_t begin;
  uint64_t count;
};

/// Scans the sorted pairs into groups, orders them into dense cell ids,
/// and emits the CSR arrays. Runs the per-group copy in parallel: every
/// group writes a disjoint slice of the flat array.
template <typename Pair>
void EmitCsrGroups(const Dataset& data, const GridGeometry& geom,
                   const std::vector<Pair>& pairs, ThreadPool* pool,
                   std::vector<CellData>* cells,
                   std::vector<uint64_t>* offsets,
                   std::vector<uint32_t>* point_ids) {
  const size_t n = pairs.size();
  std::vector<CellGroup> groups;
  size_t begin = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || !SameKey(pairs[i], pairs[begin])) {
      groups.push_back(CellGroup{pairs[begin].pid, begin, i - begin});
      begin = i;
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const CellGroup& a, const CellGroup& b) {
              return a.first_pid < b.first_pid;
            });
  const size_t num_cells = groups.size();
  cells->resize(num_cells);
  offsets->resize(num_cells + 1);
  point_ids->resize(n);
  (*offsets)[0] = 0;
  for (size_t g = 0; g < num_cells; ++g) {
    (*offsets)[g + 1] = (*offsets)[g] + groups[g].count;
  }
  auto emit_group = [&](size_t g) {
    const CellGroup& group = groups[g];
    uint64_t dst = (*offsets)[g];
    for (uint64_t i = 0; i < group.count; ++i) {
      (*point_ids)[dst + i] = pairs[group.begin + i].pid;
    }
    (*cells)[g].coord = geom.CellOf(data.point(group.first_pid));
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_cells > 1) {
    ParallelFor(*pool, num_cells, emit_group);
  } else {
    for (size_t g = 0; g < num_cells; ++g) emit_group(g);
  }
}

/// Batch-local variant of the sorted grouping pass for IngestAppended:
/// encodes and radix-sorts only the appended suffix, then emits the
/// groups in ascending-first-pid order with their point ids group-major
/// (and ascending within each group) in *grouped_pids. Group `begin`
/// indexes into *grouped_pids.
template <typename Pair>
void GroupBatchSorted(const Dataset& data, const GridGeometry& geom,
                      const CellKeyLayout& layout, size_t first_new,
                      ThreadPool* pool, std::vector<uint32_t>* grouped_pids,
                      std::vector<CellGroup>* out_groups) {
  const size_t num_new = data.size() - first_new;
  const bool parallel =
      pool != nullptr && pool->num_threads() > 1 && num_new >= 4096;
  std::vector<Pair> pairs(num_new);
  auto encode = [&](size_t i) {
    const size_t pid = first_new + i;
    const CellKey128 key = EncodeCellKey(layout, geom, data.point(pid));
    if constexpr (std::is_same_v<Pair, Key64Pair>) {
      pairs[i] = Key64Pair{key.lo, static_cast<uint32_t>(pid)};
    } else {
      pairs[i] = Key128Pair{key.lo, key.hi, static_cast<uint32_t>(pid)};
    }
  };
  if (parallel) {
    ParallelFor(*pool, num_new, encode);
  } else {
    for (size_t i = 0; i < num_new; ++i) encode(i);
  }
  std::vector<Pair> scratch;
  ParallelRadixSort(
      pairs, scratch, layout.NumKeyBytes(),
      [](const Pair& p, unsigned b) { return KeyByte(p, b); }, pool);
  std::vector<CellGroup> groups;
  size_t begin = 0;
  for (size_t i = 1; i <= num_new; ++i) {
    if (i == num_new || !SameKey(pairs[i], pairs[begin])) {
      groups.push_back(CellGroup{pairs[begin].pid, begin, i - begin});
      begin = i;
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const CellGroup& a, const CellGroup& b) {
              return a.first_pid < b.first_pid;
            });
  grouped_pids->resize(num_new);
  uint64_t dst = 0;
  for (CellGroup& g : groups) {
    for (uint64_t i = 0; i < g.count; ++i) {
      (*grouped_pids)[dst + i] = pairs[g.begin + i].pid;
    }
    g.begin = dst;
    dst += g.count;
  }
  *out_groups = std::move(groups);
}

/// Hash fallback of the batch grouping (no valid key layout). The forward
/// scan yields first-encounter group order and ascending pids directly.
void GroupBatchHashed(const Dataset& data, const GridGeometry& geom,
                      size_t first_new, std::vector<uint32_t>* grouped_pids,
                      std::vector<CellGroup>* out_groups) {
  std::unordered_map<CellCoord, uint32_t, CellCoordHash> index;
  std::vector<std::vector<uint32_t>> lists;
  for (size_t i = first_new; i < data.size(); ++i) {
    const CellCoord coord = geom.CellOf(data.point(i));
    auto [it, inserted] =
        index.emplace(coord, static_cast<uint32_t>(lists.size()));
    if (inserted) lists.emplace_back();
    lists[it->second].push_back(static_cast<uint32_t>(i));
  }
  grouped_pids->clear();
  out_groups->clear();
  for (const std::vector<uint32_t>& list : lists) {
    out_groups->push_back(
        CellGroup{list.front(), grouped_pids->size(), list.size()});
    grouped_pids->insert(grouped_pids->end(), list.begin(), list.end());
  }
}

}  // namespace

Status CellSet::BuildGroups(const Dataset& data, ThreadPool* pool) {
  Stopwatch watch;
  const size_t n = data.size();
  const size_t dim = data.dim();
  const bool parallel =
      pool != nullptr && pool->num_threads() > 1 && n >= 4096;

  // Column-wise float bounds. floor(x * inv_side) is monotonic, so lattice
  // bounds — and with them the key layout — follow from these directly.
  // The same pass rejects coordinates CellIndexOf cannot bin: NaN is
  // flagged per coordinate (min/max would skip it), while infinite and
  // out-of-lattice values surface in the bounds, checked once below.
  std::array<float, CellCoord::kMaxDim> fmin;
  std::array<float, CellCoord::kMaxDim> fmax;
  for (size_t d = 0; d < dim; ++d) {
    fmin[d] = fmax[d] = data.point(0)[d];
  }
  bool has_nan = false;
  size_t num_chunks = 1;
  if (parallel) num_chunks = pool->num_threads() * 4;
  const size_t chunk_len = (n + num_chunks - 1) / num_chunks;
  if (num_chunks > 1) {
    std::vector<std::array<float, CellCoord::kMaxDim>> lo(num_chunks, fmin);
    std::vector<std::array<float, CellCoord::kMaxDim>> hi(num_chunks, fmax);
    std::vector<uint8_t> nan(num_chunks, 0);
    ParallelFor(
        *pool, num_chunks,
        [&](size_t c) {
          const size_t end = std::min(n, (c + 1) * chunk_len);
          bool chunk_nan = false;
          for (size_t i = c * chunk_len; i < end; ++i) {
            const float* p = data.point(i);
            for (size_t d = 0; d < dim; ++d) {
              chunk_nan |= p[d] != p[d];
              lo[c][d] = std::min(lo[c][d], p[d]);
              hi[c][d] = std::max(hi[c][d], p[d]);
            }
          }
          nan[c] = chunk_nan;
        },
        /*chunk=*/1);
    for (size_t c = 0; c < num_chunks; ++c) {
      has_nan |= nan[c] != 0;
      for (size_t d = 0; d < dim; ++d) {
        fmin[d] = std::min(fmin[d], lo[c][d]);
        fmax[d] = std::max(fmax[d], hi[c][d]);
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const float* p = data.point(i);
      for (size_t d = 0; d < dim; ++d) {
        has_nan |= p[d] != p[d];
        fmin[d] = std::min(fmin[d], p[d]);
        fmax[d] = std::max(fmax[d], p[d]);
      }
    }
  }
  bool binnable = !has_nan;
  for (size_t d = 0; d < dim; ++d) {
    binnable = binnable && geom_.Binnable(fmin[d]) && geom_.Binnable(fmax[d]);
  }
  if (!binnable) return geom_.CheckBinnable(data.raw(), n, 0);

  const CellKeyLayout layout =
      MakeCellKeyLayout(geom_, fmin.data(), fmax.data());
  if (!layout.Fits128()) {
    // Grid too wide for a 128-bit key: hash fallback.
    watch.Reset();
    BuildHashedGroups(data);
    breakdown_.scatter_seconds = watch.ElapsedSeconds();
    return Status::OK();
  }
  // Persist the layout plus the lattice bounds it covers: IngestAppended
  // encodes batches against them and re-keys when a batch escapes.
  layout_ = layout;
  for (size_t d = 0; d < dim; ++d) {
    lat_min_[d] = geom_.CellIndexOf(fmin[d]);
    lat_max_[d] = geom_.CellIndexOf(fmax[d]);
  }
  layout_valid_ = true;

  if (layout.Fits64()) {
    std::vector<Key64Pair> pairs(n);
    auto encode = [&](size_t i) {
      const CellKey128 key = EncodeCellKey(layout, geom_, data.point(i));
      pairs[i] = Key64Pair{key.lo, static_cast<uint32_t>(i)};
    };
    if (parallel) {
      ParallelFor(*pool, n, encode);
    } else {
      for (size_t i = 0; i < n; ++i) encode(i);
    }
    breakdown_.key_seconds = watch.ElapsedSeconds();
    watch.Reset();
    std::vector<Key64Pair> scratch;
    ParallelRadixSort(
        pairs, scratch, layout.NumKeyBytes(),
        [](const Key64Pair& p, unsigned b) { return KeyByte(p, b); }, pool);
    breakdown_.sort_seconds = watch.ElapsedSeconds();
    watch.Reset();
    EmitCsrGroups(data, geom_, pairs, pool, &cells_, &cell_point_offsets_,
                  &point_ids_);
  } else {
    std::vector<Key128Pair> pairs(n);
    auto encode = [&](size_t i) {
      const CellKey128 key = EncodeCellKey(layout, geom_, data.point(i));
      pairs[i] = Key128Pair{key.lo, key.hi, static_cast<uint32_t>(i)};
    };
    if (parallel) {
      ParallelFor(*pool, n, encode);
    } else {
      for (size_t i = 0; i < n; ++i) encode(i);
    }
    breakdown_.key_seconds = watch.ElapsedSeconds();
    watch.Reset();
    std::vector<Key128Pair> scratch;
    ParallelRadixSort(
        pairs, scratch, layout.NumKeyBytes(),
        [](const Key128Pair& p, unsigned b) { return KeyByte(p, b); }, pool);
    breakdown_.sort_seconds = watch.ElapsedSeconds();
    watch.Reset();
    EmitCsrGroups(data, geom_, pairs, pool, &cells_, &cell_point_offsets_,
                  &point_ids_);
  }
  breakdown_.scatter_seconds = watch.ElapsedSeconds();
  breakdown_.sorted_path_used = true;
  return Status::OK();
}

void CellSet::BuildHashedGroups(const Dataset& data) {
  // One forward scan over points, growing one id list per cell in an
  // unordered_map — the fallback when no 128-bit key exists.
  std::unordered_map<CellCoord, uint32_t, CellCoordHash> index;
  index.reserve(data.size() / 4 + 16);
  std::vector<std::vector<uint32_t>> groups;
  for (size_t i = 0; i < data.size(); ++i) {
    const CellCoord coord = geom_.CellOf(data.point(i));
    auto [it, inserted] =
        index.emplace(coord, static_cast<uint32_t>(cells_.size()));
    if (inserted) {
      cells_.emplace_back();
      cells_.back().coord = coord;
      groups.emplace_back();
    }
    groups[it->second].push_back(static_cast<uint32_t>(i));
  }
  // Materialize the same CSR layout the sorted path emits.
  cell_point_offsets_.resize(cells_.size() + 1);
  cell_point_offsets_[0] = 0;
  for (size_t c = 0; c < groups.size(); ++c) {
    cell_point_offsets_[c + 1] = cell_point_offsets_[c] + groups[c].size();
  }
  point_ids_.resize(data.size());
  for (size_t c = 0; c < groups.size(); ++c) {
    std::copy(groups[c].begin(), groups[c].end(),
              point_ids_.begin() +
                  static_cast<ptrdiff_t>(cell_point_offsets_[c]));
  }
}

void CellSet::AssignPartitions(size_t num_partitions, uint64_t seed) {
  // Pseudo random partitioning (Alg. 2, lines 5-8) — "randomly divides the
  // entire set of cells to partitions of the same size" (Sec. 4.1): a
  // seeded shuffle dealt round-robin, so partition sizes differ by at most
  // one cell.
  Rng rng(seed);
  partitions_ = RandomDisjointSplit(cells_.size(), num_partitions, rng);
  partition_points_.assign(partitions_.size(), 0);
  for (uint32_t pid = 0; pid < partitions_.size(); ++pid) {
    size_t points = 0;
    for (const uint32_t cid : partitions_[pid]) {
      cells_[cid].owner_partition = pid;
      points += cells_[cid].point_ids.size();
    }
    partition_points_[pid] = points;
  }
}

StatusOr<CellSet> CellSet::Build(const Dataset& data,
                                 const GridGeometry& geom,
                                 size_t num_partitions, uint64_t seed,
                                 ThreadPool* pool) {
  if (data.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (data.dim() != geom.dim()) {
    return Status::InvalidArgument("dataset dim does not match grid dim");
  }
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  CellSet set(geom);
  set.target_partitions_ = num_partitions;
  set.seed_ = seed;
  RPDBSCAN_RETURN_IF_ERROR(set.BuildGroups(data, pool));
  // Spans into the now-final flat array; both grouping paths share this.
  for (size_t c = 0; c < set.cells_.size(); ++c) {
    set.cells_[c].point_ids = PointIdSpan(
        set.point_ids_.data() + set.cell_point_offsets_[c],
        set.cell_point_offsets_[c + 1] - set.cell_point_offsets_[c]);
  }
  set.index_.Build(set.cells_);
  set.AssignPartitions(num_partitions, seed);
  return set;
}

Status CellSet::IngestAppended(const Dataset& data, size_t first_new,
                               ThreadPool* pool,
                               std::vector<uint32_t>* touched) {
  if (touched != nullptr) touched->clear();
  if (data.dim() != geom_.dim()) {
    return Status::InvalidArgument("dataset dim does not match grid dim");
  }
  if (first_new != point_ids_.size() || first_new > data.size()) {
    return Status::InvalidArgument(
        "ingest suffix must start exactly at the binned point count");
  }
  const size_t n = data.size();
  if (first_new == n) return Status::OK();  // empty batch

  // One pass over the batch's coordinates. It rejects any coordinate
  // CellIndexOf cannot bin before binning it, and it detects points out
  // of bounds (the lattice bounds are NOT immutable after Build): the
  // running bounds are extended by the batch, and when any batch point
  // escapes the current key layout's coverage, the layout is rebuilt
  // from the extended bounds before encoding — EncodeCellKey would
  // otherwise wrap the offset and alias distinct cells onto one key. Only
  // batch *grouping* reads the layout, so a re-key never perturbs the
  // existing CSR or cell numbering. The bounds are committed only once
  // the whole batch has passed, so a rejected batch changes nothing.
  const size_t dim = geom_.dim();
  int64_t lat_min[CellCoord::kMaxDim];
  int64_t lat_max[CellCoord::kMaxDim];
  std::copy(lat_min_, lat_min_ + dim, lat_min);
  std::copy(lat_max_, lat_max_ + dim, lat_max);
  bool covered = true;
  for (size_t i = first_new; i < n; ++i) {
    const float* p = data.point(i);
    for (size_t d = 0; d < dim; ++d) {
      if (!geom_.Binnable(p[d])) return geom_.CheckBinnable(p, 1, i);
    }
    if (!layout_valid_) continue;
    if (covered && !CellKeyLayoutCovers(layout_, geom_, p)) covered = false;
    for (size_t d = 0; d < dim; ++d) {
      const int64_t idx = geom_.CellIndexOf(p[d]);
      lat_min[d] = std::min(lat_min[d], idx);
      lat_max[d] = std::max(lat_max[d], idx);
    }
  }
  if (layout_valid_) {
    std::copy(lat_min, lat_min + dim, lat_min_);
    std::copy(lat_max, lat_max + dim, lat_max_);
    if (!covered) {
      layout_ = MakeCellKeyLayoutFromLattice(geom_.dim(), lat_min_, lat_max_);
      ++rekey_count_;
      if (!layout_.Fits128()) {
        layout_valid_ = false;  // grid grew too wide: hash grouping from here
      }
    }
  }

  // Group the batch by cell. Both paths yield groups in first-encounter
  // (== ascending-first-pid) order with pids ascending within each group;
  // distinct coords map to distinct groups, so each cell receives at most
  // one group.
  std::vector<uint32_t> grouped_pids;
  std::vector<CellGroup> groups;
  if (layout_valid_) {
    if (layout_.Fits64()) {
      GroupBatchSorted<Key64Pair>(data, geom_, layout_, first_new, pool,
                                  &grouped_pids, &groups);
    } else {
      GroupBatchSorted<Key128Pair>(data, geom_, layout_, first_new, pool,
                                   &grouped_pids, &groups);
    }
  } else {
    GroupBatchHashed(data, geom_, first_new, &grouped_pids, &groups);
  }

  // Resolve each group to its cell id, appending new cells in the batch's
  // first-encounter order — their ids continue the dense numbering, which
  // is exactly what a from-scratch Build over all of `data` assigns (every
  // new cell's first pid exceeds every existing cell's).
  const size_t old_cells = cells_.size();
  std::vector<uint32_t> group_cell(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const CellCoord coord =
        geom_.CellOf(data.point(grouped_pids[groups[g].begin]));
    const int64_t found = index_.Find(coord, cells_);
    if (found >= 0) {
      group_cell[g] = static_cast<uint32_t>(found);
    } else {
      group_cell[g] = static_cast<uint32_t>(cells_.size());
      cells_.emplace_back();
      cells_.back().coord = coord;
    }
  }

  // Splice the CSR arrays: count each cell's additions, prefix-sum the new
  // offsets, then scatter old runs first and batch runs after them —
  // old pids precede new ones and both are ascending, preserving the
  // per-cell ascending order Build produces.
  const size_t num_cells = cells_.size();
  std::vector<uint64_t> adds(num_cells, 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    adds[group_cell[g]] += groups[g].count;
  }
  std::vector<uint64_t> new_offsets(num_cells + 1);
  new_offsets[0] = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    const uint64_t old_count =
        c < old_cells ? cell_point_offsets_[c + 1] - cell_point_offsets_[c]
                      : 0;
    new_offsets[c + 1] = new_offsets[c] + old_count + adds[c];
  }
  std::vector<uint32_t> new_ids(n);
  for (size_t c = 0; c < old_cells; ++c) {
    std::copy(point_ids_.begin() +
                  static_cast<ptrdiff_t>(cell_point_offsets_[c]),
              point_ids_.begin() +
                  static_cast<ptrdiff_t>(cell_point_offsets_[c + 1]),
              new_ids.begin() + static_cast<ptrdiff_t>(new_offsets[c]));
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    const uint32_t c = group_cell[g];
    const uint64_t old_count =
        c < old_cells ? cell_point_offsets_[c + 1] - cell_point_offsets_[c]
                      : 0;
    std::copy(grouped_pids.begin() + static_cast<ptrdiff_t>(groups[g].begin),
              grouped_pids.begin() +
                  static_cast<ptrdiff_t>(groups[g].begin + groups[g].count),
              new_ids.begin() +
                  static_cast<ptrdiff_t>(new_offsets[c] + old_count));
  }
  cell_point_offsets_ = std::move(new_offsets);
  point_ids_ = std::move(new_ids);
  for (size_t c = 0; c < num_cells; ++c) {
    cells_[c].point_ids = PointIdSpan(
        point_ids_.data() + cell_point_offsets_[c],
        cell_point_offsets_[c + 1] - cell_point_offsets_[c]);
  }
  index_.Build(cells_);
  // Re-draw the partition split over the grown cell count from the
  // build-time seed — bit-identical to what Build would draw.
  AssignPartitions(target_partitions_, seed_);

  if (touched != nullptr) {
    touched->assign(group_cell.begin(), group_cell.end());
    std::sort(touched->begin(), touched->end());
    touched->erase(std::unique(touched->begin(), touched->end()),
                   touched->end());
  }
  return Status::OK();
}

size_t CellSet::MaxPartitionPoints() const {
  size_t best = 0;
  for (const size_t n : partition_points_) best = std::max(best, n);
  return best;
}

size_t CellSet::MinPartitionPoints() const {
  if (partition_points_.empty()) return 0;
  size_t best = partition_points_[0];
  for (const size_t n : partition_points_) best = std::min(best, n);
  return best;
}

}  // namespace rpdbscan
