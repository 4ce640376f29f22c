/// Out-of-core Phase I-1 (CellSet::BuildExternal): external radix sort of
/// (cell key, point id) pairs. The in-RAM sorted path encodes all n pairs
/// at once and radix-sorts them in place; past-RAM inputs cannot afford
/// the 2 * 16..24 bytes/point that costs, so this build streams the
/// mapped input in budget-sized chunks, sorts each chunk with the same
/// LSD passes (parallel/parallel_sort.h), spills each sorted chunk as a
/// packed run file, and k-way merges the runs into the CSR cell layout.
///
/// Bit-identity with the in-RAM build rests on two invariants:
///  * chunks cover ascending, contiguous point-id ranges and the radix
///    sort is stable, so every run lists equal keys in ascending pid
///    order and run r's pids all precede run r+1's;
///  * the merge breaks key ties by run index, so the merged stream lists
///    each cell's pids ascending, and each cell's first merged pid is its
///    global first-encounter pid — ordering cells by it reproduces the
///    in-RAM first-encounter numbering exactly.
/// The merged pid stream is staged to one more spill file in key order,
/// then scattered sequentially into the final CSR array once the
/// first-pid group ordering (and with it every cell's offset) is known.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "core/cell_key.h"
#include "core/cell_set.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_sort.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace {

namespace fs = std::filesystem;

/// In-memory pair flavors, mirroring cell_set.cc's sorted path.
struct Key64Pair {
  uint64_t key;
  uint32_t pid;
};
struct Key128Pair {
  uint64_t lo;
  uint64_t hi;
  uint32_t pid;
};

inline uint8_t KeyByte(const Key64Pair& p, unsigned b) {
  return static_cast<uint8_t>(p.key >> (8 * b));
}
inline uint8_t KeyByte(const Key128Pair& p, unsigned b) {
  return b < 8 ? static_cast<uint8_t>(p.lo >> (8 * b))
               : static_cast<uint8_t>(p.hi >> (8 * (b - 8)));
}

/// Packed on-disk record sizes (no padding, little-endian fields).
template <typename Pair>
constexpr size_t RecordBytes() {
  return std::is_same_v<Pair, Key64Pair> ? 12 : 20;
}

template <typename Pair>
void PackRecord(const Pair& p, uint8_t* dst) {
  if constexpr (std::is_same_v<Pair, Key64Pair>) {
    std::memcpy(dst, &p.key, 8);
    std::memcpy(dst + 8, &p.pid, 4);
  } else {
    std::memcpy(dst, &p.lo, 8);
    std::memcpy(dst + 8, &p.hi, 8);
    std::memcpy(dst + 16, &p.pid, 4);
  }
}

/// Merge-side record: always 128-bit key (hi = 0 for the 64-bit flavor).
struct MergeRec {
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint32_t pid = 0;
};

template <typename Pair>
void UnpackRecord(const uint8_t* src, MergeRec* out) {
  if constexpr (std::is_same_v<Pair, Key64Pair>) {
    std::memcpy(&out->lo, src, 8);
    out->hi = 0;
    std::memcpy(&out->pid, src + 8, 4);
  } else {
    std::memcpy(&out->lo, src, 8);
    std::memcpy(&out->hi, src + 8, 8);
    std::memcpy(&out->pid, src + 16, 4);
  }
}

/// Bookkeeping for the transient buffers the build owns, so the smoke
/// test can assert the build's own accounting never exceeded the budget.
class MemoryAccountant {
 public:
  void Acquire(size_t bytes) {
    cur_ += bytes;
    peak_ = std::max(peak_, cur_);
  }
  void Release(size_t bytes) { cur_ -= std::min<uint64_t>(bytes, cur_); }
  uint64_t peak() const { return peak_; }

 private:
  uint64_t cur_ = 0;
  uint64_t peak_ = 0;
};

/// Buffered sequential reader over one spill run.
template <typename Pair>
class RunReader {
 public:
  Status Open(const fs::path& path, uint64_t num_records,
              size_t buffer_bytes, MemoryAccountant* mem) {
    in_.open(path, std::ios::binary);
    if (!in_) {
      return Status::IOError("external phase1 merge: cannot reopen run " +
                             path.string());
    }
    remaining_ = num_records;
    // Whole records per refill.
    const size_t rec = RecordBytes<Pair>();
    buf_.resize(std::max<size_t>(buffer_bytes / rec, 1) * rec);
    mem_ = mem;
    mem_->Acquire(buf_.capacity());
    return Status::OK();
  }

  ~RunReader() {
    if (mem_ != nullptr) mem_->Release(buf_.capacity());
  }

  /// False at end of run; IO failures surface as a poisoned record count
  /// checked by the caller via ok().
  bool Next(MergeRec* out) {
    if (remaining_ == 0) return false;
    const size_t rec = RecordBytes<Pair>();
    if (pos_ == avail_) {
      const uint64_t want =
          std::min<uint64_t>(remaining_, buf_.size() / rec);
      in_.read(reinterpret_cast<char*>(buf_.data()),
               static_cast<std::streamsize>(want * rec));
      if (in_.gcount() != static_cast<std::streamsize>(want * rec)) {
        ok_ = false;
        remaining_ = 0;
        return false;
      }
      pos_ = 0;
      avail_ = static_cast<size_t>(want * rec);
    }
    UnpackRecord<Pair>(buf_.data() + pos_, out);
    pos_ += rec;
    --remaining_;
    return true;
  }

  bool ok() const { return ok_; }

 private:
  std::ifstream in_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  size_t avail_ = 0;
  uint64_t remaining_ = 0;
  bool ok_ = true;
  MemoryAccountant* mem_ = nullptr;
};

/// One cell discovered by the merge, in global key order.
struct KeyGroup {
  uint64_t lo;
  uint64_t hi;
  uint32_t first_pid;
  uint64_t count;
};

struct RunMeta {
  fs::path path;
  uint64_t records = 0;
};

/// Creates a unique spill directory under `base` (or the system temp dir).
StatusOr<fs::path> MakeSpillDir(const std::string& base) {
  static std::atomic<uint64_t> counter{0};
  std::error_code ec;
  fs::path root = base.empty() ? fs::temp_directory_path(ec) : fs::path(base);
  if (ec) return Status::IOError("external phase1: no temp directory");
  const fs::path dir =
      root / ("rpdbscan-ext-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("external phase1: cannot create spill dir " +
                           dir.string());
  }
  return dir;
}

/// Deletes the spill directory on scope exit (errors ignored: spill files
/// are disposable and the build has already succeeded or failed).
struct SpillDirGuard {
  fs::path dir;
  ~SpillDirGuard() {
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

/// Heap entry ordered ascending by (key, run index); the run-index
/// tie-break is what keeps equal-key pids globally ascending.
struct HeapEntry {
  MergeRec rec;
  uint32_t run;
};
struct HeapGreater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.rec.hi != b.rec.hi) return a.rec.hi > b.rec.hi;
    if (a.rec.lo != b.rec.lo) return a.rec.lo > b.rec.lo;
    return a.run > b.run;
  }
};

}  // namespace

namespace external_detail {

/// The external build for one pair flavor. Fills the CellSet's grouping
/// arrays (cells_/cell_point_offsets_/point_ids_) exactly as
/// BuildGroups would; the caller finishes spans/index/partitions.
template <typename Pair>
Status RunExternal(const PointSource& source, const GridGeometry& geom,
                   const CellKeyLayout& layout,
                   const ExternalBuildOptions& opts, ThreadPool* pool,
                   std::vector<CellData>* cells,
                   std::vector<uint64_t>* offsets,
                   std::vector<uint32_t>* point_ids,
                   ExternalBuildStats* stats) {
  const size_t n = source.size();
  const size_t dim = source.dim();
  const size_t budget = std::max<size_t>(opts.memory_budget_bytes, 1);
  MemoryAccountant mem;
  Stopwatch watch;

  auto dir_or = MakeSpillDir(opts.spill_dir);
  RPDBSCAN_RETURN_IF_ERROR(dir_or.status());
  SpillDirGuard guard{*dir_or};
  const fs::path& dir = guard.dir;

  // Chunk size: one chunk keeps pairs + radix scratch + its slice of the
  // mapped payload resident, all inside the budget. Floors: enough points
  // to make progress, and few enough runs that the merge can hold every
  // run's file open (fd budget), which only binds for inputs millions of
  // times the budget.
  const size_t per_point = 2 * sizeof(Pair) + dim * sizeof(float);
  size_t chunk_points = budget / per_point;
  chunk_points = std::max<size_t>(chunk_points, 64);
  chunk_points = std::max<size_t>(chunk_points, (n + 511) / 512);
  const size_t num_chunks = (n + chunk_points - 1) / chunk_points;

  const size_t staging_bytes =
      std::min<size_t>(std::max<size_t>(budget / 8, 64u << 10), 4u << 20);

  // --- Spill pass: encode, sort, write one run per chunk. ---
  std::vector<RunMeta> runs;
  runs.reserve(num_chunks);
  std::vector<uint8_t> staging(staging_bytes);
  mem.Acquire(staging.capacity());
  {
    std::vector<Pair> pairs;
    std::vector<Pair> scratch;
    pairs.reserve(std::min(chunk_points, n));
    scratch.reserve(std::min(chunk_points, n));
    mem.Acquire(2 * pairs.capacity() * sizeof(Pair));
    for (size_t first = 0; first < n; first += chunk_points) {
      const size_t count = std::min(chunk_points, n - first);
      const float* chunk = source.PointData(first);
      pairs.resize(count);
      auto encode = [&](size_t i) {
        const CellKey128 key = EncodeCellKey(layout, geom, chunk + i * dim);
        if constexpr (std::is_same_v<Pair, Key64Pair>) {
          pairs[i] = Key64Pair{key.lo, static_cast<uint32_t>(first + i)};
        } else {
          pairs[i] =
              Key128Pair{key.lo, key.hi, static_cast<uint32_t>(first + i)};
        }
      };
      const bool parallel =
          pool != nullptr && pool->num_threads() > 1 && count >= 4096;
      if (parallel) {
        ParallelFor(*pool, count, encode);
      } else {
        for (size_t i = 0; i < count; ++i) encode(i);
      }
      ParallelRadixSort(
          pairs, scratch, layout.NumKeyBytes(),
          [](const Pair& p, unsigned b) { return KeyByte(p, b); }, pool);

      const fs::path run_path =
          dir / ("run-" + std::to_string(runs.size()) + ".bin");
      std::ofstream out(run_path, std::ios::binary);
      if (!out) {
        return Status::IOError("external phase1 spill: cannot create " +
                               run_path.string());
      }
      constexpr size_t kRec = RecordBytes<Pair>();
      size_t staged = 0;
      for (size_t i = 0; i < count; ++i) {
        if (staged + kRec > staging.size()) {
          out.write(reinterpret_cast<const char*>(staging.data()),
                    static_cast<std::streamsize>(staged));
          staged = 0;
        }
        PackRecord(pairs[i], staging.data() + staged);
        staged += kRec;
      }
      if (staged > 0) {
        out.write(reinterpret_cast<const char*>(staging.data()),
                  static_cast<std::streamsize>(staged));
      }
      if (!out) {
        return Status::IOError("external phase1 spill: write failure on " +
                               run_path.string());
      }
      out.close();
      runs.push_back(RunMeta{run_path, count});
      stats->spill_bytes += static_cast<uint64_t>(count) * kRec;
      source.Release(first, count);
    }
    mem.Release(2 * pairs.capacity() * sizeof(Pair));
  }
  stats->chunks = num_chunks;
  stats->runs = runs.size();
  stats->spill_seconds = watch.ElapsedSeconds();
  watch.Reset();

  // --- Merge sweep: k-way merge in (key, run) order, discovering each
  // cell's (key, first pid, count) and staging the merged pid stream to
  // one sequential spill file. ---
  std::vector<KeyGroup> groups;
  const fs::path pid_path = dir / "grouped-pids.bin";
  {
    std::vector<RunReader<Pair>> readers(runs.size());
    const size_t reader_bytes = std::clamp<size_t>(
        budget / (2 * std::max<size_t>(runs.size(), 1)), 4u << 10, 4u << 20);
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater> heap;
    for (size_t r = 0; r < runs.size(); ++r) {
      RPDBSCAN_RETURN_IF_ERROR(readers[r].Open(runs[r].path, runs[r].records,
                                               reader_bytes, &mem));
      MergeRec rec;
      if (readers[r].Next(&rec)) {
        heap.push(HeapEntry{rec, static_cast<uint32_t>(r)});
      }
    }
    std::ofstream pid_out(pid_path, std::ios::binary);
    if (!pid_out) {
      return Status::IOError("external phase1 merge: cannot create " +
                             pid_path.string());
    }
    size_t staged = 0;
    bool have_cur = false;
    KeyGroup cur{};
    while (!heap.empty()) {
      const HeapEntry top = heap.top();
      heap.pop();
      if (!have_cur || top.rec.lo != cur.lo || top.rec.hi != cur.hi) {
        if (have_cur) groups.push_back(cur);
        cur = KeyGroup{top.rec.lo, top.rec.hi, top.rec.pid, 0};
        have_cur = true;
      }
      ++cur.count;
      if (staged + sizeof(uint32_t) > staging.size()) {
        pid_out.write(reinterpret_cast<const char*>(staging.data()),
                      static_cast<std::streamsize>(staged));
        staged = 0;
      }
      std::memcpy(staging.data() + staged, &top.rec.pid, sizeof(uint32_t));
      staged += sizeof(uint32_t);
      MergeRec next;
      if (readers[top.run].Next(&next)) {
        heap.push(HeapEntry{next, top.run});
      }
    }
    if (have_cur) groups.push_back(cur);
    if (staged > 0) {
      pid_out.write(reinterpret_cast<const char*>(staging.data()),
                    static_cast<std::streamsize>(staged));
    }
    if (!pid_out) {
      return Status::IOError("external phase1 merge: write failure on " +
                             pid_path.string());
    }
    for (size_t r = 0; r < runs.size(); ++r) {
      if (!readers[r].ok()) {
        return Status::IOError("external phase1 merge: short read on " +
                               runs[r].path.string());
      }
    }
  }
  stats->spill_bytes += static_cast<uint64_t>(n) * sizeof(uint32_t);

  // --- CSR emit: order cells by first-encounter pid, then scatter the
  // key-ordered pid stream into each cell's slice. ---
  const size_t num_cells = groups.size();
  // Key-order index -> dense cell id (position after the first-pid sort).
  std::vector<uint32_t> order(num_cells);
  for (size_t g = 0; g < num_cells; ++g) order[g] = static_cast<uint32_t>(g);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return groups[a].first_pid < groups[b].first_pid;
  });
  std::vector<uint32_t> cell_of_key(num_cells);
  for (size_t g = 0; g < num_cells; ++g) {
    cell_of_key[order[g]] = static_cast<uint32_t>(g);
  }
  cells->resize(num_cells);
  offsets->resize(num_cells + 1);
  (*offsets)[0] = 0;
  for (size_t g = 0; g < num_cells; ++g) {
    (*offsets)[g + 1] = (*offsets)[g] + groups[order[g]].count;
    (*cells)[g].coord = DecodeCellKey(
        layout, CellKey128{groups[order[g]].lo, groups[order[g]].hi});
  }
  point_ids->resize(n);
  {
    std::ifstream pid_in(pid_path, std::ios::binary);
    if (!pid_in) {
      return Status::IOError("external phase1 merge: cannot reopen " +
                             pid_path.string());
    }
    size_t key_idx = 0;
    uint64_t left_in_group = num_cells > 0 ? groups[0].count : 0;
    uint64_t dst = num_cells > 0 ? (*offsets)[cell_of_key[0]] : 0;
    uint64_t read_total = 0;
    while (read_total < n) {
      const size_t want = std::min<uint64_t>(
          (n - read_total), staging.size() / sizeof(uint32_t));
      pid_in.read(reinterpret_cast<char*>(staging.data()),
                  static_cast<std::streamsize>(want * sizeof(uint32_t)));
      if (pid_in.gcount() !=
          static_cast<std::streamsize>(want * sizeof(uint32_t))) {
        return Status::IOError("external phase1 merge: short read on " +
                               pid_path.string());
      }
      const uint32_t* src = reinterpret_cast<const uint32_t*>(staging.data());
      size_t i = 0;
      while (i < want) {
        const size_t take =
            static_cast<size_t>(std::min<uint64_t>(left_in_group, want - i));
        std::memcpy(point_ids->data() + dst, src + i,
                    take * sizeof(uint32_t));
        dst += take;
        left_in_group -= take;
        i += take;
        if (left_in_group == 0 && ++key_idx < num_cells) {
          left_in_group = groups[key_idx].count;
          dst = (*offsets)[cell_of_key[key_idx]];
        }
      }
      read_total += want;
    }
  }
  mem.Release(staging.capacity());
  stats->merge_seconds = watch.ElapsedSeconds();
  stats->peak_accounted_bytes = mem.peak();
  stats->external_path_used = true;
  return Status::OK();
}

}  // namespace external_detail

StatusOr<CellSet> CellSet::BuildExternal(const PointSource& source,
                                         const GridGeometry& geom,
                                         size_t num_partitions, uint64_t seed,
                                         const ExternalBuildOptions& opts,
                                         ThreadPool* pool,
                                         ExternalBuildStats* stats) {
  ExternalBuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = ExternalBuildStats{};
  if (source.size() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (source.dim() != geom.dim()) {
    return Status::InvalidArgument("dataset dim does not match grid dim");
  }
  if (source.dim() > CellCoord::kMaxDim) {
    return Status::InvalidArgument("dimension exceeds CellCoord::kMaxDim");
  }
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }

  // Streamed column-bounds pass (the budget is the only resident payload):
  // same monotonic floor(x * inv_side) argument as the in-RAM path, so the
  // key layout it produces is identical. Like the in-RAM pass it flags
  // NaN per coordinate and leaves infinite and out-of-lattice values to
  // the bounds check below; only a failed check rescans, to name the
  // first offending point.
  Stopwatch watch;
  const size_t dim = source.dim();
  const size_t scan_budget = std::max<size_t>(opts.memory_budget_bytes, 1);
  std::array<float, CellCoord::kMaxDim> fmin{};
  std::array<float, CellCoord::kMaxDim> fmax{};
  bool binnable = true;
  {
    const float* p0 = source.PointData(0);
    for (size_t d = 0; d < dim; ++d) fmin[d] = fmax[d] = p0[d];
    ChunkIterator it(source, scan_budget);
    PointChunk chunk;
    while (it.Next(&chunk)) {
      for (size_t i = 0; i < chunk.count; ++i) {
        const float* p = chunk.data + i * dim;
        for (size_t d = 0; d < dim; ++d) {
          binnable = binnable && p[d] == p[d];
          fmin[d] = std::min(fmin[d], p[d]);
          fmax[d] = std::max(fmax[d], p[d]);
        }
      }
    }
  }
  for (size_t d = 0; d < dim; ++d) {
    binnable = binnable && geom.Binnable(fmin[d]) && geom.Binnable(fmax[d]);
  }
  if (!binnable) {
    ChunkIterator it(source, scan_budget);
    PointChunk chunk;
    while (it.Next(&chunk)) {
      RPDBSCAN_RETURN_IF_ERROR(
          geom.CheckBinnable(chunk.data, chunk.count, chunk.first));
    }
  }
  const CellKeyLayout layout =
      MakeCellKeyLayout(geom, fmin.data(), fmax.data());
  stats->bounds_seconds = watch.ElapsedSeconds();
  watch.Reset();

  if (!layout.Fits128()) {
    // Too wide for any sorted key: the out-of-core representation does not
    // exist, so run the in-RAM hash fallback over a borrowed view (same
    // fallback Build takes). external_path_used stays false.
    const Dataset view = source.BorrowedView();
    return CellSet::Build(view, geom, num_partitions, seed, pool);
  }

  CellSet set(geom);
  set.target_partitions_ = num_partitions;
  set.seed_ = seed;
  Status built = layout.Fits64()
                     ? external_detail::RunExternal<Key64Pair>(
                           source, geom, layout, opts, pool, &set.cells_,
                           &set.cell_point_offsets_, &set.point_ids_, stats)
                     : external_detail::RunExternal<Key128Pair>(
                           source, geom, layout, opts, pool, &set.cells_,
                           &set.cell_point_offsets_, &set.point_ids_, stats);
  RPDBSCAN_RETURN_IF_ERROR(built);

  // Same persisted state as BuildGroups: the layout and the lattice
  // bounds it covers (IngestAppended re-keys against them).
  set.layout_ = layout;
  for (size_t d = 0; d < dim; ++d) {
    set.lat_min_[d] = geom.CellIndexOf(fmin[d]);
    set.lat_max_[d] = geom.CellIndexOf(fmax[d]);
  }
  set.layout_valid_ = true;
  set.breakdown_.key_seconds = stats->bounds_seconds;
  set.breakdown_.sort_seconds = stats->spill_seconds;
  set.breakdown_.scatter_seconds = stats->merge_seconds;
  set.breakdown_.sorted_path_used = true;

  for (size_t c = 0; c < set.cells_.size(); ++c) {
    set.cells_[c].point_ids = PointIdSpan(
        set.point_ids_.data() + set.cell_point_offsets_[c],
        set.cell_point_offsets_[c + 1] - set.cell_point_offsets_[c]);
  }
  set.index_.Build(set.cells_);
  set.AssignPartitions(num_partitions, seed);
  return StatusOr<CellSet>(std::move(set));
}

}  // namespace rpdbscan
