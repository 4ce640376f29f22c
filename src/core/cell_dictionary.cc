#include "core/cell_dictionary.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>

#include "parallel/parallel_for.h"
#include "util/bitstream.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace {

// Leaf width of the fragments' kd-trees, and the candidates per
// BoxPairBoundsFn call in QueryCell's partial leaves: a leaf is one call.
constexpr size_t kLeafWidth = 16;

bool SubcellIdLess(const SubcellId& a, const SubcellId& b) {
  if (a.hi != b.hi) return a.hi < b.hi;
  return a.lo < b.lo;
}

// Runs fn(i) for every i in [0, n): on `pool` when given, inline otherwise.
template <typename Fn>
void ForEachIndex(ThreadPool* pool, size_t n, Fn&& fn) {
  if (pool != nullptr) {
    ParallelFor(*pool, n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

// First index in [lo, end) at which `before` fails, for a `before` that
// holds on a prefix of [lo, end): an exponential probe from lo, then a
// binary search of its last step. O(log(result - lo)): a cursor that
// steps by one pays a test or two, one that jumps a gap the log of it.
template <typename Before>
size_t Gallop(size_t lo, size_t end, Before&& before) {
  if (lo >= end || !before(lo)) return lo;
  size_t known = lo;  // before(known) holds
  size_t step = 1;
  while (known + step < end && before(known + step)) {
    known += step;
    step *= 2;
  }
  size_t a = known + 1;
  size_t b = std::min(end, known + step);
  while (a < b) {
    const size_t mid = a + (b - a) / 2;
    if (before(mid)) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return a;
}

// A prior dictionary fits `entries` when it was assembled over a prefix
// of the same cells — ids 0 .. m-1 at unchanged lattice coordinates —
// with the same geometry and stencil offset family. Then each prior
// cell's stencil window holds exactly the prior cells it held before, and
// only its pairs with new cells are missing from its prior list.
Status CheckPrior(const GridGeometry& geom,
                  const std::vector<CellEntry>& entries,
                  const LatticeStencil& stencil,
                  const CellDictionary& prior) {
  const size_t m = prior.num_cells();
  if (m > entries.size()) {
    return Status::InvalidArgument(
        "prior dictionary has more cells than the entries");
  }
  const GridGeometry& pg = prior.geom();
  if (pg.dim() != geom.dim() || pg.eps() != geom.eps() ||
      pg.rho() != geom.rho()) {
    return Status::InvalidArgument("prior dictionary geometry differs");
  }
  const LatticeStencil& ps = prior.stencil();
  if (ps.enabled() != stencil.enabled() ||
      (stencil.enabled() && (ps.budget() != stencil.budget() ||
                             ps.num_offsets() != stencil.num_offsets()))) {
    return Status::InvalidArgument(
        "prior dictionary stencil offset family differs");
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].cell_id != i) {
      return Status::InvalidArgument(
          "entries are not in dense cell-id order");
    }
  }
  const size_t dim = geom.dim();
  std::vector<uint8_t> seen(m, 0);
  for (size_t q = 0; q < m; ++q) {
    const uint32_t id = prior.cell_refs()[q].cell_id;
    if (id >= m || seen[id]) {
      return Status::InvalidArgument(
          "prior dictionary cell ids are not dense");
    }
    seen[id] = 1;
    const int32_t* coord = prior.ref_coords().data() + q * dim;
    if (!std::equal(coord, coord + dim, entries[id].coord.data())) {
      return Status::InvalidArgument("prior dictionary cell " +
                                     std::to_string(id) +
                                     " has a different coordinate");
    }
  }
  return Status::OK();
}

// Tight bounds of one cell's occupied sub-cell boxes, decoded from the
// packed sub-cell ids: per dimension the [min, max] occupied sub-cell
// index range, mapped to coordinates and widened one float ulp outward
// per face. The ulp absorbs the double-rounding slack of sub-cell
// assignment (floor((p - origin) / sub_side) with clamping): a point can
// sit a ~2^-52-relative error outside its decoded box, and the ~2^-24-
// relative ulp dwarfs that — so the box is conservative and covers every
// point of the cell.
void ComputeCellMbr(const GridGeometry& geom, const DictCell& dc,
                    const std::vector<DictSubcell>& subs, float* mbr_lo,
                    float* mbr_hi) {
  const size_t dim = geom.dim();
  const unsigned bits = geom.bits_per_dim();
  int64_t min_idx[CellCoord::kMaxDim];
  int64_t max_idx[CellCoord::kMaxDim];
  for (size_t d = 0; d < dim; ++d) {
    min_idx[d] = std::numeric_limits<int64_t>::max();
    max_idx[d] = -1;
  }
  for (uint32_t s = dc.subcell_begin; s < dc.subcell_end; ++s) {
    const SubcellId& id = subs[s].id;
    for (size_t d = 0; d < dim; ++d) {
      const int64_t i =
          bits == 0
              ? 0
              : static_cast<int64_t>(SubcellGetBits(
                    id, static_cast<unsigned>(d) * bits, bits));
      min_idx[d] = std::min(min_idx[d], i);
      max_idx[d] = std::max(max_idx[d], i);
    }
  }
  const double sub_side = geom.subcell_side();
  for (size_t d = 0; d < dim; ++d) {
    RPDBSCAN_DCHECK(max_idx[d] >= 0);
    const double origin = geom.CellOrigin(dc.coord, d);
    mbr_lo[d] = std::nextafterf(
        static_cast<float>(origin +
                           static_cast<double>(min_idx[d]) * sub_side),
        -std::numeric_limits<float>::infinity());
    mbr_hi[d] = std::nextafterf(
        static_cast<float>(origin +
                           static_cast<double>(max_idx[d] + 1) * sub_side),
        std::numeric_limits<float>::infinity());
  }
}

// Recursive BSP over [begin, end) of `order` (indices into `entries`,
// with centers in `centers`): split at the median of the widest-spread
// dimension until a fragment is at most `max_cells` cells, then emit the
// fragment (Sec. 4.2.2). Median cuts are the balance-optimal members of
// the paper's cut-candidate set.
void Bsp(const std::vector<float>& centers, size_t dim,
         std::vector<uint32_t>& order, size_t begin, size_t end,
         size_t max_cells,
         std::vector<std::pair<size_t, size_t>>* fragments) {
  if (end - begin <= max_cells) {
    fragments->emplace_back(begin, end);
    return;
  }
  size_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dim; ++d) {
    float lo = centers[order[begin] * dim + d];
    float hi = lo;
    for (size_t i = begin + 1; i < end; ++i) {
      const float v = centers[order[i] * dim + d];
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    const double spread = static_cast<double>(hi) - lo;
    if (spread > best_spread) {
      best_spread = spread;
      best_dim = d;
    }
  }
  const size_t mid = begin + (end - begin) / 2;
  std::nth_element(order.begin() + begin, order.begin() + mid,
                   order.begin() + end,
                   [&centers, dim, best_dim](uint32_t a, uint32_t b) {
                     return centers[a * dim + best_dim] <
                            centers[b * dim + best_dim];
                   });
  Bsp(centers, dim, order, begin, mid, max_cells, fragments);
  Bsp(centers, dim, order, mid, end, max_cells, fragments);
}

// ---- Wire format primitives (little-endian, fixed width). ----
//
// Writers store into a pre-sized buffer through a cursor instead of
// push_back-ing byte by byte: Serialize knows its exact output size up
// front (WireSizeBytes), and per-byte capacity checks dominated the
// encode cost on large dictionaries.

uint8_t* StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
  return p + 4;
}
uint8_t* StoreU64(uint8_t* p, uint64_t v) {
  p = StoreU32(p, static_cast<uint32_t>(v));
  return StoreU32(p, static_cast<uint32_t>(v >> 32));
}
uint8_t* StoreF64(uint8_t* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return StoreU64(p, bits);
}

// Bounds-checked sequential reader.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  const uint8_t* Cursor() const { return data_ + pos_; }
  size_t Remaining() const { return size_ - pos_; }
  bool Skip(size_t n) {
    if (pos_ + n > size_) return false;
    pos_ += n;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

constexpr uint32_t kDictMagic = 0x52504444;  // "RPDD"
constexpr uint32_t kDictVersion = 1;

}  // namespace

StatusOr<CellDictionary> CellDictionary::Build(
    const Dataset& data, const CellSet& cells,
    const CellDictionaryOptions& opts, ThreadPool* pool) {
  const GridGeometry& geom = cells.geom();
  if (data.dim() != geom.dim()) {
    return Status::InvalidArgument("dataset dim does not match grid dim");
  }
  // Per-cell sub-cell histograms (Alg. 2 lines 13-17), one independent
  // task per cell.
  Stopwatch watch;
  std::vector<CellEntry> entries(cells.num_cells());
  ForEachIndex(pool, entries.size(), [&](size_t id) {
    entries[id] = MakeCellEntry(data, geom,
                                cells.cell(static_cast<uint32_t>(id)),
                                static_cast<uint32_t>(id));
  });
  const double histogram_seconds = watch.ElapsedSeconds();
  StatusOr<CellDictionary> dict = Assemble(geom, entries, opts, pool, nullptr);
  if (dict.ok()) dict->breakdown_.histogram_seconds = histogram_seconds;
  return dict;
}

CellEntry CellDictionary::MakeCellEntry(const Dataset& data,
                                        const GridGeometry& geom,
                                        const CellData& cell,
                                        uint32_t cell_id) {
  // Per-cell sub-cell histogram (Alg. 2 lines 13-17): every point's
  // sub-cell id, sorted into the entry's order, then one sub-cell per
  // run of equal ids.
  CellEntry entry;
  entry.coord = cell.coord;
  entry.cell_id = cell_id;
  const PointIdSpan& pids = cell.point_ids;
  std::vector<SubcellId> ids(pids.size());
  // The points of a cell are scattered over the data set: fetch a few
  // ahead.
  constexpr size_t kPrefetchAhead = 4;
  for (size_t i = 0; i < pids.size() && i < kPrefetchAhead; ++i) {
    __builtin_prefetch(data.point(pids[i]));
  }
  for (size_t i = 0; i < pids.size(); ++i) {
    if (i + kPrefetchAhead < pids.size()) {
      __builtin_prefetch(data.point(pids[i + kPrefetchAhead]));
    }
    ids[i] = geom.SubcellOf(data.point(pids[i]), cell.coord);
  }
  std::sort(ids.begin(), ids.end(), SubcellIdLess);
  size_t runs = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    runs += i == 0 || !(ids[i] == ids[i - 1]);
  }
  entry.subcells.reserve(runs);
  for (size_t i = 0; i < ids.size();) {
    size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    entry.subcells.push_back(
        DictSubcell{ids[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
  return entry;
}

StatusOr<CellDictionary> CellDictionary::FromEntries(
    const GridGeometry& geom, const std::vector<CellEntry>& entries,
    const CellDictionaryOptions& opts, ThreadPool* pool,
    const CellDictionary* prior) {
  return Assemble(geom, entries, opts, pool, prior);
}

StatusOr<CellDictionary> CellDictionary::Assemble(
    const GridGeometry& geom, const std::vector<CellEntry>& entries,
    const CellDictionaryOptions& opts, ThreadPool* pool,
    const CellDictionary* prior) {
  if (opts.max_cells_per_subdict == 0) {
    return Status::InvalidArgument("max_cells_per_subdict must be >= 1");
  }
  Stopwatch watch;
  CellDictionary dict;
  dict.geom_ = geom;
  dict.enable_skipping_ = opts.enable_skipping;
  // Scaled by stencil_eps_scale so one offset family (and the CSR below)
  // covers every query radius up to scale * eps; 1.0 is the classic
  // single-eps stencil. Family members are nested prefixes, so smaller
  // radii reuse the CSR through the class filter in QueryCellStencil.
  // Past max_stencil_offsets no stencil is built.
  dict.stencil_ = LatticeStencil::CreateScaled(
      geom.dim(), opts.stencil_eps_scale, opts.max_stencil_offsets);
  if (prior != nullptr) {
    RPDBSCAN_RETURN_IF_ERROR(
        CheckPrior(geom, entries, dict.stencil_, *prior));
  }
  dict.num_cells_ = entries.size();
  for (const CellEntry& e : entries) dict.num_subcells_ += e.subcells.size();

  // Cell centers drive both the BSP and the per-fragment kd-trees.
  std::vector<float> centers(entries.size() * geom.dim());
  for (size_t i = 0; i < entries.size(); ++i) {
    geom.CellCenter(entries[i].coord, centers.data() + i * geom.dim());
  }

  // Defragmentation: BSP the cells into balanced, spatially contiguous
  // fragments (or keep everything in one fragment for the ablation).
  std::vector<uint32_t> order(entries.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::pair<size_t, size_t>> fragments;
  if (opts.defragment) {
    Bsp(centers, geom.dim(), order, 0, order.size(),
        opts.max_cells_per_subdict, &fragments);
  } else {
    fragments.emplace_back(0, order.size());
  }

  // The fragment arrays the dictionary keeps (all but the kd-trees' own)
  // are reserved here, on the calling thread, at their exact sizes, and
  // only filled on the pool: a buffer a pool worker allocates stays in
  // that worker's malloc arena, and over a stream of epochs each arena
  // kept its own share of every dictionary (5 MB more peak RSS on a
  // 10k-point GeoLife stream).
  dict.subdicts_.resize(fragments.size());
  for (size_t f = 0; f < fragments.size(); ++f) {
    const auto [begin, end] = fragments[f];
    SubDictionary& sd = dict.subdicts_[f];
    const size_t dim = geom.dim();
    const size_t n = end - begin;
    size_t subcells = 0;
    size_t lane_slots = 0;
    for (size_t i = begin; i < end; ++i) {
      const size_t count = entries[order[i]].subcells.size();
      subcells += count;
      lane_slots +=
          (count + kSimdLaneWidth - 1) / kSimdLaneWidth * kSimdLaneWidth;
    }
    sd.cells_.reserve(n);
    sd.cell_centers_.reserve(n * dim);
    sd.subcells_.reserve(subcells);
    sd.lane_begin_.reserve(n + 1);
    sd.lane_centers_.reserve(lane_slots * dim);
    sd.lane_counts_.reserve(lane_slots);
    sd.cell_mbrs_.reserve(n * 2 * dim);
  }
  // One independent task per fragment: copy its cells and sub-cells,
  // build the kd-tree, then the lane-major (SoA) sub-cell storage —
  // per-cell padded blocks of dim-major coordinate lanes, each sub-cell
  // center decoded straight into its slot, plus per-slot densities, the
  // layout the vector kernels (core/simd.h) stride over. Padding slots
  // carry +inf centers and zero counts so whole-vector strides are safe.
  ForEachIndex(pool, fragments.size(), [&](size_t f) {
    const auto [begin, end] = fragments[f];
    SubDictionary& sd = dict.subdicts_[f];
    const size_t dim = geom.dim();
    sd.mbr_ = Mbr(dim);
    for (size_t i = begin; i < end; ++i) {
      const CellEntry& entry = entries[order[i]];
      DictCell dc;
      dc.coord = entry.coord;
      dc.cell_id = entry.cell_id;
      dc.subcell_begin = static_cast<uint32_t>(sd.subcells_.size());
      uint32_t total = 0;
      for (const DictSubcell& s : entry.subcells) {
        total += s.count;
        sd.subcells_.push_back(s);
      }
      dc.subcell_end = static_cast<uint32_t>(sd.subcells_.size());
      dc.total_count = total;
      sd.cells_.push_back(dc);
      const float* center = centers.data() + order[i] * dim;
      sd.cell_centers_.insert(sd.cell_centers_.end(), center, center + dim);
      // The cell's lattice box: CellBox's doubles, without the two
      // vectors a CellBox allocates.
      for (size_t d = 0; d < dim; ++d) {
        const double lo = geom.CellOrigin(entry.coord, d);
        sd.mbr_.set_min(d, std::min(sd.mbr_.min(d), lo));
        sd.mbr_.set_max(d, std::max(sd.mbr_.max(d), lo + geom.cell_side()));
      }
    }
    sd.tree_.Build(sd.cell_centers_.data(), sd.cells_.size(), dim,
                   kLeafWidth);

    sd.lane_dim_ = dim;
    sd.lane_begin_.assign(sd.cells_.size() + 1, 0);
    for (size_t i = 0; i < sd.cells_.size(); ++i) {
      const uint32_t count =
          sd.cells_[i].subcell_end - sd.cells_[i].subcell_begin;
      const uint32_t padded =
          (count + kSimdLaneWidth - 1) / kSimdLaneWidth * kSimdLaneWidth;
      sd.lane_begin_[i + 1] = sd.lane_begin_[i] + padded;
    }
    const size_t total = sd.lane_begin_.back();
    sd.lane_centers_.assign(total * dim, kLanePadCenter);
    sd.lane_counts_.assign(total, 0);
    float center[CellCoord::kMaxDim];
    for (size_t i = 0; i < sd.cells_.size(); ++i) {
      const DictCell& dc = sd.cells_[i];
      const uint32_t padded_n = sd.lane_begin_[i + 1] - sd.lane_begin_[i];
      float* block = sd.lane_centers_.data() +
                     static_cast<size_t>(sd.lane_begin_[i]) * dim;
      for (uint32_t s = dc.subcell_begin; s < dc.subcell_end; ++s) {
        const uint32_t slot = s - dc.subcell_begin;
        geom.SubcellCenter(dc.coord, sd.subcells_[s].id, center);
        sd.lane_counts_[sd.lane_begin_[i] + slot] = sd.subcells_[s].count;
        for (size_t d = 0; d < dim; ++d) {
          block[d * padded_n + slot] = center[d];
        }
      }
    }
    // Tight occupied-sub-cell MBR per cell: what candidate
    // classification and the per-point box tests measure against
    // instead of the full cell box.
    sd.cell_mbrs_.resize(sd.cells_.size() * 2 * dim);
    for (size_t i = 0; i < sd.cells_.size(); ++i) {
      float* mbr = sd.cell_mbrs_.data() + i * 2 * dim;
      ComputeCellMbr(geom, sd.cells_[i], sd.subcells_, mbr, mbr + dim);
    }
    // Each kd-tree node gets the union of the occupied MBRs below it,
    // so QueryCell can settle a whole subtree with one box test.
    sd.tree_.BuildNodeBoxes(sd.cell_mbrs_.data());
  });

  // Dictionary-global cell index: coordinate -> (sub-dictionary, local
  // cell), the lookup of the stream's touched cells and of serving's home
  // cells (Phase II's source cells arrive with their slots). Built
  // unconditionally — Deserialize comes through here too, so a decoded
  // dictionary rebuilds it.
  std::vector<size_t> ref_offsets(dict.subdicts_.size() + 1, 0);
  for (size_t f = 0; f < dict.subdicts_.size(); ++f) {
    ref_offsets[f + 1] = ref_offsets[f] + dict.subdicts_[f].cells_.size();
  }
  const size_t dim = geom.dim();
  dict.cell_refs_.resize(dict.num_cells_);
  dict.ref_coords_.resize(dict.num_cells_ * dim);
  std::vector<uint64_t> ref_hashes(dict.num_cells_);
  ForEachIndex(pool, dict.subdicts_.size(), [&](size_t f) {
    const SubDictionary& sd = dict.subdicts_[f];
    GlobalCellRef* ref = dict.cell_refs_.data() + ref_offsets[f];
    int32_t* coords = dict.ref_coords_.data() + ref_offsets[f] * dim;
    uint64_t* hash = ref_hashes.data() + ref_offsets[f];
    for (size_t i = 0; i < sd.cells_.size(); ++i, ++ref, coords += dim) {
      const CellCoord& c = sd.cells_[i].coord;
      std::copy(c.data(), c.data() + dim, coords);
      *hash++ = c.hash();
      ref->subdict = static_cast<uint32_t>(f);
      ref->local_cell = static_cast<uint32_t>(i);
      ref->cell_id = sd.cells_[i].cell_id;
      ref->total_count = sd.cells_[i].total_count;
      ref->subcell_begin = sd.cells_[i].subcell_begin;
      ref->subcell_end = sd.cells_[i].subcell_end;
    }
  });
  dict.cell_index_.BuildHashed(ref_hashes.data(), ref_hashes.size(), pool);

  // Per-slot classification/flatten metadata: every pointer the query
  // engines need about a candidate cell, resolved once. Built after the
  // lane/MBR arrays above so the pointers are final.
  dict.subdict_ref_base_.resize(dict.subdicts_.size() + 1);
  for (size_t f = 0; f <= dict.subdicts_.size(); ++f) {
    dict.subdict_ref_base_[f] = static_cast<uint32_t>(ref_offsets[f]);
  }
  dict.slot_meta_.resize(dict.num_cells_);
  ForEachIndex(pool, dict.subdicts_.size(), [&](size_t f) {
    const SubDictionary& sd = dict.subdicts_[f];
    SlotMeta* meta = dict.slot_meta_.data() + ref_offsets[f];
    for (uint32_t i = 0; i < sd.cells_.size(); ++i, ++meta) {
      meta->lane_centers = sd.lane_centers(i);
      meta->lane_counts = sd.lane_counts(i);
      meta->mbr = sd.cell_mbr(i);
      meta->lane_padded = sd.lane_padded(i);
      meta->total_count = sd.cells_[i].total_count;
      meta->cell_id = sd.cells_[i].cell_id;
    }
  });

  dict.breakdown_.fragment_seconds = watch.ElapsedSeconds();

  if (dict.stencil_.enabled() && dict.num_cells_ > 0) {
    watch.Reset();
    dict.BuildStencilNeighborhoods(prior, pool);
    dict.breakdown_.neighborhood_seconds = watch.ElapsedSeconds();
  }
  return dict;
}

void CellDictionary::BuildStencilNeighborhoods(const CellDictionary* prior,
                                               ThreadPool* pool) {
  // Precomputed stencil neighborhoods: which dictionary cells occupy a
  // cell's stencil window depends only on the lattice, never on a query,
  // so the window is resolved once here instead of once per region
  // query — and, with a prior, once per cell over a whole stream: a cell
  // pays for its window when it first appears (the work-efficiency rule
  // of incremental neighbor search).
  //
  // No hashing: the cells are sorted by lattice coordinate (last
  // dimension fastest) and cut into runs, maximal blocks that share
  // their first d - 1 coordinates. The stencil's rows (offsets sharing
  // their first d - 1 components, last components [-w, w]) then map a
  // source run to at most one target run each, whose prefix is the
  // source's plus the row's. Per row a forward-only cursor finds that
  // run, and a window sliding over its last coordinates gives each
  // source cell its neighbors on the row: one pass lists a cell's whole
  // window. Targets are computed in int64, so an offset that leaves the
  // int32 lattice finds no cell instead of wrapping to the far edge.
  //
  // Cells with id >= m are new, and only they are swept as sources; with
  // no prior every cell is new. A new cell's list is its whole window. A
  // prior cell keeps its prior list, renumbered, plus the new cells
  // whose windows hit it (the window relation is symmetric, since the
  // stencil is closed under negation) — the one scatter left. The prior's
  // lattice order is merged with the new cells' instead of re-sorted, and
  // the cursors gallop, so an epoch that adds a few cells sweeps only the
  // runs that hold them.
  //
  // The sweep runs over fixed chunks of source cells, first counting each
  // list, then filling the exact-size CSR; scattered entries go in chunk
  // order. So the CSR is identical regardless of thread count: each list
  // is itself, its carried-over neighbors, then its swept ones.
  const size_t n = num_cells_;
  const size_t dim = geom_.dim();
  const size_t pre = dim - 1;
  const uint32_t m =
      prior != nullptr ? static_cast<uint32_t>(prior->num_cells_) : 0;
  const int32_t* coords = ref_coords_.data();

  // Lattice order as slots: the new cells sorted, then merged with the
  // prior's order (cell ids < m, already sorted). Without a prior no
  // step here reads a cell id as an index, so a decoded dictionary
  // needs no id check.
  auto slot_less = [&](uint32_t a, uint32_t b) {
    const int32_t* ca = coords + static_cast<size_t>(a) * dim;
    const int32_t* cb = coords + static_cast<size_t>(b) * dim;
    return std::lexicographical_compare(ca, ca + dim, cb, cb + dim);
  };
  std::vector<uint32_t> order;
  order.reserve(n - m);
  for (size_t s = 0; s < n; ++s) {
    if (cell_refs_[s].cell_id >= m) order.push_back(static_cast<uint32_t>(s));
  }
  std::sort(order.begin(), order.end(), slot_less);
  std::vector<uint32_t> slot_of_id(m > 0 ? n : 0);
  if (m > 0) {
    RPDBSCAN_CHECK(prior->lattice_order_.size() == m);
    ForEachIndex(pool, n, [&](size_t s) {
      slot_of_id[cell_refs_[s].cell_id] = static_cast<uint32_t>(s);
    });
    std::vector<uint32_t> carried_order(m);
    for (size_t k = 0; k < m; ++k) {
      carried_order[k] = slot_of_id[prior->lattice_order_[k]];
    }
    std::vector<uint32_t> merged(n);
    std::merge(carried_order.begin(), carried_order.end(), order.begin(),
               order.end(), merged.begin(), slot_less);
    order = std::move(merged);
  }
  lattice_order_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    lattice_order_[k] = cell_refs_[order[k]].cell_id;
  }

  // Runs over the lattice order, each one's shared prefix, every
  // position's last coordinate, and the sources: the new cells'
  // positions, in fixed chunks of kCellsPerChunk, grouped by run within
  // a chunk (a run may straddle two chunks, a group never does).
  constexpr size_t kCellsPerChunk = 1024;
  std::vector<int32_t> last(n);
  std::vector<uint32_t> run_begin;
  std::vector<int32_t> run_prefix;
  std::vector<uint32_t> src;
  std::vector<uint32_t> src_run;
  std::vector<uint32_t> src_begin;
  std::vector<uint32_t> chunk_begin;  // first group of each chunk
  src.reserve(n - m);
  const int32_t* prev = nullptr;
  for (size_t k = 0; k < n; ++k) {
    const int32_t* c = coords + static_cast<size_t>(order[k]) * dim;
    last[k] = c[pre];
    if (prev == nullptr || !std::equal(c, c + pre, prev)) {
      run_begin.push_back(static_cast<uint32_t>(k));
      run_prefix.insert(run_prefix.end(), c, c + pre);
    }
    prev = c;
    if (lattice_order_[k] >= m) {
      const uint32_t run = static_cast<uint32_t>(run_begin.size() - 1);
      const bool new_chunk = src.size() % kCellsPerChunk == 0;
      if (new_chunk) {
        chunk_begin.push_back(static_cast<uint32_t>(src_run.size()));
      }
      if (new_chunk || src_run.back() != run) {
        src_run.push_back(run);
        src_begin.push_back(static_cast<uint32_t>(src.size()));
      }
      src.push_back(static_cast<uint32_t>(k));
    }
  }
  const size_t num_runs = run_begin.size();
  run_begin.push_back(static_cast<uint32_t>(n));
  src_begin.push_back(static_cast<uint32_t>(src.size()));
  chunk_begin.push_back(static_cast<uint32_t>(src_run.size()));
  const size_t num_chunks = chunk_begin.size() - 1;

  const size_t num_rows = stencil_.num_rows();
  // Calls visit(k, lo, hi, same) for every source position k of chunk
  // `chunk` and every row whose target run exists: [lo, hi) are the
  // positions of that run inside k's window on the row, and `same` says
  // the run is k's own (the all-zero row), whose window holds k itself.
  auto sweep = [&](size_t chunk, auto&& visit) {
    // Per row, the first run whose prefix is not below the row's target:
    // forward-only, since for ascending source prefixes each row's
    // targets ascend.
    std::vector<size_t> cursor(num_rows, 0);
    int64_t target[CellCoord::kMaxDim];
    auto before = [&](size_t t) {
      const int32_t* q = run_prefix.data() + t * pre;
      for (size_t c = 0; c < pre; ++c) {
        if (q[c] != target[c]) return q[c] < target[c];
      }
      return false;
    };
    for (size_t g = chunk_begin[chunk]; g < chunk_begin[chunk + 1]; ++g) {
      const int32_t* prefix = run_prefix.data() + src_run[g] * pre;
      for (size_t r = 0; r < num_rows; ++r) {
        const int32_t* o = stencil_.row_prefix(r);
        for (size_t c = 0; c < pre; ++c) {
          target[c] = static_cast<int64_t>(prefix[c]) + o[c];
        }
        size_t& t = cursor[r];
        t = Gallop(t, num_runs, before);
        if (t == num_runs ||
            !std::equal(target, target + pre, run_prefix.data() + t * pre)) {
          continue;
        }
        // Each cell of the source run against the target run, by a
        // window sliding over their last coordinates.
        const int64_t w = stencil_.row_reach(r);
        const size_t end = run_begin[t + 1];
        size_t lo = run_begin[t];
        size_t hi = lo;
        for (size_t i = src_begin[g]; i < src_begin[g + 1]; ++i) {
          const size_t k = src[i];
          const int64_t x = last[k];
          lo = Gallop(lo, end, [&](size_t j) { return last[j] < x - w; });
          hi = Gallop(std::max(hi, lo), end,
                      [&](size_t j) { return last[j] <= x + w; });
          visit(k, lo, hi, t == src_run[g]);
        }
      }
    }
  };

  // Prior cells: prior slot -> new slot for renumbering the carried
  // lists, and cell id -> prior slot for finding them. CheckPrior made
  // both id sets dense, so the maps are bijections on the prior cells.
  std::vector<uint32_t> to_new(m);
  std::vector<uint32_t> prior_slot_of_id(m);
  ForEachIndex(pool, m, [&](size_t q) {
    const uint32_t id = prior->cell_refs_[q].cell_id;
    to_new[q] = slot_of_id[id];
    prior_slot_of_id[id] = static_cast<uint32_t>(q);
  });
  // A prior cell's carried neighbors: its prior list minus the self entry.
  auto carried = [&](size_t s) -> std::span<const uint32_t> {
    const uint32_t id = cell_refs_[s].cell_id;
    if (id >= m) return {};
    const size_t q = prior_slot_of_id[id];
    const size_t begin = prior->stencil_nbr_begin_[q] + 1;
    return {prior->stencil_nbr_slots_.data() + begin,
            prior->stencil_nbr_begin_[q + 1] - begin};
  };

  // Count: self and carried, then the swept windows. A window hit on a
  // prior cell is also a (prior slot << 32 | new slot) scatter entry of
  // the chunk that found it.
  std::vector<size_t> at(n);
  ForEachIndex(pool, n, [&](size_t s) { at[s] = 1 + carried(s).size(); });
  std::vector<std::vector<uint64_t>> scatter(m > 0 ? num_chunks : 0);
  ForEachIndex(pool, num_chunks, [&](size_t c) {
    sweep(c, [&](size_t k, size_t lo, size_t hi, bool same) {
      at[order[k]] += hi - lo - (same ? 1 : 0);
      if (m == 0) return;
      for (size_t j = lo; j < hi; ++j) {
        if (lattice_order_[j] < m) {
          scatter[c].push_back(static_cast<uint64_t>(order[j]) << 32 |
                               order[k]);
        }
      }
    });
  });
  for (const std::vector<uint64_t>& entries : scatter) {
    for (const uint64_t e : entries) ++at[e >> 32];
  }
  stencil_nbr_begin_.resize(n + 1);
  stencil_nbr_begin_[0] = 0;
  for (size_t s = 0; s < n; ++s) {
    stencil_nbr_begin_[s + 1] = stencil_nbr_begin_[s] + at[s];
  }
  stencil_nbr_slots_.resize(stencil_nbr_begin_[n]);

  // Fill in the same order, `at` now each list's write cursor.
  uint32_t* const out = stencil_nbr_slots_.data();
  ForEachIndex(pool, n, [&](size_t s) {
    uint32_t* p = out + stencil_nbr_begin_[s];
    *p++ = static_cast<uint32_t>(s);
    for (const uint32_t q : carried(s)) *p++ = to_new[q];
    at[s] = static_cast<size_t>(p - out);
  });
  ForEachIndex(pool, num_chunks, [&](size_t c) {
    sweep(c, [&](size_t k, size_t lo, size_t hi, bool same) {
      uint32_t* p = out + at[order[k]];
      for (size_t j = lo; j < hi; ++j) {
        if (!same || j != k) *p++ = order[j];
      }
      at[order[k]] = static_cast<size_t>(p - out);
    });
  });
  for (const std::vector<uint64_t>& entries : scatter) {
    for (const uint64_t e : entries) {
      out[at[e >> 32]++] = static_cast<uint32_t>(e);
    }
  }
}

namespace {

// Conservative classification margins for the cell-level candidate split.
// Box-to-box bounds and the per-point distance tests round differently at
// the last ulp; the relative margin (orders of magnitude above double
// rounding error, orders below any real geometric gap) pushes borderline
// cells into the per-point "maybe" group, whose tests reproduce the
// region query's arithmetic exactly — so the split can never change
// results, only shift work between the hoisted and the per-point path.
//
// The split measures the source cell's occupied-sub-cell MBR against each
// candidate's (MbrPairDistBounds, BoxPairBoundsFn). Both are tight point
// covers, and every sub-cell center a lane kernel would test lies in the
// candidate's MBR: max2 <= eps^2 means every center is within eps of
// every source point (the cell's whole density counts, as the kernel
// would find), min2 > eps^2 means none ever is (the kernel finds zero).
constexpr double kContainMargin = 1.0 - 1e-9;
constexpr double kDisjointMargin = 1.0 + 1e-9;

// Squared distance between a sub-dictionary MBR and the source cell's
// point MBR: the box-to-box generalization of Mbr::MinDist2, used so one
// skipping test (Lemma 5.10) covers every point of the source cell.
double MbrPairMinDist2(const Mbr& mbr, const float* a_lo, const float* a_hi,
                       size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    double gap = 0.0;
    if (mbr.min(d) > a_hi[d]) {
      gap = mbr.min(d) - a_hi[d];
    } else if (a_lo[d] > mbr.max(d)) {
      gap = a_lo[d] - mbr.max(d);
    }
    acc += gap * gap;
  }
  return acc;
}

}  // namespace

template <typename Always, typename Maybe>
size_t CellDictionary::DescendFragments(const float* lo, const float* hi,
                                        double disjoint2, double contained2,
                                        Always&& always,
                                        Maybe&& maybe) const {
  const size_t dim = geom_.dim();
  const BoxPairBoundsFn leaf_bounds = GetBoxPairBoundsFn(DetectSimdLevel());
  size_t visited = 0;
  for (size_t sdi = 0; sdi < subdicts_.size(); ++sdi) {
    const SubDictionary& sd = subdicts_[sdi];
    if (enable_skipping_ &&
        MbrPairMinDist2(sd.mbr_, lo, hi, dim) > disjoint2) {
      continue;
    }
    ++visited;
    const uint32_t base = subdict_ref_base_[sdi];
    // Descend by node box with the per-cell bounds and margins. A node box
    // contains every occupied MBR below it and each step of
    // MbrPairDistBounds is monotone under round-to-nearest, so a node's
    // min2 / max2 bound every cell's below it: a disjoint node holds only
    // disjoint cells, a contained node only always cells, and settling the
    // node settles each of them exactly as the per-cell test would.
    sd.tree_.DescendBoxes(
        [&](uint32_t node) {
          const float* box = sd.tree_.node_box(node);
          double min2 = 0.0;
          double max2 = 0.0;
          if (!MbrPairDistBounds(lo, hi, box, box + dim, dim, disjoint2,
                                 &min2, &max2)) {
            return KdTree::BoxVerdict::kDisjoint;
          }
          if (max2 <= contained2) return KdTree::BoxVerdict::kContained;
          return KdTree::BoxVerdict::kPartial;
        },
        [&](std::span<const uint32_t> local_cells) {
          // Every point of the box swallows these cells whole: the
          // Example 5.5 containment fast path hoisted to subtree level.
          for (const uint32_t local_cell : local_cells) {
            always(base + local_cell);
          }
        },
        [&](std::span<const uint32_t> local_cells) {
          // One kernel call per leaf, then each candidate's verdict in
          // leaf order. A full min2 above disjoint2 is exactly the
          // early-exit verdict of MbrPairDistBounds, so the split and
          // the maybe keys are the per-cell test's.
          double min2[kLeafWidth];
          double max2[kLeafWidth];
          for (size_t c0 = 0; c0 < local_cells.size(); c0 += kLeafWidth) {
            const size_t cn = std::min(kLeafWidth, local_cells.size() - c0);
            leaf_bounds(lo, hi, sd.cell_mbrs_.data(),
                        local_cells.data() + c0, cn, dim, min2, max2);
            for (size_t i = 0; i < cn; ++i) {
              if (min2[i] > disjoint2) continue;  // unreachable from any point
              const uint32_t slot = base + local_cells[c0 + i];
              if (max2[i] <= contained2) {
                always(slot);
              } else {
                maybe(slot, min2[i]);
              }
            }
          }
        });
  }
  return visited;
}

size_t CellDictionary::QueryCell(uint32_t src_slot, CandidateCellList* out,
                                 double query_eps) const {
  RPDBSCAN_CHECK(src_slot < cell_refs_.size())
      << "source slot " << src_slot << " is not a dictionary slot";
  out->Clear();
  const size_t dim = geom_.dim();
  const double eps = geom_.eps();
  const double qeps = query_eps > 0.0 ? query_eps : eps;
  const double eps2 = qeps * qeps;
  const double disjoint2 = eps2 * kDisjointMargin;
  const double contained2 = eps2 * kContainMargin;
  // The source cell's occupied-sub-cell MBR bounds its points. It counts
  // toward its own density but is not its own neighbor.
  const float* mbr_lo = slot_meta_[src_slot].mbr;
  const float* mbr_hi = mbr_lo + dim;
  auto take_always = [&](uint32_t slot) {
    const SlotMeta& sm = slot_meta_[slot];
    out->always_count += sm.total_count;
    if (slot != src_slot) out->always_neighbors.push_back(sm.cell_id);
  };
  const size_t visited = DescendFragments(
      mbr_lo, mbr_hi, disjoint2, contained2, take_always,
      [&](uint32_t slot, double min2) {
        if (slot == src_slot && OwnCentersContained(slot, mbr_lo, mbr_hi,
                                                    disjoint2, contained2)) {
          take_always(slot);
          return;
        }
        out->maybe_refs.push_back(
            CandidateCellList::MaybeRef{min2, slot_meta_[slot].cell_id, slot});
      });
  SortAndFlattenMaybes(out);
  return visited;
}

void CellDictionary::QueryBoxSlots(const float* box_lo, const float* box_hi,
                                   std::vector<uint32_t>* out,
                                   double query_eps) const {
  out->clear();
  const double qeps = query_eps > 0.0 ? query_eps : geom_.eps();
  const double eps2 = qeps * qeps;
  // Contained and maybe cells alike are candidates; the caller tests them.
  auto take = [out](uint32_t slot) { out->push_back(slot); };
  DescendFragments(box_lo, box_hi, eps2 * kDisjointMargin,
                   eps2 * kContainMargin, take,
                   [&](uint32_t slot, double) { take(slot); });
}

size_t CellDictionary::QueryCellStencil(uint32_t src_slot,
                                        CandidateCellList* out,
                                        double query_eps) const {
  RPDBSCAN_CHECK(stencil_.enabled());
  RPDBSCAN_CHECK(src_slot < cell_refs_.size())
      << "source slot " << src_slot << " is not a dictionary slot";
  out->Clear();
  const size_t dim = geom_.dim();
  const double eps = geom_.eps();
  const double qeps = query_eps > 0.0 ? query_eps : eps;
  const double eps2 = qeps * qeps;
  const double disjoint2 = eps2 * kDisjointMargin;
  const double contained2 = eps2 * kContainMargin;
  // Class budget of the query radius in cell_side^2 units — the exact
  // formula stencil family members are enumerated with, so the CSR class
  // filter below and a fresh enumeration of the radius's own stencil
  // apply the identical integer criterion (the bit-identity the
  // stencil-prefix and hierarchy-differential tests pin).
  const double budget_q = LatticeStencil::ScaledBudget(dim, qeps / eps);
  RPDBSCAN_CHECK(budget_q <= stencil_.budget())
      << "stencil budget " << stencil_.budget()
      << " does not cover query budget " << budget_q;
  const float* mbr_lo = slot_meta_[src_slot].mbr;
  const float* mbr_hi = mbr_lo + dim;

  // The source cell's stencil window was resolved once at Assemble into
  // the precomputed neighborhood list: a linear walk over the present
  // cells' global slots, classifying each from the per-slot metadata with
  // the same MbrPairDistBounds arithmetic and margins as the tree engine.
  const size_t begin = stencil_nbr_begin_[src_slot];
  const size_t count = stencil_nbr_begin_[src_slot + 1] - begin;
  const uint32_t* nbr = stencil_nbr_slots_.data() + begin;
  // A query radius below the assembled scale selects the nested family
  // member: keep exactly the neighbors whose integer distance class fits
  // the radius's budget, recomputed from the stored lattice coordinates.
  // At the full budget every stored neighbor qualifies by construction,
  // so the filter vanishes and the classic path runs untouched.
  const bool class_filter = budget_q < stencil_.budget();
  const int32_t* src_coords =
      ref_coords_.data() + static_cast<size_t>(src_slot) * dim;
  // Two prefetch streams: the per-slot metadata well ahead, and the MBR
  // it points to a few entries ahead, once that metadata has arrived.
  constexpr size_t kMetaPrefetchAhead = 8;
  constexpr size_t kMbrPrefetchAhead = 4;
  for (size_t j = 0; j < count; ++j) {
    if (j + kMetaPrefetchAhead < count) {
      __builtin_prefetch(&slot_meta_[nbr[j + kMetaPrefetchAhead]]);
    }
    if (j + kMbrPrefetchAhead < count) {
      __builtin_prefetch(slot_meta_[nbr[j + kMbrPrefetchAhead]].mbr);
    }
    if (class_filter && j != 0) {
      const int32_t* nc =
          ref_coords_.data() + static_cast<size_t>(nbr[j]) * dim;
      uint64_t m = 0;
      for (size_t d = 0; d < dim; ++d) {
        const int64_t delta =
            static_cast<int64_t>(nc[d]) - static_cast<int64_t>(src_coords[d]);
        const int64_t a = delta < 0 ? -delta : delta;
        if (a > 1) m += static_cast<uint64_t>((a - 1) * (a - 1));
      }
      if (static_cast<double>(m) > budget_q) continue;
    }
    const SlotMeta& sm = slot_meta_[nbr[j]];
    double pair_min2 = 0.0;
    double pair_max2 = 0.0;
    if (!MbrPairDistBounds(mbr_lo, mbr_hi, sm.mbr, sm.mbr + dim, dim,
                           disjoint2, &pair_min2, &pair_max2)) {
      continue;  // unreachable from any point
    }
    // j == 0 is the source cell itself (the list stores it first;
    // stencil offsets are non-zero, so no other entry can equal it).
    if (pair_max2 <= contained2 ||
        (j == 0 && OwnCentersContained(nbr[0], mbr_lo, mbr_hi, disjoint2,
                                       contained2))) {
      out->always_count += sm.total_count;
      if (j != 0) out->always_neighbors.push_back(sm.cell_id);
      continue;
    }
    out->maybe_refs.push_back(
        CandidateCellList::MaybeRef{pair_min2, sm.cell_id, nbr[j]});
  }
  SortAndFlattenMaybes(out);
  return count;
}

void CellDictionary::SortAndFlattenMaybes(CandidateCellList* out) const {
  // Order the maybe group nearest-first (MBR-to-MBR lower bound, cell id
  // as a deterministic tie-break): the source cell and its densest
  // surroundings land at the front, so the per-point pass-1 scan crosses
  // min_pts after the fewest evaluations. Evaluation order cannot change
  // results — the density sum and the matched-cell union are both
  // order-independent.
  std::sort(out->maybe_refs.begin(), out->maybe_refs.end(),
            [](const CandidateCellList::MaybeRef& a,
               const CandidateCellList::MaybeRef& b) {
              if (a.min2 != b.min2) return a.min2 < b.min2;
              return a.cell_id < b.cell_id;
            });

  // Lay out per-candidate metadata in sorted order; MBRs and sub-cell
  // lanes stay in the sub-dictionaries' contiguous storage, referenced by
  // pointer. Sized up front and written by index — this runs once per
  // maybe-cell per source cell, and the per-element growth checks of
  // push_back were measurable in the Phase II profile. Every field is
  // copied from the per-slot metadata table in one load per candidate.
  const size_t m = out->maybe_refs.size();
  out->cell_ids.resize(m);
  out->mbrs.resize(m);
  out->total_counts.resize(m);
  out->lane_centers.resize(m);
  out->lane_counts.resize(m);
  out->lane_padded.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const CandidateCellList::MaybeRef& ref = out->maybe_refs[i];
    const SlotMeta& sm = slot_meta_[ref.slot];
    out->cell_ids[i] = ref.cell_id;
    out->mbrs[i] = sm.mbr;
    out->total_counts[i] = sm.total_count;
    out->lane_centers[i] = sm.lane_centers;
    out->lane_counts[i] = sm.lane_counts;
    out->lane_padded[i] = sm.lane_padded;
  }
}

bool CellDictionary::OwnCentersContained(uint32_t slot, const float* mbr_lo,
                                         const float* mbr_hi,
                                         double disjoint2,
                                         double contained2) const {
  // Measured against its own occupied-sub-cell MBR, a fully occupied cell
  // spans a diagonal of eps plus the outward ulps and so is never
  // contained. The lane kernel only ever tests sub-cell centers, though,
  // and those lie in the center box, inset half a sub-cell per face: the
  // largest point-to-center gap is eps * (1 - 2^-h). Every point lies in
  // [mbr_lo, mbr_hi] and every center in the center box, so
  // MbrPairDistBounds' monotone-rounding argument applies unchanged.
  // Where the inset falls below a float ulp of the coordinates (very
  // small rho), the centers round onto the MBR faces, the test fails and
  // the cell stays a maybe — still exact.
  const size_t dim = geom_.dim();
  const SlotMeta& sm = slot_meta_[slot];
  const GlobalCellRef& ref = cell_refs_[slot];
  const uint32_t n = ref.subcell_end - ref.subcell_begin;
  float lo[CellCoord::kMaxDim];
  float hi[CellCoord::kMaxDim];
  for (size_t d = 0; d < dim; ++d) {
    const float* lane = sm.lane_centers + d * sm.lane_padded;
    lo[d] = *std::min_element(lane, lane + n);
    hi[d] = *std::max_element(lane, lane + n);
  }
  double min2 = 0.0;
  double max2 = 0.0;
  return MbrPairDistBounds(mbr_lo, mbr_hi, lo, hi, dim, disjoint2, &min2,
                           &max2) &&
         max2 <= contained2;
}

size_t CellDictionary::SizeBitsLemma43() const {
  const size_t d = geom_.dim();
  const size_t h = static_cast<size_t>(geom_.h());
  // 32 bits of density per (sub-)cell, 32d bits of exact position per cell,
  // d(h-1) bits of local position per sub-cell (Eq. 1).
  return 32 * (num_cells_ + num_subcells_) + 32 * d * num_cells_ +
         d * (h - 1) * num_subcells_;
}

size_t CellDictionary::WireSizeBytes() const {
  // Header, per-cell records (d coordinates + id + sub-cell count),
  // 32-bit densities, then the bit-packed positions behind their 64-bit
  // length.
  constexpr size_t kHeaderBytes = 3 * 4 + 2 * 8 + 2 * 8;
  const size_t position_bits =
      num_subcells_ * geom_.dim() * geom_.bits_per_dim();
  return kHeaderBytes + num_cells_ * 4 * (geom_.dim() + 2) +
         num_subcells_ * 4 + 8 + (position_bits + 7) / 8;
}

std::vector<uint8_t> CellDictionary::Serialize() const {
  // Sub-cell positions: d*(h-1) bits each, bit-packed, in cell order.
  const unsigned bits_per_subcell =
      static_cast<unsigned>(geom_.dim()) * geom_.bits_per_dim();
  BitWriter bits;
  for (const SubDictionary& sd : subdicts_) {
    for (const DictCell& cell : sd.cells_) {
      for (uint32_t s = cell.subcell_begin; s < cell.subcell_end; ++s) {
        const SubcellId& id = sd.subcells_[s].id;
        if (bits_per_subcell <= 64) {
          bits.Write(id.lo, bits_per_subcell);
        } else {
          bits.Write(id.lo, 64);
          bits.Write(id.hi, bits_per_subcell - 64);
        }
      }
    }
  }
  const std::vector<uint8_t> packed = bits.TakeBytes();

  std::vector<uint8_t> out(WireSizeBytes());
  uint8_t* cur = out.data();
  cur = StoreU32(cur, kDictMagic);
  cur = StoreU32(cur, kDictVersion);
  cur = StoreU32(cur, static_cast<uint32_t>(geom_.dim()));
  cur = StoreF64(cur, geom_.eps());
  cur = StoreF64(cur, geom_.rho());
  cur = StoreU64(cur, num_cells_);
  cur = StoreU64(cur, num_subcells_);

  // Per cell: d x 32-bit lattice coordinate (the "exact position" term of
  // Eq. 1), the dense cell id, and its sub-cell count.
  for (const SubDictionary& sd : subdicts_) {
    for (const DictCell& cell : sd.cells_) {
      for (size_t d = 0; d < geom_.dim(); ++d) {
        cur = StoreU32(cur, static_cast<uint32_t>(cell.coord[d]));
      }
      cur = StoreU32(cur, cell.cell_id);
      cur = StoreU32(cur, cell.subcell_end - cell.subcell_begin);
    }
  }
  // Densities: 32 bits per sub-cell, in cell order.
  for (const SubDictionary& sd : subdicts_) {
    for (const DictCell& cell : sd.cells_) {
      for (uint32_t s = cell.subcell_begin; s < cell.subcell_end; ++s) {
        cur = StoreU32(cur, sd.subcells_[s].count);
      }
    }
  }
  cur = StoreU64(cur, packed.size());
  // WireSizeBytes must agree with what was actually encoded; checked
  // before the copy so a disagreement can never write past the buffer.
  RPDBSCAN_CHECK(static_cast<size_t>(out.data() + out.size() - cur) ==
                 packed.size());
  if (!packed.empty()) std::memcpy(cur, packed.data(), packed.size());
  return out;
}

StatusOr<CellDictionary> CellDictionary::Deserialize(
    const std::vector<uint8_t>& bytes, const CellDictionaryOptions& opts,
    ThreadPool* pool) {
  ByteReader in(bytes.data(), bytes.size());
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t dim = 0;
  double eps = 0;
  double rho = 0;
  uint64_t num_cells = 0;
  uint64_t num_subcells = 0;
  if (!in.ReadU32(&magic) || magic != kDictMagic) {
    return Status::InvalidArgument("dictionary buffer: bad magic");
  }
  if (!in.ReadU32(&version) || version != kDictVersion) {
    return Status::InvalidArgument("dictionary buffer: unknown version");
  }
  if (!in.ReadU32(&dim) || !in.ReadF64(&eps) || !in.ReadF64(&rho) ||
      !in.ReadU64(&num_cells) || !in.ReadU64(&num_subcells)) {
    return Status::InvalidArgument("dictionary buffer: truncated header");
  }
  auto geom_or = GridGeometry::Create(dim, eps, rho);
  if (!geom_or.ok()) {
    return Status::InvalidArgument("dictionary buffer: invalid geometry (" +
                                   geom_or.status().message() + ")");
  }
  const GridGeometry& geom = *geom_or;

  // Guard against absurd counts before allocating (overflow-safe).
  const size_t cell_record = 4 * (dim + 2);
  if (num_cells > in.Remaining() / cell_record) {
    return Status::InvalidArgument("dictionary buffer: truncated cells");
  }
  if (num_subcells > in.Remaining() / 4) {
    return Status::InvalidArgument("dictionary buffer: truncated sub-cells");
  }
  std::vector<CellEntry> entries(num_cells);
  uint64_t declared_subcells = 0;
  for (CellEntry& entry : entries) {
    int32_t coords[CellCoord::kMaxDim];
    for (uint32_t d = 0; d < dim; ++d) {
      uint32_t raw = 0;
      if (!in.ReadU32(&raw)) {
        return Status::InvalidArgument("dictionary buffer: truncated cell");
      }
      coords[d] = static_cast<int32_t>(raw);
    }
    entry.coord = CellCoord(coords, dim);
    uint32_t nsub = 0;
    if (!in.ReadU32(&entry.cell_id) || !in.ReadU32(&nsub)) {
      return Status::InvalidArgument("dictionary buffer: truncated cell");
    }
    if (nsub == 0) {
      return Status::InvalidArgument(
          "dictionary buffer: cell with zero sub-cells");
    }
    declared_subcells += nsub;
    if (declared_subcells > num_subcells) {
      // Bound the allocation below: a corrupted per-cell count must not
      // drive resize() beyond the (already remaining-bytes-checked) total.
      return Status::InvalidArgument(
          "dictionary buffer: sub-cell count overflow");
    }
    entry.subcells.resize(nsub);
  }
  if (declared_subcells != num_subcells) {
    return Status::InvalidArgument(
        "dictionary buffer: sub-cell count mismatch");
  }
  // Densities.
  for (CellEntry& entry : entries) {
    for (DictSubcell& sc : entry.subcells) {
      if (!in.ReadU32(&sc.count)) {
        return Status::InvalidArgument(
            "dictionary buffer: truncated densities");
      }
      if (sc.count == 0) {
        return Status::InvalidArgument(
            "dictionary buffer: zero-density sub-cell");
      }
    }
  }
  // Positions.
  uint64_t packed_size = 0;
  if (!in.ReadU64(&packed_size) || packed_size > in.Remaining()) {
    return Status::InvalidArgument(
        "dictionary buffer: truncated position stream");
  }
  const unsigned bits_per_subcell =
      static_cast<unsigned>(dim) * geom.bits_per_dim();
  if (packed_size * 8 < num_subcells * bits_per_subcell) {
    return Status::InvalidArgument(
        "dictionary buffer: position stream too short");
  }
  BitReader bits(in.Cursor(), packed_size);
  for (CellEntry& entry : entries) {
    for (DictSubcell& sc : entry.subcells) {
      if (bits_per_subcell <= 64) {
        sc.id.lo = bits.Read(bits_per_subcell);
      } else {
        sc.id.lo = bits.Read(64);
        sc.id.hi = bits.Read(bits_per_subcell - 64);
      }
    }
  }
  return Assemble(geom, entries, opts, pool, nullptr);
}

}  // namespace rpdbscan
