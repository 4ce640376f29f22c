#ifndef RPDBSCAN_CORE_CELL_DICTIONARY_H_
#define RPDBSCAN_CORE_CELL_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/cell_coord.h"
#include "core/cell_set.h"
#include "core/flat_cell_index.h"
#include "core/grid.h"
#include "core/lattice_stencil.h"
#include "core/simd.h"
#include "io/dataset.h"
#include "parallel/thread_pool.h"
#include "spatial/kdtree.h"
#include "spatial/mbr.h"
#include "util/status.h"

namespace rpdbscan {

/// One sub-cell entry of the dictionary: packed local position plus the
/// number of points inside (the "density", Sec. 4.2.1).
struct DictSubcell {
  SubcellId id;
  uint32_t count = 0;
};

/// One root-node entry of the dictionary: a cell, its total density, and
/// the contiguous range of its sub-cells in the owning sub-dictionary.
struct DictCell {
  CellCoord coord;
  uint32_t cell_id = 0;       // dense id shared with CellSet / cell graph
  uint32_t total_count = 0;
  uint32_t subcell_begin = 0;
  uint32_t subcell_end = 0;
};

/// A defragmented fragment of the two-level cell dictionary (Def. 4.4):
/// a subset of cells, their sub-cells, an MBR for skipping (Lemma 5.10)
/// and a kd-tree over cell centers for candidate lookup (Lemma 5.6) whose
/// nodes carry the union box of the occupied cell MBRs below them.
///
/// Move-only: the dictionary's per-slot metadata points into these arrays
/// and the kd-tree into cell_centers_. A move keeps every buffer in place;
/// a copy would keep pointing at the source's.
class SubDictionary {
 public:
  SubDictionary() = default;
  SubDictionary(const SubDictionary&) = delete;
  SubDictionary& operator=(const SubDictionary&) = delete;
  SubDictionary(SubDictionary&&) = default;
  SubDictionary& operator=(SubDictionary&&) = default;

  const Mbr& mbr() const { return mbr_; }
  size_t num_cells() const { return cells_.size(); }
  size_t num_subcells() const { return subcells_.size(); }
  const std::vector<DictCell>& cells() const { return cells_; }
  const std::vector<DictSubcell>& subcells() const { return subcells_; }
  /// Precomputed cell centers (see the private members below): a
  /// read-only view for the auditors, which recompute them from the
  /// geometry and compare bit-exactly.
  const std::vector<float>& cell_centers() const { return cell_centers_; }

  // --- Lane-major (SoA) sub-cell storage, the only copy of the sub-cell
  // --- centers: every kernel (core/simd.h), the per-point Query and the
  // --- auditors read it. Each cell owns a padded block of kSimdLaneWidth-
  // --- aligned slots: coordinate d's lane is lane_centers(c) +
  // --- d * lane_padded(c), densities sit in lane_counts(c). Padding
  // --- slots hold +inf centers / zero counts so kernels run whole
  // --- vector strides. ---

  /// Padded slot count of a cell's lane block (multiple of
  /// kSimdLaneWidth, >= its sub-cell count).
  uint32_t lane_padded(uint32_t local_cell) const {
    return lane_begin_[local_cell + 1] - lane_begin_[local_cell];
  }
  /// The cell's coordinate lanes: lane_dim() runs of lane_padded() floats.
  const float* lane_centers(uint32_t local_cell) const {
    return lane_centers_.data() +
           static_cast<size_t>(lane_begin_[local_cell]) * lane_dim_;
  }
  /// The cell's per-slot densities (0 in padding slots).
  const uint32_t* lane_counts(uint32_t local_cell) const {
    return lane_counts_.data() + lane_begin_[local_cell];
  }
  size_t lane_dim() const { return lane_dim_; }

  /// Tight per-cell bounds: the MBR of the cell's *occupied* sub-cell
  /// boxes (2 * dim floats: lo then hi), decoded from the packed sub-cell
  /// ids at Assemble with one float ulp outward per face — the same
  /// arithmetic SubcellRangeMbr (core/phase2.h) used to recompute per
  /// query. Candidate classification tests against this instead of the
  /// full cell box: on sparse cells it is much smaller, so more
  /// candidates resolve as provably-contained or provably-disjoint at
  /// cell level, and the per-point box tests reject earlier. Soundness is
  /// unchanged — every occupied sub-cell box (hence every sub-cell
  /// center, hence every point) lies inside it.
  const float* cell_mbr(uint32_t local_cell) const {
    return cell_mbrs_.data() + static_cast<size_t>(local_cell) * 2 * lane_dim_;
  }

  /// The kd-tree over cell centers (item ids are local cell indices), its
  /// node boxes built from cell_mbr(): read-only, for the auditors.
  const KdTree& tree() const { return tree_; }

 private:
  friend class CellDictionary;

  std::vector<DictCell> cells_;
  std::vector<DictSubcell> subcells_;
  /// Cell centers (num_cells * dim floats) indexed by the kd-tree.
  std::vector<float> cell_centers_;
  /// Lane-major sub-cell storage (see the accessors above): per-cell
  /// padded slot offsets (num_cells + 1 entries, slot units), the
  /// dim-major center lanes and per-slot densities.
  std::vector<uint32_t> lane_begin_;
  std::vector<float> lane_centers_;
  std::vector<uint32_t> lane_counts_;
  /// Occupied-sub-cell MBR per cell, 2 * dim floats (see cell_mbr()).
  std::vector<float> cell_mbrs_;
  size_t lane_dim_ = 0;
  KdTree tree_;
  Mbr mbr_{0};
};

/// One entry of the dictionary-global cell index: where a cell's DictCell
/// landed after defragmentation, keyed by the precomputed CellCoord hash
/// through FlatCellIndex. The dense cell id, total density, and sub-cell
/// range are duplicated here from the DictCell so a stencil probe hit
/// classifies, records, and later flattens the candidate from this one
/// entry — the query path never issues a dependent load into the
/// sub-dictionary's cell array. Lattice coordinates live in a separate
/// flat array (CellDictionary::ref_coords_) so this stays a 24-byte
/// struct: a probe hit's classification reads touch a single cache line.
struct GlobalCellRef {
  uint32_t subdict = 0;
  uint32_t local_cell = 0;
  uint32_t cell_id = 0;
  uint32_t total_count = 0;
  uint32_t subcell_begin = 0;
  uint32_t subcell_end = 0;
};

/// Resolution of a lattice coordinate through the global cell index.
struct DictCellRef {
  const SubDictionary* subdict = nullptr;
  const DictCell* cell = nullptr;
  explicit operator bool() const { return cell != nullptr; }
};

/// Build/query options. The ablation benchmarks flip the booleans.
struct CellDictionaryOptions {
  /// Cells per sub-dictionary before BSP splits further (stands in for the
  /// paper's "available main memory" bound, Sec. 4.2.2).
  size_t max_cells_per_subdict = 2048;
  /// Apply BSP defragmentation; false keeps one monolithic sub-dictionary.
  bool defragment = true;
  /// Apply MBR-based sub-dictionary skipping during queries (Lemma 5.10).
  bool enable_skipping = true;
  /// Stencil size cap, the high-dimensionality fallback threshold: when
  /// the eps-ball offset set would exceed this many offsets the stencil
  /// stays disabled and Phase II falls back to kd-tree traversal. The
  /// default covers d <= 5 (the d = 5 stencil holds 6094 offsets; d = 6
  /// would need 41220); 0 builds no stencil at any dimensionality.
  size_t max_stencil_offsets = 8192;
  /// Query-radius headroom of the stencil: the assembled offset family
  /// (and its precomputed neighborhood CSR) covers query radii up to
  /// stencil_eps_scale * eps instead of exactly eps. Queries at smaller
  /// radii reuse the CSR through an integer class filter (the family
  /// members are nested prefixes, LatticeStencil::CreateScaled); 1.0
  /// keeps the classic single-eps stencil bit-for-bit. The multi-eps
  /// ladder (src/hierarchy/) builds one dictionary at its largest
  /// level's scale and runs every level against it.
  double stencil_eps_scale = 1.0;
};

/// Wall-time sub-breakdown of a dictionary build (feeds RunStats' Phase
/// I-2 split, as Phase1Breakdown does for Phase I-1). Assembly from given
/// entries (FromEntries, Deserialize) leaves histogram_seconds at 0.
struct DictionaryBreakdown {
  double histogram_seconds = 0;     // per-cell sub-cell histograms
  double fragment_seconds = 0;      // BSP fragments, trees, lanes, index
  double neighborhood_seconds = 0;  // stencil neighborhood CSR
};

/// std::allocator whose value-less construct default-initializes, so a
/// resize leaves trivially constructible elements unwritten: an array
/// the pool fills is first touched by the pool instead of being zeroed
/// on the calling thread beforehand.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One cell's raw dictionary content: the unit of dictionary assembly and
/// of the Lemma 4.3 wire format.
struct CellEntry {
  CellCoord coord;
  uint32_t cell_id = 0;
  std::vector<DictSubcell> subcells;
};

/// Flat SoA candidate set produced by CellDictionary::QueryCell (or
/// QueryCellStencil) for one source cell: everything the (eps,
/// rho)-region queries of *all* points inside that cell can touch,
/// gathered once per cell — one box-bounded kd-tree descent per
/// sub-dictionary, or one stencil walk — and laid out contiguously so the
/// per-point scan does no hash or tree work. Reuse one instance across the
/// cells of a partition task — Clear() keeps the allocations.
///
/// Candidate cells split into two groups by box-to-box distance bounds
/// (valid for every query point in the source cell):
///  * "always" cells, provably eps-contained for any point of the source
///    cell: pre-summed into `always_count` (the containment fast path of
///    Example 5.5 hoisted from point to cell level). The source cell is
///    measured against the box of its own sub-cell centers, so a fully
///    occupied source cell lands here too;
///  * "maybe" cells, needing the per-point containment / sub-cell distance
///    tests, stored as parallel arrays plus a flattened copy of their
///    sub-cell centers and densities.
/// Cells whose box can never intersect any query ball are dropped at
/// gather time.
struct CandidateCellList {
  /// Summed density of the always-contained cells (source cell included
  /// when its own sub-cell centers lie within every query ball).
  uint64_t always_count = 0;
  /// Ids of the always-contained cells, source cell excluded — for a core
  /// point every one of them is a neighbor cell.
  std::vector<uint32_t> always_neighbors;

  // --- "maybe" cells, one entry per cell (SoA), sorted by ascending
  // --- MBR-to-MBR distance to the source cell so the tile scan meets the
  // --- densest/nearest candidates first and exits at min_pts early. ---
  std::vector<uint32_t> cell_ids;
  /// Each candidate's occupied-sub-cell MBR (SubDictionary::cell_mbr,
  /// 2 * dim floats: lo then hi), the box the per-point bounds measure.
  std::vector<const float*> mbrs;
  /// Total density per cell (the containment fast-path contribution).
  std::vector<uint32_t> total_counts;
  /// Lane-major sub-cell views of the candidates (SubDictionary lane
  /// accessors): what the vector kernels scan.
  std::vector<const float*> lane_centers;
  std::vector<const uint32_t*> lane_counts;
  std::vector<uint32_t> lane_padded;

  /// Scratch for the proximity sort of the maybe group before flattening:
  /// the sort key plus the candidate's global cell-index slot, through
  /// which SortAndFlattenMaybes copies everything the flat SoA needs from
  /// the per-slot metadata table (CellDictionary::slot_meta_) in one
  /// load — no dictionary cell storage, no pointer chasing per field.
  struct MaybeRef {
    double min2 = 0;        // MBR-to-MBR lower bound to the source cell
    uint32_t cell_id = 0;   // deterministic tie-break
    uint32_t slot = 0;      // index into cell_refs() / the slot-meta table
  };
  std::vector<MaybeRef> maybe_refs;

  size_t num_maybe() const { return cell_ids.size(); }

  void Clear() {
    always_count = 0;
    always_neighbors.clear();
    cell_ids.clear();
    mbrs.clear();
    total_counts.clear();
    lane_centers.clear();
    lane_counts.clear();
    lane_padded.clear();
    maybe_refs.clear();
  }
};

/// The two-level cell dictionary (Def. 4.2): the broadcast-compact summary
/// of the *entire* data set that lets each worker answer (eps, rho)-region
/// queries for successors living in other partitions without communication.
///
/// Immutable after Build; queries are const and thread-safe — exactly the
/// broadcast-variable role it plays on Spark in the paper.
class CellDictionary {
 public:
  /// Builds the dictionary over every cell of `cells` (which indexes
  /// `data`). Cell ids in the dictionary are the CellSet ids. Per-cell
  /// sub-cell histograms are computed in parallel on `pool` when given
  /// (the paper builds per-partition dictionaries on the workers before
  /// combining them, Alg. 2 lines 13-20).
  static StatusOr<CellDictionary> Build(
      const Dataset& data, const CellSet& cells,
      const CellDictionaryOptions& opts = CellDictionaryOptions(),
      ThreadPool* pool = nullptr);

  /// One cell's dictionary entry — the per-cell unit of work inside Build,
  /// exposed so the streaming ingest path can recompute only the touched
  /// cells' entries. A pure function of the cell's point list: the sub-cell
  /// histogram, sorted by (hi, lo) sub-cell id.
  static CellEntry MakeCellEntry(const Dataset& data, const GridGeometry& geom,
                                 const CellData& cell, uint32_t cell_id);

  /// Assembles a dictionary from precomputed entries (dense cell-id order;
  /// `entries[i].cell_id == i`). `Build` == MakeCellEntry per cell +
  /// FromEntries, so a dictionary assembled from cached entries is
  /// structurally identical to a from-scratch Build over the same cells.
  ///
  /// `prior` (optional) is a dictionary over the first
  /// prior->num_cells() of the same cells — the previous stream epoch's.
  /// Every prior cell keeps its stencil-neighborhood list, renumbered to
  /// the new slots, and only the cells with id >= prior->num_cells()
  /// have their stencil windows swept; the prior's lattice order is
  /// merged with the new cells' instead of re-sorted. Everything else is
  /// assembled exactly as without a prior. The result differs from a
  /// from-scratch Build only in the order of entries within a
  /// neighborhood list, which no consumer depends on
  /// (StencilNeighborsOf): labels and wire bytes are identical. A prior
  /// that does not fit — more cells than `entries`, a cell id whose
  /// coordinate differs, another geometry or another stencil offset
  /// family — fails with InvalidArgument.
  static StatusOr<CellDictionary> FromEntries(
      const GridGeometry& geom, const std::vector<CellEntry>& entries,
      const CellDictionaryOptions& opts = CellDictionaryOptions(),
      ThreadPool* pool = nullptr, const CellDictionary* prior = nullptr);

  const GridGeometry& geom() const { return geom_; }
  /// Sub-stage wall times of the build that made this dictionary.
  const DictionaryBreakdown& breakdown() const { return breakdown_; }
  size_t num_cells() const { return num_cells_; }
  size_t num_subcells() const { return num_subcells_; }
  size_t num_subdictionaries() const { return subdicts_.size(); }
  const std::vector<SubDictionary>& subdictionaries() const {
    return subdicts_;
  }

  /// Dictionary size in bits per Lemma 4.3 / Eq. (1):
  ///   32(|cell| + |subcell|) + 32 d |cell| + d(h-1)|subcell|.
  size_t SizeBitsLemma43() const;

  /// Same, rounded up to bytes (what Table 5 reports as a fraction of the
  /// raw data payload).
  size_t SizeBytesLemma43() const { return (SizeBitsLemma43() + 7) / 8; }

  /// (eps, rho)-region query (Def. 5.1) around `p`: invokes
  /// `visit(const DictCell&, uint32_t matched_count)` once per cell that
  /// has at least one sub-cell whose center lies within eps of `p`.
  /// `matched_count` is the summed density of those sub-cells; for cells
  /// fully contained in the query ball the whole cell is taken in one step
  /// (Example 5.5's containment fast path).
  ///
  /// Returns the number of sub-dictionaries actually inspected (after
  /// skipping) so callers can account for the Lemma 5.10 savings.
  template <typename Visitor>
  size_t Query(const float* p, Visitor&& visit,
               double query_eps = 0.0) const {
    const double eps = geom_.eps();
    const double qeps = query_eps > 0.0 ? query_eps : eps;
    const double eps2 = qeps * qeps;
    // Any cell with a sub-cell center within the query radius has its own
    // center within query_eps + cell_diagonal/2 (cell diagonal is eps,
    // Def. 3.1) — 1.5 * eps in the classic query_eps == eps case, whose
    // exact expression is kept so default queries stay bit-for-bit.
    const double candidate_radius =
        qeps == eps ? 1.5 * eps : qeps + 0.5 * eps;
    size_t visited = 0;
    for (const SubDictionary& sd : subdicts_) {
      if (enable_skipping_ && sd.mbr_.MinDist2(p) > eps2) continue;
      ++visited;
      auto per_candidate = [&](uint32_t local_cell, double) {
        const DictCell& cell = sd.cells_[local_cell];
        if (geom_.CellMaxDist2(cell.coord, p) <= eps2) {
          // Fully contained: every sub-cell is an (eps,rho)-neighbor.
          visit(cell, cell.total_count);
          return;
        }
        if (geom_.CellMinDist2(cell.coord, p) > eps2) {
          return;  // cannot intersect
        }
        // Each sub-cell center is gathered from the cell's lanes and
        // tested with DistanceSquared's arithmetic.
        const size_t dim = geom_.dim();
        const uint32_t padded = sd.lane_padded(local_cell);
        const float* lanes = sd.lane_centers(local_cell);
        float center[CellCoord::kMaxDim];
        uint32_t matched = 0;
        for (uint32_t s = cell.subcell_begin; s < cell.subcell_end; ++s) {
          const uint32_t slot = s - cell.subcell_begin;
          for (size_t d = 0; d < dim; ++d) {
            center[d] = lanes[d * padded + slot];
          }
          if (DistanceSquared(p, center, dim) <= eps2) {
            matched += sd.subcells_[s].count;
          }
        }
        if (matched > 0) visit(cell, matched);
      };
      sd.tree_.ForEachInRadius(p, candidate_radius, per_candidate);
    }
    return visited;
  }

  /// Batched (eps, rho)-region query for every point of cell `cell` at
  /// once: gathers into `*out` (cleared first) the candidate-cell set that
  /// per-point queries of any point inside the cell could reach, with one
  /// box-bounded kd-tree descent per non-skipped sub-dictionary. `mbr_lo`
  /// / `mbr_hi` (dim floats each) bound the cell's *actual* points.
  /// Candidates are classified by MBR-to-MBR bounds against each
  /// candidate's precomputed occupied-sub-cell MBR (tighter than its full
  /// cell box on sparse data): provably contained cells are pre-summed,
  /// provably disjoint cells are dropped, and the rest are referenced for
  /// per-point tests, sorted nearest-first. The descent applies the same
  /// bounds to each node's union box first: a disjoint node is dropped
  /// whole, a contained node puts every cell below it into the pre-summed
  /// group in one step, and only partial leaves classify cell by cell.
  /// Bounds are monotone under box containment, so a node's verdict is
  /// each of its cells' verdict. A source cell these bounds leave a maybe
  /// gets a second test against the box of its own sub-cell centers
  /// (OwnCentersContained), so a fully occupied source is pre-summed too.
  /// The classification is conservative (tiny relative margins push
  /// borderline cells into the per-point group), so scanning `*out`
  /// reproduces Query() exactly for every point inside the MBR: a
  /// contained candidate's sub-cell centers all lie within eps (its whole
  /// density counts, as Query would), a disjoint candidate's never do.
  ///
  /// Returns the number of sub-dictionaries inspected after MBR skipping,
  /// here at most one visit per sub-dictionary per *cell* (vs per point
  /// for Query) — the Lemma 5.10 accounting for the batched kernel.
  /// `query_eps` decouples the region-query radius from the geometry eps
  /// (the eps ladder, src/hierarchy/); 0 keeps the classic radius.
  size_t QueryCell(const CellCoord& cell, const float* mbr_lo,
                   const float* mbr_hi, CandidateCellList* out,
                   double query_eps = 0.0) const;

  /// Same contract as QueryCell and bit-identical Phase II results, but
  /// candidates are enumerated over the precomputed eps-ball lattice
  /// stencil instead of per-sub-dictionary tree descent. Every cell any
  /// query point can match has integer lattice distance class m(o) <= d,
  /// so the stencil covers it; hits are classified with QueryCell's
  /// MBR-to-MBR arithmetic and margins verbatim (the source cell's center
  /// box test included), and the per-point tests downstream reuse
  /// Query()'s exact arithmetic — so results cannot differ. (The
  /// candidate *lists* may differ in provably-zero-match cells: the tree
  /// path's Lemma 5.10 MBR skipping can drop cells the stencil still
  /// classifies. Both prunings are sound, which is all the downstream
  /// scan needs.)
  ///
  /// The engine's unique lever: which dictionary cells occupy a source
  /// cell's stencil window is a pure function of the lattice — not of the
  /// query — so Assemble resolves every cell's window once into a CSR
  /// neighborhood list of global index slots. A query is then a linear
  /// walk of that list, classifying each neighbor from its per-slot
  /// metadata (occupied-sub-cell MBR, density, cell id): no tree descent,
  /// no hash probes, no coordinate arithmetic on the hot path.
  ///
  /// Only callable when has_stencil(), for a `cell` present in the
  /// dictionary (every CellSet cell is one), and for a `query_eps` within
  /// the assembled stencil_eps_scale headroom. Returns the number of
  /// neighborhood entries walked (at most num_offsets + 1, including the
  /// source cell itself — a function of the lattice only, independent of
  /// the query MBR and of min_pts).
  /// A `query_eps` below the assembled scale reuses the CSR through an
  /// integer class filter: the same inclusion criterion a fresh
  /// enumeration of that radius's own stencil applies.
  size_t QueryCellStencil(const CellCoord& cell, const float* mbr_lo,
                          const float* mbr_hi, CandidateCellList* out,
                          double query_eps = 0.0) const;

  /// O(1) lattice coordinate -> DictCell through the dictionary-global
  /// open-addressing index (always built, including after Deserialize).
  /// Returns a null ref for coordinates with no dictionary cell.
  DictCellRef FindDictCell(const CellCoord& coord) const;

  // --- Read-only serving surface (src/serve/). The label server probes
  // --- the dictionary-global index directly — stencil-ordered FindHashed
  // --- probes resolved from the 24-byte GlobalCellRefs, coordinates
  // --- confirmed against the flat ref_coords array — without going
  // --- through the Phase II candidate-list machinery. ---

  /// The dictionary-global open-addressing cell index (hashed-slot mode).
  const FlatCellIndex& cell_index() const { return cell_index_; }
  /// GlobalCellRef payloads, in the order cell_index() ids resolve to.
  const std::vector<GlobalCellRef>& cell_refs() const { return cell_refs_; }
  /// Lattice coordinates matching cell_refs() (dim int32s per cell): the
  /// hash-collision confirm array for FlatCellIndex::FindHashed.
  const std::vector<int32_t>& ref_coords() const { return ref_coords_; }

  /// Index into cell_refs() of the cell at `coord`, or -1 when absent.
  int64_t FindCellRefIndex(const CellCoord& coord) const {
    return cell_index_.FindHashed(coord.hash(), coord.data(),
                                  geom_.dim(), ref_coords_.data());
  }

  /// True when the eps-ball lattice stencil was built (its offset count
  /// within max_stencil_offsets). Phase II walks the stencil iff this
  /// holds, and descends the per-sub-dictionary kd-trees otherwise.
  bool has_stencil() const { return stencil_.enabled(); }
  const LatticeStencil& stencil() const { return stencil_; }

  /// Precomputed stencil neighborhood of the cell at global slot `slot`
  /// (an index into cell_refs()): the global slots of every dictionary
  /// cell inside its stencil window, the cell itself first (stencil
  /// offsets are non-zero, so no later entry can repeat it), the rest in
  /// no particular order. This is the CSR QueryCellStencil walks; the
  /// batched serving path walks it once per query group. Only callable
  /// when has_stencil().
  const uint32_t* StencilNeighborsOf(size_t slot, size_t* count) const {
    const size_t begin = stencil_nbr_begin_[slot];
    *count = stencil_nbr_begin_[slot + 1] - begin;
    return stencil_nbr_slots_.data() + begin;
  }
  /// The neighborhood CSR itself — per-slot offsets (num_cells() + 1
  /// entries) and the concatenated lists — read-only, for the auditors.
  const std::vector<size_t>& stencil_neighbor_begin() const {
    return stencil_nbr_begin_;
  }
  std::span<const uint32_t> stencil_neighbor_slots() const {
    return stencil_nbr_slots_;
  }

  /// Total density of all (eps, rho)-neighbor sub-cells of `p` — the count
  /// compared against minPts in core marking (Example 5.7).
  uint32_t QueryCount(const float* p, double query_eps = 0.0) const {
    uint32_t total = 0;
    Query(
        p, [&total](const DictCell&, uint32_t c) { total += c; },
        query_eps);
    return total;
  }

  /// Serializes the dictionary into the Lemma 4.3 wire layout: a fixed
  /// header, then per cell its exact position (32 bits per dimension),
  /// id and sub-cell count, then 32-bit densities, then the sub-cell
  /// positions bit-packed at d*(h-1) bits each. This is the payload the
  /// paper broadcasts to every worker (Alg. 1 line 5); Table 5 reports
  /// its size relative to the data. Snapshots embed it verbatim.
  std::vector<uint8_t> Serialize() const;

  /// Exact byte size of Serialize()'s output, computed from the cell and
  /// sub-cell counts alone (O(1)): the broadcast payload a run reports.
  size_t WireSizeBytes() const;

  /// Reconstructs a dictionary from Serialize() output, re-running
  /// defragmentation and index construction with `opts` (a loader may use
  /// different memory limits or stencil headroom than the writer). The global
  /// cell index and stencil are rebuilt as well, on `pool` when given.
  /// Fails with InvalidArgument on a corrupt or truncated buffer.
  static StatusOr<CellDictionary> Deserialize(
      const std::vector<uint8_t>& bytes,
      const CellDictionaryOptions& opts = CellDictionaryOptions(),
      ThreadPool* pool = nullptr);

  /// An inert dictionary (no cells, dim-0 geometry): only useful as an
  /// assignment target — CapturedModel and the snapshot loader construct
  /// one and move a built dictionary in. Mirrors GridGeometry's default.
  CellDictionary() = default;

  /// Move-only: the per-slot metadata points into the sub-dictionaries'
  /// arrays. A move keeps those buffers in place; a copy would keep
  /// pointing at the source's.
  CellDictionary(const CellDictionary&) = delete;
  CellDictionary& operator=(const CellDictionary&) = delete;
  CellDictionary(CellDictionary&&) = default;
  CellDictionary& operator=(CellDictionary&&) = default;

 private:
  /// Shared assembly path of Build, FromEntries and Deserialize:
  /// defragmentation (BSP), per-fragment kd-trees, MBRs, pre-decoded
  /// sub-cell centers, the global cell index (parallel on `pool` when
  /// given), the lattice stencil and its neighborhood CSR (carried over
  /// from `prior` where it applies, see FromEntries).
  static StatusOr<CellDictionary> Assemble(
      const GridGeometry& geom, const std::vector<CellEntry>& entries,
      const CellDictionaryOptions& opts, ThreadPool* pool,
      const CellDictionary* prior);

  /// Fills lattice_order_ and stencil_nbr_begin_ / stencil_nbr_slots_
  /// once the cell refs and the stencil exist; `prior` has been checked
  /// to fit.
  void BuildStencilNeighborhoods(const CellDictionary* prior,
                                 ThreadPool* pool);

  /// Shared tail of QueryCell / QueryCellStencil: nearest-first sort of
  /// the maybe group and the SoA flattening.
  void SortAndFlattenMaybes(CandidateCellList* out) const;

  /// The source cell's own classification, shared by QueryCell and
  /// QueryCellStencil for a source its MBR-to-MBR bounds left a maybe:
  /// true when the box of the cell's sub-cell centers (the min/max over
  /// its occupied lane slots) is provably within the query radius of
  /// every point of the point MBR [mbr_lo, mbr_hi].
  bool OwnCentersContained(uint32_t slot, const float* mbr_lo,
                           const float* mbr_hi, double disjoint2,
                           double contained2) const;

  /// Everything candidate classification and the SoA flatten need about
  /// one dictionary cell, resolved to direct pointers once at Assemble
  /// and indexed by global cell-index slot: classification reads the MBR
  /// and density from one structure, and SortAndFlattenMaybes copies the
  /// lane views out without touching the sub-dictionaries at all.
  struct SlotMeta {
    const float* lane_centers = nullptr;
    const uint32_t* lane_counts = nullptr;
    const float* mbr = nullptr;  // 2 * dim floats: lo then hi
    uint32_t lane_padded = 0;
    uint32_t total_count = 0;
    uint32_t cell_id = 0;
  };

  GridGeometry geom_;
  std::vector<SubDictionary> subdicts_;
  /// Dictionary-global cell index: cell_refs_ in sub-dictionary layout
  /// order, probed through cell_index_ by coordinate hash. ref_coords_
  /// holds the matching lattice coordinates (dim int32s per cell, same
  /// order) — the hash-collision check array of FlatCellIndex::FindHashed,
  /// kept out of GlobalCellRef so the hot classification fields stay
  /// one-cache-line dense.
  std::vector<GlobalCellRef> cell_refs_;
  std::vector<int32_t> ref_coords_;
  /// Per-slot classification/flatten metadata, parallel to cell_refs_.
  std::vector<SlotMeta> slot_meta_;
  /// First global slot of each sub-dictionary (subdicts_.size() + 1
  /// entries): slot of (subdict f, local cell i) = subdict_ref_base_[f]
  /// + i, how the tree engine addresses the per-slot metadata.
  std::vector<uint32_t> subdict_ref_base_;
  /// Precomputed stencil neighborhoods (built when the stencil is): for
  /// the cell at global slot s, stencil_nbr_slots_[stencil_nbr_begin_[s]
  /// .. stencil_nbr_begin_[s + 1]) lists the global slots of the
  /// dictionary cells inside its stencil window — itself first, then
  /// the neighbors carried over from a prior dictionary (if any), then
  /// the ones the merge-join found, in a deterministic (thread-count
  /// independent) order. The order is free because no consumer depends
  /// on it: "maybe" candidates are re-sorted by distance bound, neighbor
  /// edges are sorted and deduplicated downstream, the stream's dirty
  /// closure is a set, and serving sums integer densities and breaks
  /// ties by cell id.
  /// A query acceleration structure, never serialized: the Lemma 4.3
  /// wire payload is unchanged, and Deserialize rebuilds it through
  /// Assemble. The slots are sized on the calling thread but not zeroed:
  /// the pool's fill pass is their first write.
  std::vector<size_t> stencil_nbr_begin_;
  std::vector<uint32_t, DefaultInitAllocator<uint32_t>> stencil_nbr_slots_;
  /// Cell ids sorted by lattice coordinate, lexicographically with the
  /// last dimension fastest (built with the CSR): the order its
  /// merge-join sweeps, kept so the next stream epoch merges its new
  /// cells in instead of sorting every cell again.
  std::vector<uint32_t> lattice_order_;
  DictionaryBreakdown breakdown_;
  FlatCellIndex cell_index_;
  LatticeStencil stencil_;
  size_t num_cells_ = 0;
  size_t num_subcells_ = 0;
  bool enable_skipping_ = true;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_CELL_DICTIONARY_H_
