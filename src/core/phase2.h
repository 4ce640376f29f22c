#ifndef RPDBSCAN_CORE_PHASE2_H_
#define RPDBSCAN_CORE_PHASE2_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/cell_graph.h"
#include "core/cell_set.h"
#include "io/dataset.h"
#include "parallel/thread_pool.h"

namespace rpdbscan {

/// Phase II knobs. The candidate engine is not among them: Phase II walks
/// the lattice stencil (CellDictionary::QueryCellStencil) iff the
/// dictionary carries one, and descends the per-sub-dictionary kd-trees
/// (CellDictionary::QueryCell) otherwise. Both give identical results.
struct Phase2Options {
  /// Force the portable scalar sub-cell kernels instead of the runtime-
  /// detected SIMD tier (core/simd.h). Results are bit-identical either
  /// way; the flag exists for ablations and the equivalence tests.
  bool scalar_kernels = false;

  // --- multi-eps ladder knobs (src/hierarchy/). Defaults reproduce the
  // --- classic single-eps run bit-for-bit. ---

  /// Region-query radius of the core test and edge collection; 0 keeps
  /// the geometry eps. Must be >= the geometry eps (the cell diagonal
  /// must stay within the query radius for the core-cell labeling lemma)
  /// and within the dictionary's stencil_eps_scale headroom.
  double query_eps = 0.0;
  /// Per-point core seed (size data.size(), borrowed): points flagged 1
  /// are known core at this level — the ladder's core-set monotonicity
  /// (density at a fixed geometry is non-decreasing in query_eps, so a
  /// level's cores stay core at any eps' >= eps with min_pts' <=
  /// min_pts). Seeded points skip the pass-1 density count and go
  /// straight to neighbor collection; the emitted edge union and labels
  /// are bit-identical to an unseeded run (only valid seeds, i.e. true
  /// cores, may be flagged).
  const uint8_t* seed_point_core = nullptr;
  /// Sampled-core candidate mask (size cells.num_cells(), borrowed): the
  /// DBSCAN++-style approximation. Cells with mask 0 are excluded from
  /// core marking entirely — their points stay non-core (border labeling
  /// through sampled neighbors still applies downstream) and their
  /// Phase II scan is skipped, which is where the speed-for-exactness
  /// trade lands. Null keeps the exact run.
  const uint8_t* core_cell_mask = nullptr;
};

/// Output of Phase II (cell graph construction, Alg. 3) across all
/// partitions.
struct Phase2Result {
  /// Every partition's local cell subgraph, by cell id.
  CellGraph subgraphs;
  /// Per-point core flag (indexed by point id), set by the owning
  /// partition. Needed later by point labeling (Lemma 3.5, partial case).
  std::vector<uint8_t> point_is_core;
  /// Wall seconds spent by each partition's task — the per-split numbers
  /// behind the paper's load-imbalance metric (Fig. 13).
  std::vector<double> task_seconds;
  /// Sub-dictionaries inspected / total sub-dictionary visits possible,
  /// summed over the kd-tree engine's cell-level traversals (Lemma 5.10
  /// effectiveness; both 0 on the stencil engine).
  size_t subdict_visited = 0;
  size_t subdict_possible = 0;
  /// Point-candidate bound evaluations of the tile scan: those of pass 1
  /// (each still-undecided point against each "maybe" candidate it
  /// reaches) plus the chunk members tested in pass 2's edge search. And
  /// the number of points proven core before exhausting their candidate
  /// list.
  size_t candidate_cells_scanned = 0;
  size_t early_exits = 0;
  /// Stencil engine only: precomputed neighborhood entries walked (per
  /// cell at most num_offsets + 1, including the source cell itself; a
  /// function of the lattice only).
  size_t stencil_probes = 0;
  /// SIMD tier of the sub-cell kernels actually used.
  SimdLevel simd_level = SimdLevel::kScalar;
};

/// Bounding box of cell `coord`'s points derived from the dictionary's own
/// occupied sub-cell ranges (the union of occupied sub-cell boxes) instead
/// of a scan over the points. The box is rounded one float ulp outward
/// per face so it conservatively covers every point even where sub-cell
/// assignment clamped a point sitting a double-rounding error outside its
/// decoded box. Since the dictionary precomputes these MBRs per cell at
/// Assemble (SubDictionary::cell_mbr), this is now an O(d) lookup.
/// Returns false when the dictionary has no cell at `coord`. Exposed for
/// the equivalence tests.
bool SubcellRangeMbr(const CellDictionary& dict, const CellCoord& coord,
                     float* mbr_lo, float* mbr_hi);

/// Runs Phase II: for every partition (in parallel on `pool`), performs an
/// (eps, rho)-region query per point, marks core points and core cells
/// (Example 5.7), and writes each core cell's successor row: every cell
/// holding at least one neighbor sub-cell of one of its core points
/// (Defs. 3.3/3.4; untyped, per Alg. 3).
Phase2Result BuildSubgraphs(const Dataset& data, const CellSet& cells,
                            const CellDictionary& dict, size_t min_pts,
                            ThreadPool& pool,
                            const Phase2Options& opts = Phase2Options());

/// Re-runs the Phase II per-cell unit for exactly `targets` (dense cell
/// ids, no duplicates) in place on `state`, the output of an earlier run
/// over a prefix of the same points — the streaming path's incremental
/// recompute. `state` is first grown to `data` and `cells` (new points and
/// cells non-core, new rows empty) and takes the cell set's current
/// partition lists; then the target cells' point flags, core flags and
/// successor rows are rewritten, and every other entry is left as it is.
/// The counters and simd_level describe this call alone; task_seconds is
/// untouched. Because a cell's Phase II output is a pure function of its
/// own points and the dictionary (partition assignment never enters), a
/// rewritten entry is bit-identically what a from-scratch BuildSubgraphs
/// over the same data and dictionary would produce for it.
void RecomputeCells(const Dataset& data, const CellSet& cells,
                    const CellDictionary& dict, size_t min_pts,
                    ThreadPool& pool, const Phase2Options& opts,
                    const std::vector<uint32_t>& targets,
                    Phase2Result* state);

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_PHASE2_H_
