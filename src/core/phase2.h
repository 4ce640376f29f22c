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

/// Runs Phase II: for every partition (in parallel on `pool`), performs an
/// (eps, rho)-region query per point, marks core points and core cells
/// (Example 5.7), and writes each core cell's successor row: every cell
/// holding at least one neighbor sub-cell of one of its core points
/// (Defs. 3.3/3.4; untyped, per Alg. 3). Each partition's task visits its
/// cells in `dict`'s slot order, which must list exactly `cells`' cells
/// (checked); no result or counter depends on the order.
Phase2Result BuildSubgraphs(const Dataset& data, const CellSet& cells,
                            const CellDictionary& dict, size_t min_pts,
                            ThreadPool& pool,
                            const Phase2Options& opts = Phase2Options());

/// What one RecomputeCells call did.
struct RecomputeSummary {
  /// The touched cells plus the untouched cells their gathers reached.
  size_t affected_cells = 0;
  /// Reached cells whose points were all core: their rows were only
  /// tested against the touched cells that reached them.
  size_t extended_cells = 0;
  /// Points of the cells that re-ran the per-cell unit: the touched cells
  /// and the reached cells holding a non-core point.
  size_t rerun_points = 0;
};

/// Extends `state`, the output of an earlier run over a prefix of the
/// same points, to `data`, `cells` and `dict` in place — the streaming
/// path's incremental Phase II. `touched` lists, ascending, the cells
/// that gained points since `state` was computed, every new cell
/// included. `state` is first grown (new points and cells non-core, new
/// rows empty) and takes the cell set's current partition lists.
///
/// An append only adds sub-cell mass, so every density can only grow:
/// `state`'s core points stay core and seed the per-cell unit
/// (Phase2Options::seed_point_core), and a row only gains cells. Each
/// touched cell re-runs the seeded unit, and its candidate gather names
/// the untouched cells it reaches. A gather drops a cell only when the
/// two cells' occupied-sub-cell MBRs are provably more than eps apart, so
/// no other cell can reach a touched one. A reached cell holding a
/// non-core point re-runs the seeded unit as well. A reached cell whose
/// points were all core keeps its flags and row, and its row gains each
/// touched cell its points now reach: one in its always group without a
/// kernel call, a maybe one through one GroupBoundsFn call and at most
/// one SubcellAnyMatchFn call. Every other entry is left as it is, and
/// the result is bit-identically what a from-scratch BuildSubgraphs over
/// the same data and dictionary emits.
///
/// `opts` must carry no seed_point_core and no core_cell_mask. The
/// counters and simd_level describe this call alone; task_seconds is
/// untouched.
RecomputeSummary RecomputeCells(const Dataset& data, const CellSet& cells,
                                const CellDictionary& dict, size_t min_pts,
                                ThreadPool& pool, const Phase2Options& opts,
                                const std::vector<uint32_t>& touched,
                                Phase2Result* state);

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_PHASE2_H_
