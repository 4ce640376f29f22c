#ifndef RPDBSCAN_CORE_MERGE_H_
#define RPDBSCAN_CORE_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/cell_graph.h"
#include "parallel/thread_pool.h"

namespace rpdbscan {

/// Edge classification (Def. 5.8). Phase II edges carry no type ("the
/// type ... cannot be confirmed in this phase", Sec. 3): the merge
/// tournament starts every edge kUndetermined and promotes it to
/// full/partial once its successor's owner has been merged in. Invariant
/// maintained by the merge: a kFull edge has already been fed to the
/// union-find (so later rounds pass it through untouched).
enum class EdgeType : uint8_t {
  kUndetermined = 0,
  kFull = 1,     // core -> core; undirected for clustering purposes
  kPartial = 2,  // core -> non-core; direction matters for labeling
};

/// One directed reachability edge between cells, by dense cell id, as the
/// merge tournament and MergeResult::full_edges hold it. The `from` cell
/// is always a core cell.
struct CellEdge {
  uint32_t from = 0;
  uint32_t to = 0;
  EdgeType type = EdgeType::kUndetermined;
};

/// Options for the progressive (tournament) merge.
struct MergeOptions {
  /// Drop redundant full edges via the spanning forest (Sec. 6.1.4). The
  /// ablation benchmark flips this off to measure merge traffic without
  /// reduction.
  bool reduce_edges = true;
  /// Run the matches of each tournament round in parallel on this pool
  /// (Sec. 6.1.1: "multiple parallel rounds"). Null = sequential. Matches
  /// of one round touch disjoint partition lineages, so the result is
  /// identical either way.
  ThreadPool* pool = nullptr;
  /// Replace the tournament reduction entirely with the edge-parallel
  /// lock-free path: every edge is typed directly from the globally
  /// complete core flags and full edges enter a CAS-based concurrent
  /// union-find (graph/disjoint_set), parallel over the cells' successor
  /// rows on `pool`. The deterministic post-pass (min-root relabel over
  /// ascending cell ids + canonical predecessor order) makes cluster ids,
  /// predecessor lists —
  /// and therefore final point labels — bit-identical to the tournament;
  /// which full edges survive reduction is schedule-dependent but always
  /// a spanning forest of the same components, so the
  /// #clusters == #core - #kept-full-edges accounting and AuditMergeForest
  /// both hold unchanged. edges_per_round collapses to the 2-entry series
  /// {initial, final} — flip this off (the pipeline's sequential_merge
  /// knob) when the per-round tournament series itself is the object of
  /// study (Fig. 17).
  bool parallel_unions = false;
};

/// Sentinel cluster id for non-core cells in `core_cluster`.
inline constexpr uint32_t kNoCluster = std::numeric_limits<uint32_t>::max();

/// Result of Phase III-1 (Alg. 4 part 1): the global cell graph, reduced to
/// what point labeling needs.
struct MergeResult {
  /// Per cell id: dense cluster id for core cells, kNoCluster otherwise.
  /// Each spanning tree of full edges is one cluster (Fig. 10b).
  std::vector<uint32_t> core_cluster;
  /// Per cell id: the core predecessor cells of each *non-core* cell —
  /// the surviving partial edges, inverted for labeling (Alg. 4 line 18).
  /// Each list is sorted ascending: the canonical order that makes the
  /// first-match border walk of LabelPoints identical across merge
  /// schedules (tournament and edge-parallel alike).
  std::vector<std::vector<uint32_t>> predecessors;
  /// Total edges alive across all subgraphs after round r (index r);
  /// index 0 is before any merging — the series of Fig. 17 / Table 7.
  std::vector<size_t> edges_per_round;
  size_t num_clusters = 0;
  /// The surviving full (core -> core) edges of the final merged graph.
  /// With `reduce_edges` on these are exactly the spanning forest of
  /// Sec. 6.1.4 (every edge joined two previously disconnected trees), so
  /// the merge-forest auditor can re-verify acyclicity; without reduction
  /// they are all detected full edges.
  std::vector<CellEdge> full_edges;
  /// Whether the run applied full-edge reduction (mirrors
  /// MergeOptions::reduce_edges; tells the auditor which forest invariant
  /// applies).
  bool edges_reduced = false;
};

/// Runs Phase III-1 over the Phase II cell graph: pairwise merging
/// (Def. 6.2), edge-type detection as endpoint types become known
/// (Sec. 6.1.3), and full-edge reduction through a union-find spanning
/// forest (Sec. 6.1.4). Reads `graph` (of `num_cells` cells): the
/// edge-parallel path unions straight from its successor rows, and only
/// the tournament expands each partition's rows into typed edge lists.
MergeResult MergeSubgraphs(const CellGraph& graph, size_t num_cells,
                           const MergeOptions& opts);

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_MERGE_H_
