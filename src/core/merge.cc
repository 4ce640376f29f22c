#include "core/merge.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <mutex>

#include "graph/disjoint_set.h"
#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace rpdbscan {
namespace {

// A subgraph during the tournament: the cells whose owning partitions
// have been folded into it, and its edges.
struct TournamentGraph {
  std::vector<uint32_t> owned;
  std::vector<CellEdge> edges;
};

size_t TotalEdges(const std::vector<TournamentGraph>& graphs) {
  size_t n = 0;
  for (const auto& g : graphs) n += g.edges.size();
  return n;
}

// Merges `b` into `a` (Def. 6.2), then re-types and reduces edges inside
// the merged graph using the type knowledge available to it. `dsu` is the
// global union-find accumulating the spanning forest of full edges,
// guarded by `dsu_mu` when matches of a round run concurrently (their
// lineages are disjoint, so the lock is for memory safety only — the
// outcome is order-independent).
void MergePair(TournamentGraph& a, TournamentGraph&& b, DisjointSet& dsu,
               std::mutex& dsu_mu, const std::vector<uint8_t>& cell_is_core,
               bool reduce_edges) {
  // Def. 6.2: union of vertices; a cell owned by one side promotes the
  // other side's undetermined view. With single ownership there are no
  // core/non-core conflicts.
  a.owned.insert(a.owned.end(), b.owned.begin(), b.owned.end());
  a.edges.insert(a.edges.end(),
                 std::make_move_iterator(b.edges.begin()),
                 std::make_move_iterator(b.edges.end()));
  b.owned.clear();
  b.edges.clear();

  // Edge type detection (Sec. 6.1.3) + reduction (Sec. 6.1.4) in one
  // sweep. An edge can be typed only once this merged graph *contains* the
  // successor's owning partition — even though the core flags are
  // globally known, resolving earlier would misstate the per-round edge
  // series the paper reports (Fig. 17). Hence the `known` membership
  // check.
  std::unordered_set<uint32_t> known(a.owned.begin(), a.owned.end());
  std::vector<CellEdge> kept;
  kept.reserve(a.edges.size());
  for (CellEdge& e : a.edges) {
    if (e.type == EdgeType::kUndetermined) {
      if (known.count(e.to) == 0) {
        kept.push_back(e);  // successor still unknown: keep for later round
        continue;
      }
      if (cell_is_core[e.to] != 0) {
        e.type = EdgeType::kFull;
        // Full edge: both cells' points share a cluster (Lemma 3.5).
        // Keep the edge only if it extends the spanning forest.
        bool novel;
        {
          std::lock_guard<std::mutex> lock(dsu_mu);
          novel = dsu.Union(e.from, e.to);
        }
        if (novel || !reduce_edges) kept.push_back(e);
        continue;
      }
      e.type = EdgeType::kPartial;
    }
    // Partial, or already typed in an earlier round (full edges are
    // already in the union-find; partial edges just ride along).
    kept.push_back(e);
  }
  a.edges = std::move(kept);
}

// Shared deterministic post-pass of both merge paths: cluster ids from
// first-encounter over ascending core cell ids (any Find whose component
// partition matches yields the same ids), predecessor lists from partial
// edges — sorted ascending so the first-match border walk downstream is
// schedule-independent — and full edges in final-graph order.
template <typename FindFn>
void HarvestClusters(const std::vector<uint8_t>& cell_is_core,
                     FindFn&& find, const std::vector<CellEdge>& final_edges,
                     MergeResult* result) {
  const size_t num_cells = cell_is_core.size();
  result->core_cluster.assign(num_cells, kNoCluster);
  std::unordered_map<uint32_t, uint32_t> root_to_cluster;
  for (uint32_t cid = 0; cid < num_cells; ++cid) {
    if (cell_is_core[cid] == 0) continue;
    const uint32_t root = find(cid);
    const auto it = root_to_cluster
                        .emplace(root, static_cast<uint32_t>(
                                           root_to_cluster.size()))
                        .first;
    result->core_cluster[cid] = it->second;
  }
  result->num_clusters = root_to_cluster.size();

  result->predecessors.assign(num_cells, {});
  for (const CellEdge& e : final_edges) {
    if (e.type == EdgeType::kPartial) {
      result->predecessors[e.to].push_back(e.from);
    } else if (e.type == EdgeType::kFull) {
      result->full_edges.push_back(e);
    }
  }
  for (std::vector<uint32_t>& preds : result->predecessors) {
    std::sort(preds.begin(), preds.end());
  }
}

// The edge-parallel path (MergeOptions::parallel_unions): the tournament
// exists to propagate type knowledge pair by pair, but the core flags are
// complete before any merging starts — so every edge can be typed
// independently, and full edges can race into a lock-free union-find. One
// pass over the successor rows, parallel over cell ids, replaces O(log k)
// rounds of concatenate + hash-set rebuilds; per-worker kept lists are
// concatenated and sorted by (from, to) (unique: a row holds no
// duplicates) so the final edge list is deterministic even though the
// union schedule is not.
MergeResult MergeSubgraphsParallel(const CellGraph& graph,
                                   const MergeOptions& opts) {
  MergeResult result;
  const std::vector<uint8_t>& cell_is_core = graph.cell_is_core;
  const size_t num_cells = cell_is_core.size();
  result.edges_per_round.push_back(graph.num_edges());

  ConcurrentDisjointSet dsu(num_cells);
  const size_t num_workers =
      opts.pool != nullptr && opts.pool->num_threads() > 0
          ? opts.pool->num_threads()
          : 1;
  std::vector<std::vector<CellEdge>> kept(num_workers);
  auto type_row = [&](size_t worker, size_t cid) {
    const uint32_t from = static_cast<uint32_t>(cid);
    for (const uint32_t to : graph.successors[cid]) {
      if (cell_is_core[to] != 0) {
        // Full edge (Lemma 3.5): survives only if its union extends the
        // spanning forest. Which unions succeed is schedule-dependent,
        // but their count — and the component partition — is not.
        const bool novel = dsu.Union(from, to);
        if (novel || !opts.reduce_edges) {
          kept[worker].push_back(CellEdge{from, to, EdgeType::kFull});
        }
      } else {
        kept[worker].push_back(CellEdge{from, to, EdgeType::kPartial});
      }
    }
  };
  if (opts.pool != nullptr && num_workers > 1) {
    ParallelForWorkers(*opts.pool, num_cells, type_row, /*chunk=*/64);
  } else {
    for (size_t cid = 0; cid < num_cells; ++cid) type_row(0, cid);
  }

  std::vector<CellEdge> final_edges;
  size_t kept_total = 0;
  for (const std::vector<CellEdge>& k : kept) kept_total += k.size();
  final_edges.reserve(kept_total);
  for (std::vector<CellEdge>& k : kept) {
    final_edges.insert(final_edges.end(), k.begin(), k.end());
    k.clear();
  }
  std::sort(final_edges.begin(), final_edges.end(),
            [](const CellEdge& a, const CellEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  result.edges_per_round.push_back(final_edges.size());

  result.edges_reduced = opts.reduce_edges;
  HarvestClusters(
      cell_is_core, [&dsu](uint32_t cid) { return dsu.Find(cid); },
      final_edges, &result);
  return result;
}

}  // namespace

MergeResult MergeSubgraphs(const CellGraph& graph, size_t num_cells,
                           const MergeOptions& opts) {
  RPDBSCAN_CHECK(graph.cell_is_core.size() == num_cells &&
                 graph.successors.size() == num_cells)
      << "cell graph sized for " << graph.cell_is_core.size() << " / "
      << graph.successors.size() << " cells, want " << num_cells;
  if (opts.parallel_unions) return MergeSubgraphsParallel(graph, opts);
  MergeResult result;
  // Runs fn(0..n) on the pool when there is one and more than one task.
  auto run = [&opts](size_t n, auto&& fn) {
    if (opts.pool != nullptr && n > 1) {
      ParallelFor(*opts.pool, n, fn, /*chunk=*/1);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  };

  // Round 0: each partition's rows, expanded to untyped edges in owned-cell
  // order.
  std::vector<TournamentGraph> round(graph.partitions.size());
  run(round.size(), [&](size_t p) {
    TournamentGraph& g = round[p];
    g.owned = graph.partitions[p];
    size_t num_edges = 0;
    for (const uint32_t cid : g.owned) {
      num_edges += graph.successors[cid].size();
    }
    g.edges.reserve(num_edges);
    for (const uint32_t cid : g.owned) {
      for (const uint32_t to : graph.successors[cid]) {
        g.edges.push_back(CellEdge{cid, to, EdgeType::kUndetermined});
      }
    }
  });

  DisjointSet dsu(num_cells);
  std::mutex dsu_mu;
  result.edges_per_round.push_back(TotalEdges(round));  // round 0

  // Tournament (Sec. 6.1.1): pair up subgraphs each round until one is
  // left; the matches of one round are independent and run in parallel
  // when a pool is provided. An odd graph gets a bye.
  while (round.size() > 1) {
    const size_t matches = round.size() / 2;
    run(matches, [&](size_t m) {
      MergePair(round[2 * m], std::move(round[2 * m + 1]), dsu, dsu_mu,
                graph.cell_is_core, opts.reduce_edges);
    });
    std::vector<TournamentGraph> next;
    next.reserve(matches + 1);
    for (size_t m = 0; m < matches; ++m) {
      next.push_back(std::move(round[2 * m]));
    }
    if (round.size() % 2 == 1) next.push_back(std::move(round.back()));
    round = std::move(next);
    result.edges_per_round.push_back(TotalEdges(round));
  }

  // Single-partition runs never enter the loop; resolve their edges with
  // one self-merge so the global graph is fully typed.
  if (round.size() == 1 && !round[0].edges.empty()) {
    MergePair(round[0], TournamentGraph{}, dsu, dsu_mu, graph.cell_is_core,
              opts.reduce_edges);
    if (result.edges_per_round.size() == 1) {
      result.edges_per_round.push_back(round[0].edges.size());
    }
  }

  // Harvest the global graph: cluster ids from the spanning forest and
  // predecessor lists from partial edges.
  result.edges_reduced = opts.reduce_edges;
  static const std::vector<CellEdge> kNoEdges;
  HarvestClusters(
      graph.cell_is_core, [&dsu](uint32_t cid) { return dsu.Find(cid); },
      round.empty() ? kNoEdges : round[0].edges, &result);
  return result;
}

}  // namespace rpdbscan
