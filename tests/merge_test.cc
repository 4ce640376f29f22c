#include "core/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace rpdbscan {
namespace {

constexpr bool kCore = true;
constexpr bool kNonCore = false;

// One hand-built partition: its (cell id, core) pairs and the edges of its
// cells.
struct Part {
  std::vector<std::pair<uint32_t, bool>> owned;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
};

Part MakePart(std::vector<std::pair<uint32_t, bool>> owned,
              std::vector<std::pair<uint32_t, uint32_t>> edges) {
  return Part{std::move(owned), std::move(edges)};
}

// The cell graph of `num_cells` cells the parts describe.
CellGraph ToGraph(const std::vector<Part>& parts, size_t num_cells) {
  CellGraph g;
  g.cell_is_core.assign(num_cells, 0);
  g.successors.resize(num_cells);
  for (const Part& part : parts) {
    g.partitions.emplace_back();
    for (const auto& [cid, core] : part.owned) {
      g.partitions.back().push_back(cid);
      g.cell_is_core[cid] = core ? 1 : 0;
    }
    for (const auto& [from, to] : part.edges) {
      g.successors[from].push_back(to);
    }
  }
  for (std::vector<uint32_t>& row : g.successors) {
    std::sort(row.begin(), row.end());
  }
  return g;
}

TEST(MergeTest, TwoPartitionsJoinAcrossBoundary) {
  // Cells 0,1 core in partition 0; cells 2,3 core in partition 1.
  // Edges: 0->1 (internal), 1->2 (cross), 2->3 (internal).
  std::vector<Part> parts;
  parts.push_back(MakePart({{0, kCore}, {1, kCore}}, {{0, 1}, {1, 2}}));
  parts.push_back(MakePart({{2, kCore}, {3, kCore}}, {{2, 3}}));
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 4), 4, MergeOptions());
  EXPECT_EQ(r.num_clusters, 1u);
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(r.core_cluster[c], r.core_cluster[0]);
    EXPECT_NE(r.core_cluster[c], kNoCluster);
  }
}

TEST(MergeTest, DisconnectedCoresFormSeparateClusters) {
  std::vector<Part> parts;
  parts.push_back(MakePart({{0, kCore}}, {}));
  parts.push_back(MakePart({{1, kCore}}, {}));
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 2), 2, MergeOptions());
  EXPECT_EQ(r.num_clusters, 2u);
  EXPECT_NE(r.core_cluster[0], r.core_cluster[1]);
}

TEST(MergeTest, PartialEdgesBecomePredecessors) {
  // Cell 0 core, cell 1 non-core in another partition.
  std::vector<Part> parts;
  parts.push_back(MakePart({{0, kCore}}, {{0, 1}}));
  parts.push_back(MakePart({{1, kNonCore}}, {}));
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 2), 2, MergeOptions());
  EXPECT_EQ(r.num_clusters, 1u);
  EXPECT_EQ(r.core_cluster[1], kNoCluster);
  ASSERT_EQ(r.predecessors[1].size(), 1u);
  EXPECT_EQ(r.predecessors[1][0], 0u);
  EXPECT_TRUE(r.predecessors[0].empty());
}

TEST(MergeTest, NonCoreCellsNeverGetClusters) {
  std::vector<Part> parts;
  parts.push_back(MakePart({{0, kNonCore}, {1, kNonCore}}, {}));
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 2), 2, MergeOptions());
  EXPECT_EQ(r.num_clusters, 0u);
  EXPECT_EQ(r.core_cluster[0], kNoCluster);
  EXPECT_EQ(r.core_cluster[1], kNoCluster);
}

TEST(MergeTest, RedundantFullEdgesAreReduced) {
  // A 4-cycle of core cells inside one partition plus both diagonals:
  // spanning tree keeps 3 of the 6 edges.
  std::vector<Part> parts;
  parts.push_back(
      MakePart({{0, kCore}, {1, kCore}, {2, kCore}, {3, kCore}},
               {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}}));
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 4), 4, MergeOptions());
  EXPECT_EQ(r.num_clusters, 1u);
  ASSERT_GE(r.edges_per_round.size(), 2u);
  EXPECT_EQ(r.edges_per_round.front(), 6u);
  EXPECT_EQ(r.edges_per_round.back(), 3u);
}

TEST(MergeTest, ReductionOffKeepsAllFullEdges) {
  std::vector<Part> parts;
  parts.push_back(MakePart({{0, kCore}, {1, kCore}, {2, kCore}},
                           {{0, 1}, {1, 2}, {2, 0}}));
  MergeOptions opts;
  opts.reduce_edges = false;
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 3), 3, opts);
  EXPECT_EQ(r.num_clusters, 1u);
  EXPECT_EQ(r.edges_per_round.back(), 3u);  // cycle kept
}

TEST(MergeTest, EdgeCountsAreMonotoneNonIncreasing) {
  // 8 partitions in a chain; every partition links to the next one's cell.
  std::vector<Part> parts;
  for (uint32_t p = 0; p < 8; ++p) {
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    if (p + 1 < 8) edges.push_back({p, p + 1});
    if (p > 0) edges.push_back({p, p - 1});
    parts.push_back(MakePart({{p, kCore}}, edges));
  }
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 8), 8, MergeOptions());
  EXPECT_EQ(r.num_clusters, 1u);
  // Tournament over 8 graphs = 3 rounds; round 0 recorded first.
  EXPECT_EQ(r.edges_per_round.size(), 4u);
  for (size_t i = 1; i < r.edges_per_round.size(); ++i) {
    EXPECT_LE(r.edges_per_round[i], r.edges_per_round[i - 1]);
  }
  // Chain of 8 with bidirectional edges (14 total) reduces to 7 spanning.
  EXPECT_EQ(r.edges_per_round.front(), 14u);
  EXPECT_EQ(r.edges_per_round.back(), 7u);
}

TEST(MergeTest, UndeterminedEdgesResolveOnlyWhenOwnerArrives) {
  // Partition 0 has an edge to cell 3 owned by partition 3; with 4
  // partitions the tournament resolves it in round 2, not round 1.
  std::vector<Part> parts;
  parts.push_back(MakePart({{0, kCore}}, {{0, 3}}));
  parts.push_back(MakePart({{1, kCore}}, {}));
  parts.push_back(MakePart({{2, kCore}}, {}));
  parts.push_back(MakePart({{3, kCore}}, {}));
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 4), 4, MergeOptions());
  EXPECT_EQ(r.num_clusters, 3u);  // {0,3}, {1}, {2}
  ASSERT_EQ(r.edges_per_round.size(), 3u);
  EXPECT_EQ(r.edges_per_round[0], 1u);
  EXPECT_EQ(r.edges_per_round[1], 1u);  // still undetermined after round 1
  EXPECT_EQ(r.edges_per_round[2], 1u);  // resolved full, kept as spanning
  EXPECT_EQ(r.core_cluster[0], r.core_cluster[3]);
}

TEST(MergeTest, SinglePartitionResolvesEverything) {
  std::vector<Part> parts;
  parts.push_back(MakePart({{0, kCore}, {1, kCore}, {2, kNonCore}},
                           {{0, 1}, {0, 2}, {1, 0}}));
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 3), 3, MergeOptions());
  EXPECT_EQ(r.num_clusters, 1u);
  EXPECT_EQ(r.core_cluster[0], r.core_cluster[1]);
  EXPECT_EQ(r.core_cluster[2], kNoCluster);
  ASSERT_EQ(r.predecessors[2].size(), 1u);
  EXPECT_EQ(r.predecessors[2][0], 0u);
}

TEST(MergeTest, ParallelMergeMatchesSequential) {
  // 16 partitions in a ring with cross edges; pool-parallel rounds must
  // produce the identical global graph.
  std::vector<Part> parts;
  for (uint32_t p = 0; p < 16; ++p) {
    parts.push_back(
        MakePart({{p, kCore}}, {{p, (p + 1) % 16}, {p, (p + 5) % 16}}));
  }
  const CellGraph graph = ToGraph(parts, 16);
  const MergeResult seq = MergeSubgraphs(graph, 16, MergeOptions());
  ThreadPool pool(4);
  MergeOptions par;
  par.pool = &pool;
  const MergeResult con = MergeSubgraphs(graph, 16, par);
  EXPECT_EQ(seq.num_clusters, con.num_clusters);
  EXPECT_EQ(seq.core_cluster, con.core_cluster);
  EXPECT_EQ(seq.edges_per_round, con.edges_per_round);
}

TEST(MergeTest, EmptyInput) {
  const MergeResult r = MergeSubgraphs({}, 0, MergeOptions());
  EXPECT_EQ(r.num_clusters, 0u);
  EXPECT_TRUE(r.core_cluster.empty());
}

TEST(MergeTest, ClusterIdsAreDense) {
  std::vector<Part> parts;
  parts.push_back(MakePart({{0, kCore}, {1, kCore}, {2, kCore}}, {}));
  const MergeResult r = MergeSubgraphs(ToGraph(parts, 3), 3, MergeOptions());
  EXPECT_EQ(r.num_clusters, 3u);
  std::vector<bool> seen(3, false);
  for (uint32_t c = 0; c < 3; ++c) {
    ASSERT_LT(r.core_cluster[c], 3u);
    seen[r.core_cluster[c]] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

}  // namespace
}  // namespace rpdbscan
