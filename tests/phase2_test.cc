#include "core/phase2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/exact_dbscan.h"
#include "synth/generators.h"

namespace rpdbscan {
namespace {

struct Pipeline {
  Dataset data{2};
  GridGeometry geom;
  StatusOr<CellSet> cells = Status::Internal("unset");
  StatusOr<CellDictionary> dict = Status::Internal("unset");

  Pipeline(Dataset ds, double eps, double rho, size_t parts)
      : data(std::move(ds)) {
    auto g = GridGeometry::Create(data.dim(), eps, rho);
    EXPECT_TRUE(g.ok());
    geom = *g;
    cells = CellSet::Build(data, geom, parts, 7);
    EXPECT_TRUE(cells.ok());
    dict = CellDictionary::Build(data, *cells);
    EXPECT_TRUE(dict.ok());
  }
};

TEST(Phase2Test, OneSubgraphPerPartition) {
  Pipeline p(synth::Blobs(2000, 3, 1.5, 1), 1.0, 0.01, 6);
  ThreadPool pool(2);
  const Phase2Result r = BuildSubgraphs(p.data, *p.cells, *p.dict, 10, pool);
  EXPECT_EQ(r.subgraphs.partitions.size(), 6u);
  EXPECT_EQ(r.task_seconds.size(), 6u);
  EXPECT_EQ(r.point_is_core.size(), p.data.size());
  EXPECT_EQ(r.subgraphs.cell_is_core.size(), p.cells->num_cells());
  EXPECT_EQ(r.subgraphs.successors.size(), p.cells->num_cells());
}

TEST(Phase2Test, OwnedCellsMatchPartitions) {
  Pipeline p(synth::Blobs(2000, 3, 1.5, 2), 1.0, 0.01, 5);
  ThreadPool pool(2);
  const Phase2Result r = BuildSubgraphs(p.data, *p.cells, *p.dict, 10, pool);
  for (uint32_t pid = 0; pid < 5; ++pid) {
    EXPECT_EQ(r.subgraphs.partitions[pid], p.cells->partition(pid));
  }
}

TEST(Phase2Test, CoreFlagsMatchExactDbscanUpToApproximation) {
  // With rho = 0.01 the (eps,rho)-count is within a whisker of the exact
  // neighborhood count; on well-separated blobs core sets coincide.
  Pipeline p(synth::Blobs(3000, 3, 1.0, 3), 1.0, 0.01, 4);
  ThreadPool pool(2);
  const Phase2Result r = BuildSubgraphs(p.data, *p.cells, *p.dict, 20, pool);
  auto exact = RunExactDbscan(p.data, DbscanParams{1.0, 20});
  ASSERT_TRUE(exact.ok());
  size_t diff = 0;
  for (size_t i = 0; i < p.data.size(); ++i) {
    if (r.point_is_core[i] != exact->point_is_core[i]) ++diff;
  }
  EXPECT_LT(static_cast<double>(diff), 0.01 * p.data.size());
}

TEST(Phase2Test, CoreCellIffHasCorePoint) {
  Pipeline p(synth::Blobs(2000, 3, 1.5, 4), 1.0, 0.05, 4);
  ThreadPool pool(2);
  const Phase2Result r = BuildSubgraphs(p.data, *p.cells, *p.dict, 15, pool);
  for (uint32_t cid = 0; cid < p.cells->num_cells(); ++cid) {
    bool has_core = false;
    for (const uint32_t pid : p.cells->cell(cid).point_ids) {
      has_core |= r.point_is_core[pid] != 0;
    }
    EXPECT_EQ(r.subgraphs.cell_is_core[cid] != 0, has_core) << "cell " << cid;
  }
}

TEST(Phase2Test, EdgesOriginateFromCoreCellsOnly) {
  Pipeline p(synth::Blobs(2000, 3, 1.5, 5), 1.0, 0.05, 4);
  ThreadPool pool(2);
  const Phase2Result r = BuildSubgraphs(p.data, *p.cells, *p.dict, 15, pool);
  for (uint32_t from = 0; from < p.cells->num_cells(); ++from) {
    const std::vector<uint32_t>& row = r.subgraphs.successors[from];
    if (row.empty()) continue;
    EXPECT_EQ(r.subgraphs.cell_is_core[from], 1) << "edge from non-core cell";
    for (const uint32_t to : row) EXPECT_NE(from, to) << "self edge";
  }
}

TEST(Phase2Test, EdgesAreDeduplicatedPerCell) {
  Pipeline p(synth::Blobs(3000, 2, 1.0, 6), 1.5, 0.05, 3);
  ThreadPool pool(2);
  const Phase2Result r = BuildSubgraphs(p.data, *p.cells, *p.dict, 10, pool);
  for (const std::vector<uint32_t>& row : r.subgraphs.successors) {
    EXPECT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                   std::greater_equal<uint32_t>()) ==
                row.end())
        << "row not strictly ascending";
  }
}

TEST(Phase2Test, HighMinPtsYieldsNoCores) {
  Pipeline p(synth::Blobs(500, 2, 2.0, 7), 0.5, 0.05, 3);
  ThreadPool pool(2);
  const Phase2Result r =
      BuildSubgraphs(p.data, *p.cells, *p.dict, 1000000, pool);
  for (const uint8_t c : r.subgraphs.cell_is_core) EXPECT_EQ(c, 0);
  EXPECT_EQ(r.subgraphs.num_edges(), 0u);
}

TEST(Phase2Test, MinPtsOneMakesEveryPointCore) {
  Pipeline p(synth::Blobs(500, 2, 2.0, 8), 0.5, 0.05, 3);
  ThreadPool pool(2);
  const Phase2Result r = BuildSubgraphs(p.data, *p.cells, *p.dict, 1, pool);
  for (const uint8_t c : r.point_is_core) EXPECT_EQ(c, 1);
}

TEST(Phase2Test, SkippingStatsAccumulated) {
  Pipeline p(synth::Blobs(2000, 4, 1.0, 9), 1.0, 0.05, 4);
  ThreadPool pool(2);
  // Lemma 5.10 accounting only exists on the kd-tree path, which a
  // dictionary without a stencil selects: the stencil engine never
  // descends sub-dictionaries and reports probe/hit counters instead
  // (covered by stencil_query_test).
  CellDictionaryOptions tree_opts;
  tree_opts.max_stencil_offsets = 0;
  auto tree_dict = CellDictionary::Build(p.data, *p.cells, tree_opts);
  ASSERT_TRUE(tree_dict.ok());
  const Phase2Result r =
      BuildSubgraphs(p.data, *p.cells, *tree_dict, 10, pool);
  EXPECT_GT(r.subdict_possible, 0u);
  EXPECT_LE(r.subdict_visited, r.subdict_possible);
}

TEST(Phase2Test, VisitOrderChangesNothing) {
  // BuildSubgraphs walks each partition's cells in the dictionary's slot
  // order; RecomputeCells touching every cell of an empty state runs the
  // same per-cell unit in ascending id order. Densities are integer sums
  // and rows are sets, so flags, rows and counters must agree, on both
  // candidate engines and at any thread count.
  struct Case {
    std::string name;
    Dataset data;
    double eps;
    size_t min_pts;
    size_t max_stencil_offsets;
  };
  const size_t stencil = CellDictionaryOptions().max_stencil_offsets;
  std::vector<Case> cases;
  for (const size_t offsets : {stencil, size_t{0}}) {
    const std::string engine = offsets == 0 ? " tree" : " stencil";
    cases.push_back({"blobs d=2" + engine, synth::Blobs(3000, 4, 1.5, 11, 2),
                     1.0, 10, offsets});
    cases.push_back({"blobs d=3" + engine, synth::Blobs(3000, 4, 1.5, 12, 3),
                     1.0, 10, offsets});
  }
  cases.push_back({"tera d=13", synth::TeraLike(1500, 13), 20.0, 10,
                   stencil});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto geom = GridGeometry::Create(c.data.dim(), c.eps, 0.01);
    ASSERT_TRUE(geom.ok());
    auto cells = CellSet::Build(c.data, *geom, 6, 7);
    ASSERT_TRUE(cells.ok());
    CellDictionaryOptions dict_opts;
    dict_opts.max_stencil_offsets = c.max_stencil_offsets;
    auto dict = CellDictionary::Build(c.data, *cells, dict_opts);
    ASSERT_TRUE(dict.ok());

    std::vector<uint32_t> all(cells->num_cells());
    std::iota(all.begin(), all.end(), 0u);
    ThreadPool one(1);
    Phase2Result by_id;
    RecomputeCells(c.data, *cells, *dict, c.min_pts, one, Phase2Options(),
                   all, &by_id);
    ASSERT_GT(by_id.early_exits, 0u);
    for (const size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const Phase2Result r =
          BuildSubgraphs(c.data, *cells, *dict, c.min_pts, pool);
      EXPECT_EQ(r.point_is_core, by_id.point_is_core);
      EXPECT_EQ(r.subgraphs.cell_is_core, by_id.subgraphs.cell_is_core);
      EXPECT_EQ(r.subgraphs.successors, by_id.subgraphs.successors);
      EXPECT_EQ(r.candidate_cells_scanned, by_id.candidate_cells_scanned);
      EXPECT_EQ(r.early_exits, by_id.early_exits);
      EXPECT_EQ(r.stencil_probes, by_id.stencil_probes);
      EXPECT_EQ(r.subdict_visited, by_id.subdict_visited);
      EXPECT_EQ(r.task_seconds.size(), cells->num_partitions());
    }
  }
}

}  // namespace
}  // namespace rpdbscan
