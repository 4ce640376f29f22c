#include "core/labeling.h"

#include <gtest/gtest.h>

#include "core/cell_dictionary.h"
#include "core/phase2.h"
#include "synth/generators.h"

namespace rpdbscan {
namespace {

// Runs the full pipeline pieces up to labeling on a small data set.
struct Pipeline {
  Dataset data{2};
  GridGeometry geom;
  StatusOr<CellSet> cells = Status::Internal("unset");
  MergeResult merged;
  std::vector<uint8_t> point_is_core;
  Labels labels;

  Pipeline(Dataset ds, double eps, size_t min_pts, size_t parts)
      : data(std::move(ds)) {
    auto g = GridGeometry::Create(data.dim(), eps, 0.01);
    EXPECT_TRUE(g.ok());
    geom = *g;
    cells = CellSet::Build(data, geom, parts, 7);
    EXPECT_TRUE(cells.ok());
    auto dict = CellDictionary::Build(data, *cells);
    EXPECT_TRUE(dict.ok());
    ThreadPool pool(2);
    Phase2Result p2 = BuildSubgraphs(data, *cells, *dict, min_pts, pool);
    point_is_core = p2.point_is_core;
    merged = MergeSubgraphs(p2.subgraphs, cells->num_cells(), MergeOptions());
    labels = LabelPoints(data, *cells, merged, point_is_core, pool);
  }
};

TEST(LabelingTest, CorePointsAreNeverNoise) {
  Pipeline p(synth::Blobs(3000, 3, 1.0, 1), /*eps=*/1.0, /*min_pts=*/20, 4);
  for (size_t i = 0; i < p.data.size(); ++i) {
    if (p.point_is_core[i] != 0) {
      EXPECT_NE(p.labels[i], kNoise) << "core point " << i << " is noise";
    }
  }
}

TEST(LabelingTest, PointsInCoreCellShareTheCellCluster) {
  Pipeline p(synth::Blobs(3000, 3, 1.0, 2), 1.0, 20, 4);
  for (uint32_t cid = 0; cid < p.cells->num_cells(); ++cid) {
    const uint32_t cluster = p.merged.core_cluster[cid];
    if (cluster == kNoCluster) continue;
    for (const uint32_t pid : p.cells->cell(cid).point_ids) {
      EXPECT_EQ(p.labels[pid], static_cast<int64_t>(cluster));
    }
  }
}

TEST(LabelingTest, BorderPointsAreWithinEpsOfTheirClustersCore) {
  Pipeline p(synth::Blobs(3000, 3, 1.0, 3), 1.0, 20, 4);
  const double eps2 = 1.0;
  for (uint32_t cid = 0; cid < p.cells->num_cells(); ++cid) {
    if (p.merged.core_cluster[cid] != kNoCluster) continue;
    for (const uint32_t q : p.cells->cell(cid).point_ids) {
      if (p.labels[q] == kNoise) continue;
      // Labeled border point: must be within eps of a core point with the
      // same label (Lemma 3.5, partial clause).
      bool justified = false;
      for (size_t i = 0; i < p.data.size() && !justified; ++i) {
        if (p.point_is_core[i] == 0) continue;
        if (p.labels[i] != p.labels[q]) continue;
        justified = DistanceSquared(p.data.point(q), p.data.point(i),
                                    p.data.dim()) <= eps2;
      }
      EXPECT_TRUE(justified) << "border point " << q << " unjustified";
    }
  }
}

TEST(LabelingTest, NoiseCellsWithoutPredecessorsStayNoise) {
  Pipeline p(synth::Blobs(2000, 3, 1.0, 4), 1.0, 20, 4);
  for (uint32_t cid = 0; cid < p.cells->num_cells(); ++cid) {
    if (p.merged.core_cluster[cid] != kNoCluster) continue;
    if (!p.merged.predecessors[cid].empty()) continue;
    for (const uint32_t q : p.cells->cell(cid).point_ids) {
      EXPECT_EQ(p.labels[q], kNoise);
    }
  }
}

TEST(LabelingTest, LabelCountMatchesDatasetSize) {
  Pipeline p(synth::Blobs(1000, 2, 1.5, 5), 1.0, 15, 3);
  EXPECT_EQ(p.labels.size(), p.data.size());
}

TEST(LabelingTest, SinglePartitionAndManyPartitionsAgree) {
  const Dataset ds = synth::Blobs(2500, 3, 1.0, 6);
  Pipeline one(ds, 1.0, 20, 1);
  Pipeline many(ds, 1.0, 20, 12);
  // Same clustering up to label permutation: compare co-membership on a
  // sample of pairs.
  for (size_t i = 0; i < 500; ++i) {
    const size_t a = (i * 7919) % ds.size();
    const size_t b = (i * 104729) % ds.size();
    const bool same_one = one.labels[a] == one.labels[b] &&
                          one.labels[a] != kNoise;
    const bool same_many = many.labels[a] == many.labels[b] &&
                           many.labels[a] != kNoise;
    EXPECT_EQ(same_one, same_many) << "pair " << a << "," << b;
  }
}

}  // namespace
}  // namespace rpdbscan
