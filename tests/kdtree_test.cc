#include "spatial/kdtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "io/dataset.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

// Brute-force reference for radius queries.
std::vector<uint32_t> BruteRadius(const Dataset& ds, const float* q,
                                  double r) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (DistanceSquared(q, ds.point(i), ds.dim()) <= r * r) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

Dataset RandomDataset(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(dim);
  ds.Reserve(n);
  std::vector<float> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = static_cast<float>(rng.UniformDouble(0, 100));
    ds.Append(p.data());
  }
  return ds;
}

TEST(KdTreeTest, EmptyTreeReturnsNothing) {
  KdTree tree;
  tree.Build(nullptr, 0, 2);
  const float q[2] = {0, 0};
  EXPECT_TRUE(tree.RadiusSearch(q, 10).empty());
}

TEST(KdTreeTest, SinglePoint) {
  Dataset ds(2);
  ds.Append({5, 5});
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2);
  const float near[2] = {5.5f, 5.0f};
  const float far[2] = {50, 50};
  EXPECT_EQ(tree.RadiusSearch(near, 1.0).size(), 1u);
  EXPECT_TRUE(tree.RadiusSearch(far, 1.0).empty());
}

TEST(KdTreeTest, RadiusIsClosedBall) {
  Dataset ds(1);
  ds.Append({0});
  ds.Append({1});
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 1);
  const float q[1] = {0};
  EXPECT_EQ(tree.RadiusSearch(q, 1.0).size(), 2u);  // boundary included
}

TEST(KdTreeTest, DuplicatePointsAllFound) {
  Dataset ds(2);
  for (int i = 0; i < 20; ++i) ds.Append({1, 1});
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2, /*leaf_size=*/4);
  const float q[2] = {1, 1};
  EXPECT_EQ(tree.RadiusSearch(q, 0.1).size(), 20u);
}

TEST(KdTreeTest, MatchesBruteForce2d) {
  const Dataset ds = RandomDataset(2000, 2, 42);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const float q[2] = {static_cast<float>(rng.UniformDouble(0, 100)),
                        static_cast<float>(rng.UniformDouble(0, 100))};
    const double r = rng.UniformDouble(0.5, 15.0);
    auto got = tree.RadiusSearch(q, r);
    auto want = BruteRadius(ds, q, r);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "trial " << trial << " r=" << r;
  }
}

TEST(KdTreeTest, MatchesBruteForceHighDim) {
  const Dataset ds = RandomDataset(500, 7, 43);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  Rng rng(8);
  std::vector<float> q(7);
  for (int trial = 0; trial < 20; ++trial) {
    for (auto& v : q) v = static_cast<float>(rng.UniformDouble(0, 100));
    const double r = rng.UniformDouble(10.0, 60.0);
    auto got = tree.RadiusSearch(q.data(), r);
    auto want = BruteRadius(ds, q.data(), r);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST(KdTreeTest, ForEachReportsCorrectDistances) {
  const Dataset ds = RandomDataset(300, 3, 44);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  const float q[3] = {50, 50, 50};
  tree.ForEachInRadius(q, 30.0, [&](uint32_t id, double d2) {
    EXPECT_NEAR(d2, DistanceSquared(q, ds.point(id), 3), 1e-9);
    EXPECT_LE(d2, 900.0 + 1e-9);
  });
}

TEST(KdTreeTest, CountInRadiusMatchesSearchSize) {
  const Dataset ds = RandomDataset(1000, 2, 45);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  const float q[2] = {50, 50};
  EXPECT_EQ(tree.CountInRadius(q, 20.0),
            tree.RadiusSearch(q, 20.0).size());
}

TEST(KdTreeTest, CountInRadiusHonorsCap) {
  Dataset ds(2);
  for (int i = 0; i < 100; ++i) ds.Append({0, 0});
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2);
  const float q[2] = {0, 0};
  EXPECT_EQ(tree.CountInRadius(q, 1.0, /*cap=*/10), 10u);
}

TEST(KdTreeTest, KNearestMatchesBruteForce) {
  const Dataset ds = RandomDataset(1500, 3, 47);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    const float q[3] = {static_cast<float>(rng.UniformDouble(0, 100)),
                        static_cast<float>(rng.UniformDouble(0, 100)),
                        static_cast<float>(rng.UniformDouble(0, 100))};
    const size_t k = 1 + rng.Uniform(20);
    const auto got = tree.KNearest(q, k);
    // Brute-force reference.
    std::vector<std::pair<double, uint32_t>> want;
    for (size_t i = 0; i < ds.size(); ++i) {
      want.push_back({DistanceSquared(q, ds.point(i), 3),
                      static_cast<uint32_t>(i)});
    }
    std::sort(want.begin(), want.end());
    want.resize(k);
    ASSERT_EQ(got.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(got[i].first, want[i].first, 1e-9) << "rank " << i;
    }
  }
}

TEST(KdTreeTest, KNearestSortedAscending) {
  const Dataset ds = RandomDataset(500, 2, 48);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2);
  const float q[2] = {50, 50};
  const auto knn = tree.KNearest(q, 32);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_GE(knn[i].first, knn[i - 1].first);
  }
}

TEST(KdTreeTest, KNearestKLargerThanTree) {
  const Dataset ds = RandomDataset(10, 2, 49);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2);
  const float q[2] = {0, 0};
  EXPECT_EQ(tree.KNearest(q, 100).size(), 10u);
  EXPECT_TRUE(tree.KNearest(q, 0).empty());
}

TEST(KdTreeTest, LeafSizeOneStillCorrect) {
  const Dataset ds = RandomDataset(200, 2, 46);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2, /*leaf_size=*/1);
  const float q[2] = {50, 50};
  auto got = tree.RadiusSearch(q, 25.0);
  auto want = BruteRadius(ds, q, 25.0);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

// Random item boxes around the points: every box holds its point, with a
// random extent per face, so node boxes are strictly wider than the split
// points' bounds.
std::vector<float> RandomItemBoxes(const Dataset& ds, uint64_t seed) {
  Rng rng(seed);
  const size_t dim = ds.dim();
  std::vector<float> boxes(ds.size() * 2 * dim);
  for (size_t i = 0; i < ds.size(); ++i) {
    for (size_t d = 0; d < dim; ++d) {
      boxes[i * 2 * dim + d] =
          ds.point(i)[d] - static_cast<float>(rng.UniformDouble(0, 3));
      boxes[i * 2 * dim + dim + d] =
          ds.point(i)[d] + static_cast<float>(rng.UniformDouble(0, 3));
    }
  }
  return boxes;
}

TEST(KdTreeTest, NodeBoxIsUnionOfItemBoxes) {
  for (const size_t leaf_size : {size_t{1}, size_t{4}, size_t{16}}) {
    const Dataset ds = RandomDataset(700, 5, 50 + leaf_size);
    const std::vector<float> boxes = RandomItemBoxes(ds, 51);
    KdTree tree;
    tree.Build(ds.flat().data(), ds.size(), ds.dim(), leaf_size);
    tree.BuildNodeBoxes(boxes.data());
    const size_t dim = ds.dim();
    ASSERT_GT(tree.num_nodes(), 1u);
    EXPECT_EQ(tree.node_items(0).size(), ds.size());  // root holds all
    for (size_t n = 0; n < tree.num_nodes(); ++n) {
      std::vector<float> lo(dim, std::numeric_limits<float>::infinity());
      std::vector<float> hi(dim, -std::numeric_limits<float>::infinity());
      ASSERT_FALSE(tree.node_items(n).empty());
      for (const uint32_t id : tree.node_items(n)) {
        for (size_t d = 0; d < dim; ++d) {
          lo[d] = std::min(lo[d], boxes[id * 2 * dim + d]);
          hi[d] = std::max(hi[d], boxes[id * 2 * dim + dim + d]);
        }
      }
      const float* box = tree.node_box(n);
      for (size_t d = 0; d < dim; ++d) {
        EXPECT_EQ(box[d], lo[d]) << "node " << n << " dim " << d;
        EXPECT_EQ(box[dim + d], hi[d]) << "node " << n << " dim " << d;
      }
    }
  }
}

// One DescendBoxes run, recorded: every classified node with its verdict,
// and every id run handed to `contained` / `partial`.
struct Descent {
  std::vector<std::pair<uint32_t, KdTree::BoxVerdict>> classified;
  std::vector<std::span<const uint32_t>> contained;
  std::vector<std::span<const uint32_t>> partial;
};

// Classifies a node box against the query box [qlo, qhi]: disjoint if
// they do not overlap, contained if the node box lies inside it.
Descent RunDescent(const KdTree& tree, size_t dim, const float* qlo,
                   const float* qhi) {
  Descent out;
  tree.DescendBoxes(
      [&](uint32_t node) {
        const float* box = tree.node_box(node);
        bool overlap = true;
        bool inside = true;
        for (size_t d = 0; d < dim; ++d) {
          overlap = overlap && box[d] <= qhi[d] && qlo[d] <= box[dim + d];
          inside = inside && qlo[d] <= box[d] && box[dim + d] <= qhi[d];
        }
        const KdTree::BoxVerdict v =
            !overlap ? KdTree::BoxVerdict::kDisjoint
            : inside ? KdTree::BoxVerdict::kContained
                     : KdTree::BoxVerdict::kPartial;
        out.classified.emplace_back(node, v);
        return v;
      },
      [&](std::span<const uint32_t> items) { out.contained.push_back(items); },
      [&](std::span<const uint32_t> items) { out.partial.push_back(items); });
  return out;
}

// True iff `inner` is a strict sub-run of `outer` (a descendant's items).
bool StrictlyInside(std::span<const uint32_t> inner,
                    std::span<const uint32_t> outer) {
  return inner.data() >= outer.data() &&
         inner.data() + inner.size() <= outer.data() + outer.size() &&
         inner.size() < outer.size();
}

TEST(KdTreeTest, DescendBoxesHandsOverExactlyTheSettledItems) {
  const Dataset ds = RandomDataset(1500, 3, 52);
  const std::vector<float> boxes = RandomItemBoxes(ds, 53);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim(), /*leaf_size=*/4);
  tree.BuildNodeBoxes(boxes.data());
  const size_t dim = ds.dim();
  Rng rng(54);
  size_t accepted_nodes = 0;
  size_t pruned_nodes = 0;
  for (int trial = 0; trial < 40; ++trial) {
    float qlo[3];
    float qhi[3];
    for (size_t d = 0; d < dim; ++d) {
      const float c = static_cast<float>(rng.UniformDouble(0, 100));
      const float r = static_cast<float>(rng.UniformDouble(5, 40));
      qlo[d] = c - r;
      qhi[d] = c + r;
    }
    const Descent run = RunDescent(tree, dim, qlo, qhi);
    // An accepted node hands over exactly its items, right after it is
    // classified; a partial leaf likewise.
    size_t next_contained = 0;
    for (const auto& [node, verdict] : run.classified) {
      const std::span<const uint32_t> items = tree.node_items(node);
      if (verdict == KdTree::BoxVerdict::kContained) {
        ++accepted_nodes;
        ASSERT_LT(next_contained, run.contained.size());
        const std::span<const uint32_t> got = run.contained[next_contained++];
        EXPECT_EQ(got.data(), items.data());
        EXPECT_EQ(got.size(), items.size());
      } else if (verdict == KdTree::BoxVerdict::kDisjoint) {
        ++pruned_nodes;
      }
    }
    EXPECT_EQ(next_contained, run.contained.size());
    for (const std::span<const uint32_t> leaf : run.partial) {
      const auto it = std::find_if(
          run.classified.begin(), run.classified.end(), [&](const auto& c) {
            return c.second == KdTree::BoxVerdict::kPartial &&
                   tree.node_items(c.first).data() == leaf.data() &&
                   tree.node_items(c.first).size() == leaf.size();
          });
      EXPECT_NE(it, run.classified.end());
      EXPECT_LE(leaf.size(), 4u);  // only leaves hand over partial items
    }
    // Every item is settled at most once, and an item is handed over iff
    // its own box is not disjoint from the query (a disjoint node holds
    // only disjoint items; the test's verdicts are monotone).
    std::vector<int> handed(ds.size(), 0);
    for (const auto& run_items : {run.contained, run.partial}) {
      for (const std::span<const uint32_t> items : run_items) {
        for (const uint32_t id : items) ++handed[id];
      }
    }
    for (size_t i = 0; i < ds.size(); ++i) {
      bool overlap = true;
      for (size_t d = 0; d < dim; ++d) {
        overlap = overlap && boxes[i * 2 * dim + d] <= qhi[d] &&
                  qlo[d] <= boxes[i * 2 * dim + dim + d];
      }
      ASSERT_LE(handed[i], 1) << "item " << i;
      if (overlap) {
        EXPECT_EQ(handed[i], 1) << "item " << i;
      }
    }
    // A pruned or accepted node is not descended: no classified node lies
    // below one.
    for (const auto& [node, verdict] : run.classified) {
      if (verdict == KdTree::BoxVerdict::kPartial) continue;
      for (const auto& other : run.classified) {
        EXPECT_FALSE(
            StrictlyInside(tree.node_items(other.first), tree.node_items(node)))
            << "node " << other.first << " below settled node " << node;
      }
    }
  }
  // The query boxes exercised all three verdicts.
  EXPECT_GT(accepted_nodes, 0u);
  EXPECT_GT(pruned_nodes, 0u);
}

TEST(KdTreeTest, DescendBoxesStopsAtASettledRoot) {
  const Dataset ds = RandomDataset(300, 2, 55);
  const std::vector<float> boxes = RandomItemBoxes(ds, 56);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  tree.BuildNodeBoxes(boxes.data());
  const float all_lo[2] = {-10, -10};
  const float all_hi[2] = {110, 110};
  const Descent all = RunDescent(tree, 2, all_lo, all_hi);
  ASSERT_EQ(all.classified.size(), 1u);
  ASSERT_EQ(all.contained.size(), 1u);
  EXPECT_EQ(all.contained[0].size(), ds.size());
  EXPECT_TRUE(all.partial.empty());
  const float far_lo[2] = {500, 500};
  const float far_hi[2] = {600, 600};
  const Descent none = RunDescent(tree, 2, far_lo, far_hi);
  EXPECT_EQ(none.classified.size(), 1u);
  EXPECT_TRUE(none.contained.empty());
  EXPECT_TRUE(none.partial.empty());
}

TEST(KdTreeTest, DescendBoxesEmptyTree) {
  KdTree tree;
  tree.Build(nullptr, 0, 2);
  tree.BuildNodeBoxes(nullptr);
  EXPECT_EQ(tree.num_nodes(), 0u);
  size_t calls = 0;
  tree.DescendBoxes(
      [&](uint32_t) {
        ++calls;
        return KdTree::BoxVerdict::kPartial;
      },
      [&](std::span<const uint32_t>) { ++calls; },
      [&](std::span<const uint32_t>) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace rpdbscan
