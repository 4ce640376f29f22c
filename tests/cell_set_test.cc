#include "core/cell_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "io/point_source.h"
#include "parallel/thread_pool.h"
#include "synth/generators.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

GridGeometry MakeGeom(size_t dim, double eps, double rho = 0.1) {
  auto g = GridGeometry::Create(dim, eps, rho);
  EXPECT_TRUE(g.ok());
  return *g;
}

// Coordinates CellIndexOf cannot bin (NaN, +-Inf, or beyond the int32
// cell lattice) must fail every Phase I-1 build path with an InvalidArgument
// naming the first offending point and dimension — never reach the
// float -> int32 cast. 1e9 at eps 1 is the in-lattice control.
TEST(CellSetTest, EveryBuildPathRejectsCoordinatesItCannotBin) {
  const GridGeometry geom = MakeGeom(2, 1.0);
  ThreadPool pool(2);
  Rng rng(40);
  Dataset clean(2);
  for (int i = 0; i < 6000; ++i) {
    clean.Append({static_cast<float>(rng.UniformDouble(0, 50)),
                  static_cast<float>(rng.UniformDouble(0, 50))});
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                          1e30f}) {
    for (const size_t dim : {size_t{0}, size_t{1}}) {
      const size_t id = 4321 + dim;
      const std::string want =
          "point " + std::to_string(id) + " dimension " + std::to_string(dim);
      SCOPED_TRACE(want + " = " + std::to_string(bad));
      Dataset data = clean;
      data.mutable_point(id)[dim] = bad;
      data.mutable_point(id + 100)[dim] = bad;  // only the first is named
      auto expect_rejected = [&](const Status& s) {
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
        EXPECT_NE(s.message().find(want), std::string::npos) << s;
      };
      for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
        expect_rejected(CellSet::Build(data, geom, 4, 7, p).status());
      }
      const DatasetSource source(data);
      expect_rejected(
          CellSet::BuildExternal(source, geom, 4, 7, ExternalBuildOptions(),
                                 &pool)
              .status());
      // Ingest: the bad coordinate arrives in an appended batch, which is
      // rejected whole; the set keeps serving the clean prefix.
      Dataset prefix(2);
      for (size_t i = 0; i < 4000; ++i) prefix.Append(clean.point(i));
      auto set = CellSet::Build(prefix, geom, 4, 7, &pool);
      ASSERT_TRUE(set.ok());
      const size_t cells_before = set->num_cells();
      expect_rejected(set->IngestAppended(data, 4000, &pool));
      EXPECT_EQ(set->num_points(), 4000u);
      EXPECT_EQ(set->num_cells(), cells_before);
    }
  }
  Dataset wide = clean;
  wide.mutable_point(0)[0] = 1e9f;
  wide.mutable_point(1)[1] = -1e9f;
  auto ok = CellSet::Build(wide, geom, 4, 7, &pool);
  ASSERT_TRUE(ok.ok()) << ok.status();
}

TEST(CellSetTest, EveryPointAssignedToExactlyOneCell) {
  const Dataset ds = synth::Blobs(5000, 5, 2.0, 1);
  auto set = CellSet::Build(ds, MakeGeom(2, 1.0), 8, 7);
  ASSERT_TRUE(set.ok());
  size_t total = 0;
  std::set<uint32_t> seen;
  for (uint32_t c = 0; c < set->num_cells(); ++c) {
    for (const uint32_t pid : set->cell(c).point_ids) {
      EXPECT_TRUE(seen.insert(pid).second) << "point in two cells";
    }
    total += set->cell(c).point_ids.size();
  }
  EXPECT_EQ(total, ds.size());
}

TEST(CellSetTest, PointsLandInTheirGeometricCell) {
  const Dataset ds = synth::Blobs(1000, 3, 2.0, 2);
  const GridGeometry geom = MakeGeom(2, 0.8);
  auto set = CellSet::Build(ds, geom, 4, 7);
  ASSERT_TRUE(set.ok());
  for (uint32_t c = 0; c < set->num_cells(); ++c) {
    for (const uint32_t pid : set->cell(c).point_ids) {
      EXPECT_EQ(geom.CellOf(ds.point(pid)), set->cell(c).coord);
    }
  }
}

TEST(CellSetTest, PartitionsCoverAllCellsDisjointly) {
  const Dataset ds = synth::Blobs(5000, 5, 2.0, 3);
  auto set = CellSet::Build(ds, MakeGeom(2, 1.0), 6, 7);
  ASSERT_TRUE(set.ok());
  std::set<uint32_t> seen;
  for (uint32_t p = 0; p < set->num_partitions(); ++p) {
    for (const uint32_t cid : set->partition(p)) {
      EXPECT_TRUE(seen.insert(cid).second);
      EXPECT_EQ(set->cell(cid).owner_partition, p);
    }
  }
  EXPECT_EQ(seen.size(), set->num_cells());
}

TEST(CellSetTest, PartitioningIsDeterministicPerSeed) {
  const Dataset ds = synth::Blobs(2000, 4, 2.0, 4);
  auto a = CellSet::Build(ds, MakeGeom(2, 1.0), 8, 42);
  auto b = CellSet::Build(ds, MakeGeom(2, 1.0), 8, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_cells(), b->num_cells());
  for (uint32_t c = 0; c < a->num_cells(); ++c) {
    EXPECT_EQ(a->cell(c).owner_partition, b->cell(c).owner_partition);
  }
}

TEST(CellSetTest, DifferentSeedsShuffleAssignment) {
  const Dataset ds = synth::Blobs(2000, 4, 2.0, 4);
  auto a = CellSet::Build(ds, MakeGeom(2, 1.0), 8, 1);
  auto b = CellSet::Build(ds, MakeGeom(2, 1.0), 8, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  size_t differ = 0;
  for (uint32_t c = 0; c < a->num_cells(); ++c) {
    if (a->cell(c).owner_partition != b->cell(c).owner_partition) ++differ;
  }
  EXPECT_GT(differ, 0u);
}

TEST(CellSetTest, PartitionSizesDifferByAtMostOneCell) {
  // Sec. 4.1: partitions of the same size (exactly, up to rounding).
  const Dataset ds = synth::Blobs(8000, 6, 2.0, 14);
  auto set = CellSet::Build(ds, MakeGeom(2, 0.7), 7, 9);
  ASSERT_TRUE(set.ok());
  size_t lo = SIZE_MAX;
  size_t hi = 0;
  for (uint32_t p = 0; p < set->num_partitions(); ++p) {
    lo = std::min(lo, set->partition(p).size());
    hi = std::max(hi, set->partition(p).size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(CellSetTest, PartitionSizesBalancedForArbitrarySeeds) {
  // Property form of the Sec. 4.1 guarantee: for ANY split seed and any
  // partition count, cell counts differ by at most one across partitions.
  const Dataset ds = synth::Blobs(4000, 5, 2.0, 21);
  const GridGeometry geom = MakeGeom(2, 0.9);
  Rng rng(77);
  for (int round = 0; round < 25; ++round) {
    const uint64_t seed = rng.Next();
    const size_t k = 1 + rng.Uniform(15);
    auto set = CellSet::Build(ds, geom, k, seed);
    ASSERT_TRUE(set.ok());
    size_t lo = SIZE_MAX;
    size_t hi = 0;
    for (uint32_t p = 0; p < set->num_partitions(); ++p) {
      lo = std::min(lo, set->partition(p).size());
      hi = std::max(hi, set->partition(p).size());
    }
    EXPECT_LE(hi - lo, 1u) << "seed=" << seed << " k=" << k;
  }
}

TEST(CellSetTest, CsrLayoutIsConsistent) {
  const Dataset ds = synth::GeoLifeLike(5000, 13);
  auto set = CellSet::Build(ds, MakeGeom(3, 1.0), 8, 7);
  ASSERT_TRUE(set.ok());
  const auto& offsets = set->cell_point_offsets();
  const auto& flat = set->point_ids();
  ASSERT_EQ(offsets.size(), set->num_cells() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), ds.size());
  EXPECT_EQ(flat.size(), ds.size());
  for (uint32_t c = 0; c < set->num_cells(); ++c) {
    ASSERT_LE(offsets[c], offsets[c + 1]);
    const PointIdSpan span = set->cell(c).point_ids;
    // Each span is exactly its CSR slice, with ascending point ids.
    ASSERT_EQ(span.data(), flat.data() + offsets[c]);
    ASSERT_EQ(span.size(), offsets[c + 1] - offsets[c]);
    for (size_t i = 1; i < span.size(); ++i) {
      EXPECT_LT(span[i - 1], span[i]);
    }
  }
}

TEST(CellSetTest, CachedPartitionPointsMatchSpans) {
  const Dataset ds = synth::GeoLifeLike(8000, 5);
  auto set = CellSet::Build(ds, MakeGeom(3, 1.0), 9, 3);
  ASSERT_TRUE(set.ok());
  size_t max_pts = 0;
  size_t min_pts = SIZE_MAX;
  size_t total = 0;
  for (uint32_t p = 0; p < set->num_partitions(); ++p) {
    size_t n = 0;
    for (const uint32_t cid : set->partition(p)) {
      n += set->cell(cid).point_ids.size();
    }
    EXPECT_EQ(set->PartitionPoints(p), n);
    max_pts = std::max(max_pts, n);
    min_pts = std::min(min_pts, n);
    total += n;
  }
  EXPECT_EQ(set->MaxPartitionPoints(), max_pts);
  EXPECT_EQ(set->MinPartitionPoints(), min_pts);
  EXPECT_EQ(total, ds.size());
}

TEST(CellSetTest, LoadBalanceOnSkewedData) {
  // The headline property of pseudo random partitioning (Sec. 4.1): even
  // on heavily skewed data, partitions get nearly equal point counts.
  const Dataset ds = synth::GeoLifeLike(60000, 11);
  auto set = CellSet::Build(ds, MakeGeom(3, 1.0), 10, 3);
  ASSERT_TRUE(set.ok());
  const double ratio =
      static_cast<double>(set->MaxPartitionPoints()) /
      static_cast<double>(std::max<size_t>(1, set->MinPartitionPoints()));
  EXPECT_LT(ratio, 2.0) << "cells per partition should balance points";
}

TEST(CellSetTest, FindCell) {
  const Dataset ds = synth::Blobs(100, 2, 2.0, 5);
  const GridGeometry geom = MakeGeom(2, 1.0);
  auto set = CellSet::Build(ds, geom, 2, 7);
  ASSERT_TRUE(set.ok());
  const CellCoord c0 = geom.CellOf(ds.point(0));
  const int64_t found = set->FindCell(c0);
  ASSERT_GE(found, 0);
  EXPECT_EQ(set->cell(static_cast<uint32_t>(found)).coord, c0);
  const int32_t far[2] = {1000000, 1000000};
  EXPECT_EQ(set->FindCell(CellCoord(far, 2)), -1);
}

TEST(CellSetTest, RejectsInvalidInputs) {
  const Dataset empty(2);
  EXPECT_FALSE(CellSet::Build(empty, MakeGeom(2, 1.0), 4, 7).ok());

  const Dataset ds = synth::Blobs(10, 1, 2.0, 6);
  EXPECT_FALSE(CellSet::Build(ds, MakeGeom(3, 1.0), 4, 7).ok());  // dim
  EXPECT_FALSE(CellSet::Build(ds, MakeGeom(2, 1.0), 0, 7).ok());  // k=0
}

TEST(CellSetTest, MorePartitionsThanCellsLeavesSomeEmpty) {
  Dataset ds(2);
  ds.Append({0, 0});
  ds.Append({0.1f, 0.1f});
  auto set = CellSet::Build(ds, MakeGeom(2, 10.0), 16, 7);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->num_partitions(), 16u);
  EXPECT_LE(set->num_cells(), 2u);
  EXPECT_EQ(set->MinPartitionPoints(), 0u);
}

}  // namespace
}  // namespace rpdbscan
