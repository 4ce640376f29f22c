// Phase I-1 grouping against a test-local reference: a forward point scan
// that numbers cells in first-encounter order and lists each cell's points
// ascending, plus the seeded partition draw. The sorted CSR build (key
// encoding + radix sort + CSR emit) and the hash fallback it takes for
// keys over 128 bits must both reproduce it bit for bit — same dense cell
// ids, same point order within cells, same partition assignment — across
// dimensionalities, seeds, partition counts, and thread counts.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/cell_set.h"
#include "core/rp_dbscan.h"
#include "parallel/thread_pool.h"
#include "synth/generators.h"
#include "util/random.h"
#include "util/reservoir.h"

#include "test_seed.h"

namespace rpdbscan {
namespace {

GridGeometry MakeGeom(size_t dim, double eps, double rho = 0.01) {
  auto g = GridGeometry::Create(dim, eps, rho);
  EXPECT_TRUE(g.ok());
  return *g;
}

/// Asserts `set` equals the first-encounter grouping of `data` and the
/// partition draw CellSet documents (a seeded shuffle of the cell ids
/// dealt round-robin).
void ExpectFirstEncounterGrouping(const Dataset& data,
                                  const GridGeometry& geom,
                                  size_t num_partitions, uint64_t seed,
                                  const CellSet& set) {
  std::unordered_map<CellCoord, uint32_t, CellCoordHash> ids;
  std::vector<CellCoord> coords;
  std::vector<std::vector<uint32_t>> points;
  for (uint32_t i = 0; i < data.size(); ++i) {
    const CellCoord c = geom.CellOf(data.point(i));
    const auto [it, inserted] =
        ids.emplace(c, static_cast<uint32_t>(coords.size()));
    if (inserted) {
      coords.push_back(c);
      points.emplace_back();
    }
    points[it->second].push_back(i);
  }
  ASSERT_EQ(set.num_cells(), coords.size());
  for (uint32_t c = 0; c < set.num_cells(); ++c) {
    EXPECT_EQ(set.cell(c).coord, coords[c]) << "cell " << c;
    const PointIdSpan got = set.cell(c).point_ids;
    ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()), points[c])
        << "cell " << c;
  }
  Rng rng(seed);
  const std::vector<std::vector<uint32_t>> parts =
      RandomDisjointSplit(coords.size(), num_partitions, rng);
  ASSERT_EQ(set.num_partitions(), parts.size());
  for (uint32_t p = 0; p < parts.size(); ++p) {
    EXPECT_EQ(set.partition(p), parts[p]) << "partition " << p;
    size_t total = 0;
    for (const uint32_t c : parts[p]) {
      EXPECT_EQ(set.cell(c).owner_partition, p);
      total += points[c].size();
    }
    EXPECT_EQ(set.PartitionPoints(p), total);
  }
}

TEST(SortedPhase1Test, MatchesFirstEncounterAcrossDimsSeedsAndPartitions) {
  ThreadPool pool(4);
  const uint64_t seed = TestSeed(2024);
  SCOPED_TRACE(SeedNote(seed));
  Rng rng(seed);
  for (int round = 0; round < 6; ++round) {
    const uint64_t data_seed = rng.Next();
    const size_t num_partitions = 1 + rng.Uniform(17);
    const uint64_t split_seed = rng.Next();
    struct Config {
      Dataset data;
      GridGeometry geom;
    };
    const Config configs[] = {
        {synth::Moons(3000, 0.05, data_seed), MakeGeom(2, 0.15)},
        {synth::GeoLifeLike(4000, data_seed), MakeGeom(3, 1.0)},
        {synth::TeraLike(1200, data_seed), MakeGeom(13, 30.0)},
    };
    for (const Config& cfg : configs) {
      for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
        auto set = CellSet::Build(cfg.data, cfg.geom, num_partitions,
                                  split_seed, p);
        ASSERT_TRUE(set.ok()) << set.status();
        EXPECT_TRUE(set->breakdown().sorted_path_used);
        ExpectFirstEncounterGrouping(cfg.data, cfg.geom, num_partitions,
                                     split_seed, *set);
      }
    }
  }
}

TEST(SortedPhase1Test, NegativeCoordinatesGroupIdentically) {
  Dataset ds(2);
  const uint64_t seed = TestSeed(99);
  SCOPED_TRACE(SeedNote(seed));
  Rng rng(seed);
  for (int i = 0; i < 3000; ++i) {
    ds.Append({static_cast<float>(rng.UniformDouble(-50.0, 50.0)),
               static_cast<float>(rng.UniformDouble(-50.0, 50.0))});
  }
  const GridGeometry geom = MakeGeom(2, 1.5);
  auto sorted = CellSet::Build(ds, geom, 6, 11);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(sorted->breakdown().sorted_path_used);
  ExpectFirstEncounterGrouping(ds, geom, 6, 11, *sorted);
}

TEST(SortedPhase1Test, OverflowingKeyFallsBackToHashMap) {
  // 16 dims x a fine grid: the per-dimension lattice ranges need far more
  // than 128 key bits, so the build must detect it and group by hashing —
  // and still produce the identical structure, in-RAM and through the
  // pipeline under the full invariant audit.
  Dataset ds(16);
  const uint64_t seed = TestSeed(5);
  SCOPED_TRACE(SeedNote(seed));
  Rng rng(seed);
  std::vector<float> p(16);
  for (int i = 0; i < 400; ++i) {
    for (auto& v : p) {
      v = static_cast<float>(rng.UniformDouble(0.0, 100.0));
    }
    ds.Append(p.data());
  }
  const GridGeometry geom = MakeGeom(16, 0.05, /*rho=*/1.0);
  auto hashed = CellSet::Build(ds, geom, 4, 3);
  ASSERT_TRUE(hashed.ok());
  EXPECT_FALSE(hashed->breakdown().sorted_path_used);
  ExpectFirstEncounterGrouping(ds, geom, 4, 3, *hashed);

  RpDbscanOptions o;
  o.eps = 0.05;
  o.rho = 1.0;
  o.min_pts = 1;
  o.num_partitions = 4;
  o.num_threads = 2;
  o.audit_level = AuditLevel::kFull;
  auto run = RunRpDbscan(ds, o);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->stats.num_cells, hashed->num_cells());
}

TEST(SortedPhase1Test, BreakdownCoversThePartitionPhase) {
  const Dataset ds = synth::GeoLifeLike(20000, 41);
  ThreadPool pool(4);
  auto set = CellSet::Build(ds, MakeGeom(3, 1.0), 8, 7, &pool);
  ASSERT_TRUE(set.ok());
  const Phase1Breakdown& b = set->breakdown();
  EXPECT_TRUE(b.sorted_path_used);
  EXPECT_GE(b.key_seconds, 0.0);
  EXPECT_GE(b.sort_seconds, 0.0);
  EXPECT_GE(b.scatter_seconds, 0.0);
  EXPECT_GT(b.key_seconds + b.sort_seconds + b.scatter_seconds, 0.0);
}

}  // namespace
}  // namespace rpdbscan
