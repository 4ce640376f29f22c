// Differential harness for the streaming re-clusterer (DESIGN.md §9):
// after every ingested batch, the incremental epoch must be BIT-IDENTICAL
// to RunRpDbscan from scratch on the accumulated points with the same
// options — per-point labels (which are cluster ids, so identity covers
// cluster numbering too), cluster/noise counts, and the published
// snapshot's meta. Randomized over dims 2-6 (the stencil engine at d <= 5,
// the kd-tree engine at d = 6), skewed cluster sizes, and minPts-boundary
// duplicate data, and 1-to-8-point batches from the densest cluster;
// re-seed via RPDBSCAN_TEST_SEED. The incremental Phase II extension is
// also checked in place on hand-placed 2-d batches, on a stencil
// dictionary and on a kd-tree one built with max_stencil_offsets = 0, and
// Create must refuse the options an epoch cannot honour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/phase2.h"
#include "core/rp_dbscan.h"
#include "io/dataset.h"
#include "io/point_source.h"
#include "stream/incremental.h"
#include "util/random.h"
#include "verify/audit.h"
#include "neighborhood_sets.h"
#include "test_seed.h"

namespace rpdbscan {
namespace {

Dataset Prefix(const Dataset& all, size_t n) {
  Dataset out(all.dim());
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) out.Append(all.point(i));
  return out;
}

Dataset Slice(const Dataset& all, size_t begin, size_t count) {
  Dataset out(all.dim());
  out.Reserve(count);
  for (size_t i = 0; i < count; ++i) out.Append(all.point(begin + i));
  return out;
}

/// Skewed synthetic stream: three Gaussian clusters holding ~60/25/15% of
/// the clustered mass plus uniform background noise, in any dimension.
/// The skew matters: the dominant cluster keeps growing every batch while
/// the small ones only occasionally gain points, so the affected set hits
/// both hot and cold regions of the grid. `in_densest`, when given, gets
/// each point's membership of the dominant cluster.
Dataset SkewedData(size_t n, size_t dim, uint64_t seed,
                   std::vector<uint8_t>* in_densest = nullptr) {
  Rng rng(seed);
  Dataset data(dim);
  data.Reserve(n);
  std::vector<std::vector<float>> centers(3, std::vector<float>(dim));
  for (auto& c : centers) {
    for (size_t d = 0; d < dim; ++d) {
      c[d] = static_cast<float>(rng.UniformDouble(0.0, 40.0));
    }
  }
  std::vector<float> p(dim);
  for (size_t i = 0; i < n; ++i) {
    const double pick = rng.UniformDouble();
    if (in_densest != nullptr) in_densest->push_back(pick < 0.51 ? 1 : 0);
    if (pick < 0.85) {
      const size_t c = pick < 0.51 ? 0 : (pick < 0.72 ? 1 : 2);
      for (size_t d = 0; d < dim; ++d) {
        p[d] = static_cast<float>(rng.Normal(centers[c][d], 0.9));
      }
    } else {
      for (size_t d = 0; d < dim; ++d) {
        p[d] = static_cast<float>(rng.UniformDouble(-5.0, 45.0));
      }
    }
    data.Append(p.data());
  }
  return data;
}

/// Replays `all` as a seed prefix plus randomly-sized batches, publishing
/// an epoch after every batch and asserting bit-identity against a
/// from-scratch run on the accumulated prefix: its labels, and the cell
/// graph the epoch extended against a fresh BuildSubgraphs over the
/// epoch's cells and dictionary. Batches hold 1 to `max_batch` points
/// (0: up to a quarter of the points after the seed). `extending_epochs`,
/// when given, counts the epochs whose extended_cells is positive.
void DifferentialReplay(const Dataset& all, const RpDbscanOptions& options,
                        size_t seed_points, uint64_t batch_seed,
                        size_t max_batch = 0,
                        size_t* extending_epochs = nullptr) {
  auto clusterer_or = StreamClusterer::Create(Prefix(all, seed_points),
                                              options);
  ASSERT_TRUE(clusterer_or.ok()) << clusterer_or.status();
  StreamClusterer clusterer = std::move(*clusterer_or);

  Rng batch_rng(batch_seed);
  const size_t n = all.size();
  size_t pos = seed_points;
  size_t epoch = 0;
  while (true) {
    SCOPED_TRACE("epoch " + std::to_string(epoch) + " at " +
                 std::to_string(pos) + "/" + std::to_string(n) + " points");
    auto epoch_or = clusterer.PublishEpoch();
    ASSERT_TRUE(epoch_or.ok()) << epoch_or.status();

    auto scratch_or = RunRpDbscan(Prefix(all, pos), options);
    ASSERT_TRUE(scratch_or.ok()) << scratch_or.status();
    ASSERT_EQ(epoch_or->labels, scratch_or->labels);
    const Phase2Result fresh = BuildSubgraphs(
        clusterer.data(), clusterer.buffer().cells(),
        epoch_or->snapshot.dictionary(), options.min_pts, clusterer.pool(),
        Phase2Options());
    const Phase2Result& got = clusterer.phase2();
    ASSERT_EQ(got.point_is_core, fresh.point_is_core);
    ASSERT_EQ(got.subgraphs.cell_is_core, fresh.subgraphs.cell_is_core);
    ASSERT_EQ(got.subgraphs.successors, fresh.subgraphs.successors);
    EXPECT_EQ(epoch_or->stats.sequence, epoch);
    EXPECT_EQ(epoch_or->stats.total_points, pos);
    EXPECT_EQ(epoch_or->snapshot.meta().num_points, pos);
    EXPECT_TRUE(epoch_or->snapshot.has_epoch());
    EXPECT_EQ(epoch_or->snapshot.epoch().sequence, epoch);
    if (extending_epochs != nullptr && epoch_or->stats.extended_cells > 0) {
      ++*extending_epochs;
    }

    if (pos >= n) break;
    const size_t span = max_batch > 0
                            ? max_batch
                            : std::max<size_t>(1, (n - seed_points) / 4);
    size_t take = 1 + static_cast<size_t>(batch_rng.Uniform(span));
    take = std::min(take, n - pos);
    ASSERT_TRUE(clusterer.Ingest(Slice(all, pos, take)).ok());
    pos += take;
    ++epoch;
  }
}

RpDbscanOptions StreamOptions(double eps, size_t min_pts, uint64_t seed) {
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = min_pts;
  o.rho = 0.03;
  o.num_threads = 2;
  o.num_partitions = 8;
  o.seed = seed;
  o.audit_level = AuditLevel::kCheap;  // audit the stream stages too
  return o;
}

class StreamDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StreamDifferentialTest, MatchesScratchRunAcrossSeeds) {
  const size_t dim = GetParam();
  const uint64_t base = TestSeed(0xA11CE + dim * 101 + 7);
  for (uint64_t s = 0; s < 3; ++s) {
    const uint64_t seed = base + s;
    SCOPED_TRACE(SeedNote(seed));
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const size_t n = 360 + dim * 60;
    const Dataset all = SkewedData(n, dim, seed);
    // Higher dimensions spread the Gaussians out; grow eps so some cores
    // still form (the differential claim itself holds for any eps).
    const double eps = 1.4 + 0.45 * static_cast<double>(dim);
    DifferentialReplay(all, StreamOptions(eps, 8, seed), n / 2,
                       seed ^ 0x5eedbeefULL);
  }
}

/// The benchmark's regime: epochs of 1 to 8 points, all drawn from the
/// densest cluster, so most epochs extend all-core cells instead of
/// re-running them. Four threads put the touched cells of one epoch on
/// different tasks, so a row two of them wrote would race under TSan.
TEST_P(StreamDifferentialTest, SmallBatchesFromDensestCluster) {
  const size_t dim = GetParam();
  const uint64_t seed = TestSeed(0x5A11 + dim * 131);
  SCOPED_TRACE(SeedNote(seed));
  SCOPED_TRACE("dim=" + std::to_string(dim));
  const size_t n = 360 + dim * 60;
  std::vector<uint8_t> in_densest;
  const Dataset drawn = SkewedData(n, dim, seed, &in_densest);
  // Every point outside the densest cluster first, then the cluster's
  // last 60 points as the stream's tail.
  std::vector<size_t> order;
  std::vector<size_t> tail;
  for (size_t i = n; i-- > 0;) {
    (in_densest[i] && tail.size() < 60 ? tail : order).push_back(i);
  }
  std::reverse(order.begin(), order.end());
  std::reverse(tail.begin(), tail.end());
  ASSERT_EQ(tail.size(), 60u);
  Dataset all(dim);
  for (const size_t i : order) all.Append(drawn.point(i));
  for (const size_t i : tail) all.Append(drawn.point(i));
  RpDbscanOptions o =
      StreamOptions(1.4 + 0.45 * static_cast<double>(dim), 8, seed);
  o.num_threads = 4;
  size_t extending_epochs = 0;
  DifferentialReplay(all, o, n - tail.size(), seed ^ 0xba7c4ULL,
                     /*max_batch=*/8, &extending_epochs);
  EXPECT_GT(extending_epochs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, StreamDifferentialTest,
    ::testing::Values(size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{6}),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return "dim" + std::to_string(info.param) +
             (info.param <= 5 ? "Stencil" : "Tree");
    });

/// Hand-placed 2-d points for the extension tests (eps 1, so cells are
/// 0.7071 wide and a cell holding min_pts = 5 points is all core):
///  * A: 8 points spread along x in [0.05, 0.65] of cell (0, 0), all core;
///  * C: 8 points packed at (5.55, 5.30) in cell (7, 7), all core;
///  * U: 3 points at (10.2, 10.2) in cell (14, 14), none core;
///  * three far singletons no batch reaches.
Dataset ExtensionBase() {
  Dataset base(2);
  for (int i = 0; i < 8; ++i) {
    base.Append({0.05f + 0.6f * static_cast<float>(i) / 7.0f,
                 0.30f + 0.01f * static_cast<float>(i % 3)});
  }
  for (int i = 0; i < 8; ++i) {
    base.Append({5.55f + 0.002f * static_cast<float>(i % 4),
                 5.30f + 0.002f * static_cast<float>(i / 4)});
  }
  base.Append({10.20f, 10.20f});
  base.Append({10.21f, 10.20f});
  base.Append({10.20f, 10.21f});
  base.Append({20.0f, 20.0f});
  base.Append({30.0f, 5.0f});
  base.Append({-8.0f, 14.0f});
  return base;
}

Dataset Concat(const Dataset& a, const Dataset& b) {
  Dataset out = Prefix(a, a.size());
  for (size_t i = 0; i < b.size(); ++i) out.Append(b.point(i));
  return out;
}

/// The cell holding point `p` of `cells`' data.
uint32_t CellOfPoint(const CellSet& cells, const float* p) {
  const int64_t cid = cells.FindCell(cells.geom().CellOf(p));
  EXPECT_GE(cid, 0);
  return static_cast<uint32_t>(cid);
}

/// Extends a BuildSubgraphs prior over ExtensionBase() by `batch` with
/// RecomputeCells and checks every cell's core flag, point flags and row
/// against a fresh BuildSubgraphs over the grown data, on a stencil
/// dictionary and on a kd-tree one. `check(cells, dict, summary, prior,
/// state)` then checks which path the batch took.
template <typename Check>
void ExtendAndCompare(const Dataset& batch, const Check& check) {
  const size_t min_pts = 5;
  const Dataset base = ExtensionBase();
  const Dataset all = Concat(base, batch);
  auto geom = GridGeometry::Create(2, 1.0, 0.03);
  ASSERT_TRUE(geom.ok());
  ThreadPool pool(2);
  auto base_cells = CellSet::Build(base, *geom, 4, 7, &pool);
  auto cells = CellSet::Build(all, *geom, 4, 7, &pool);
  ASSERT_TRUE(base_cells.ok() && cells.ok());
  std::vector<uint32_t> touched;
  for (size_t i = 0; i < batch.size(); ++i) {
    touched.push_back(CellOfPoint(*cells, batch.point(i)));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const bool stencil : {true, false}) {
    SCOPED_TRACE(stencil ? "stencil dictionary" : "tree dictionary");
    CellDictionaryOptions dict_opts;
    if (!stencil) dict_opts.max_stencil_offsets = 0;
    auto base_dict = CellDictionary::Build(base, *base_cells, dict_opts, &pool);
    auto dict = CellDictionary::Build(all, *cells, dict_opts, &pool);
    ASSERT_TRUE(base_dict.ok() && dict.ok());
    ASSERT_EQ(dict->has_stencil(), stencil);
    const Phase2Result prior =
        BuildSubgraphs(base, *base_cells, *base_dict, min_pts, pool);
    Phase2Result state = prior;
    const RecomputeSummary summary = RecomputeCells(
        all, *cells, *dict, min_pts, pool, Phase2Options(), touched, &state);
    const Phase2Result fresh =
        BuildSubgraphs(all, *cells, *dict, min_pts, pool);
    EXPECT_EQ(state.point_is_core, fresh.point_is_core);
    EXPECT_EQ(state.subgraphs.cell_is_core, fresh.subgraphs.cell_is_core);
    EXPECT_EQ(state.subgraphs.successors, fresh.subgraphs.successors);
    EXPECT_EQ(state.subgraphs.partitions, fresh.subgraphs.partitions);
    size_t touched_points = 0;
    for (const uint32_t cid : touched) {
      touched_points += cells->cell(cid).point_ids.size();
    }
    EXPECT_GE(summary.affected_cells, touched.size());
    EXPECT_GE(summary.rerun_points, touched_points);
    check(*cells, *dict, summary, prior, state, touched_points);
  }
}

/// The candidate gather of `cid`'s points, on the dictionary's engine.
CandidateCellList GatherOf(const CellSet& cells, const CellDictionary& dict,
                           uint32_t cid) {
  const int64_t slot = dict.FindCellRefIndex(cells.cell(cid).coord);
  EXPECT_GE(slot, 0);
  CandidateCellList cand;
  if (dict.has_stencil()) {
    dict.QueryCellStencil(static_cast<uint32_t>(slot), &cand);
  } else {
    dict.QueryCell(static_cast<uint32_t>(slot), &cand);
  }
  return cand;
}

bool Holds(const std::vector<uint32_t>& ids, uint32_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// (a) Two points in a new cell beside A, which reaches them across a
/// maybe pair: the only affected cell besides the touched one is A, and
/// A's row only gains the new cell.
TEST(StreamIncrementalTest, RecomputeCellsExtendsAllCoreNeighbor) {
  Dataset batch(2);
  batch.Append({1.30f, 0.30f});
  batch.Append({1.32f, 0.31f});
  ExtendAndCompare(batch, [&](const CellSet& cells, const CellDictionary& dict,
                              const RecomputeSummary& summary,
                              const Phase2Result& prior,
                              const Phase2Result& state,
                              size_t touched_points) {
    const uint32_t a = CellOfPoint(cells, ExtensionBase().point(0));
    const uint32_t t = CellOfPoint(cells, batch.point(0));
    ASSERT_GE(t, prior.subgraphs.cell_is_core.size());  // a new cell
    ASSERT_EQ(prior.subgraphs.cell_is_core[a], 1);
    EXPECT_TRUE(Holds(GatherOf(cells, dict, t).cell_ids, a));
    EXPECT_EQ(summary.affected_cells, 2u);
    EXPECT_EQ(summary.extended_cells, 1u);
    EXPECT_EQ(summary.rerun_points, touched_points);
    EXPECT_TRUE(prior.subgraphs.successors[a].empty());
    EXPECT_EQ(state.subgraphs.successors[a], std::vector<uint32_t>{t});
  });
}

/// (b) Three points in a new cell beside U lift U's points to core: U is
/// reached while holding a non-core point, so it re-runs the unit.
TEST(StreamIncrementalTest, RecomputeCellsRerunsLiftedNeighbor) {
  Dataset batch(2);
  batch.Append({10.75f, 10.20f});
  batch.Append({10.76f, 10.21f});
  batch.Append({10.75f, 10.22f});
  ExtendAndCompare(batch, [&](const CellSet& cells, const CellDictionary&,
                              const RecomputeSummary& summary,
                              const Phase2Result& prior,
                              const Phase2Result& state,
                              size_t touched_points) {
    const Dataset base = ExtensionBase();
    const uint32_t u = CellOfPoint(cells, base.point(16));
    ASSERT_LT(u, prior.subgraphs.cell_is_core.size());  // untouched
    for (const uint32_t pid : cells.cell(u).point_ids) {
      EXPECT_EQ(prior.point_is_core[pid], 0);
      EXPECT_EQ(state.point_is_core[pid], 1);
    }
    EXPECT_EQ(summary.affected_cells, 2u);
    EXPECT_EQ(summary.extended_cells, 0u);
    EXPECT_EQ(summary.rerun_points,
              touched_points + cells.cell(u).point_ids.size());
  });
}

/// (c) One point in a new cell packed against C: the two cells' MBRs lie
/// within eps of each other, so the new cell joins C's row from the
/// always group, with no kernel call.
TEST(StreamIncrementalTest, RecomputeCellsJoinsAlwaysGroup) {
  Dataset batch(2);
  batch.Append({5.75f, 5.30f});
  ExtendAndCompare(batch, [&](const CellSet& cells, const CellDictionary& dict,
                              const RecomputeSummary& summary,
                              const Phase2Result& prior,
                              const Phase2Result& state,
                              size_t touched_points) {
    const uint32_t c = CellOfPoint(cells, ExtensionBase().point(8));
    const uint32_t t = CellOfPoint(cells, batch.point(0));
    ASSERT_GE(t, prior.subgraphs.cell_is_core.size());  // a new cell
    ASSERT_EQ(prior.subgraphs.cell_is_core[c], 1);
    EXPECT_TRUE(Holds(GatherOf(cells, dict, t).always_neighbors, c));
    EXPECT_EQ(summary.affected_cells, 2u);
    EXPECT_EQ(summary.extended_cells, 1u);
    EXPECT_EQ(summary.rerun_points, touched_points);
    EXPECT_EQ(state.subgraphs.successors[c], std::vector<uint32_t>{t});
  });
}

/// RecomputeCells refuses a touched list that is not ascending and
/// unique, one that misses a new cell, and a caller's own core seed.
TEST(StreamIncrementalTest, RecomputeCellsChecksPreconditions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset base = ExtensionBase();
  Dataset batch(2);
  batch.Append({1.30f, 0.30f});
  const Dataset all = Concat(base, batch);
  auto geom = GridGeometry::Create(2, 1.0, 0.03);
  ASSERT_TRUE(geom.ok());
  ThreadPool pool(1);
  auto base_cells = CellSet::Build(base, *geom, 2, 7, &pool);
  auto cells = CellSet::Build(all, *geom, 2, 7, &pool);
  ASSERT_TRUE(base_cells.ok() && cells.ok());
  auto base_dict = CellDictionary::Build(base, *base_cells);
  auto dict = CellDictionary::Build(all, *cells);
  ASSERT_TRUE(base_dict.ok() && dict.ok());
  const Phase2Result prior = BuildSubgraphs(base, *base_cells, *base_dict, 5,
                                            pool);
  const uint32_t t = CellOfPoint(*cells, batch.point(0));
  auto recompute = [&](const std::vector<uint32_t>& touched,
                       const Phase2Options& opts) {
    Phase2Result state = prior;
    RecomputeCells(all, *cells, *dict, 5, pool, opts, touched, &state);
  };
  EXPECT_DEATH(recompute({t, 0}, Phase2Options()), "ascending");
  EXPECT_DEATH(recompute({0}, Phase2Options()), "not all of them");
  const std::vector<uint8_t> seed(all.size(), 0);
  Phase2Options seeded;
  seeded.seed_point_core = seed.data();
  EXPECT_DEATH(recompute({t}, seeded), "seeds");
  recompute({t}, Phase2Options());  // the valid call goes through
}

/// Create refuses, by name, each option an epoch would otherwise drop.
void ExpectCreateRefuses(const RpDbscanOptions& options,
                         const std::string& field) {
  auto clusterer = StreamClusterer::Create(SkewedData(200, 2, 5), options);
  ASSERT_FALSE(clusterer.ok());
  EXPECT_EQ(clusterer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(clusterer.status().message().find(field), std::string::npos)
      << clusterer.status();
}

TEST(StreamIncrementalTest, CreateRefusesQueryEps) {
  RpDbscanOptions o = StreamOptions(2.0, 8, 1);
  o.query_eps = 4.0;
  ExpectCreateRefuses(o, "query_eps");
}

TEST(StreamIncrementalTest, CreateRefusesPointSource) {
  const Dataset data = SkewedData(200, 2, 5);
  const DatasetSource source(data);
  RpDbscanOptions o = StreamOptions(2.0, 8, 1);
  o.point_source = &source;
  ExpectCreateRefuses(o, "point_source");
}

/// minPts-boundary stream: duplicate "sites" emitted round-robin so that
/// contiguous batches split a site's copies across epochs — cells cross
/// the exact min_pts density threshold mid-stream, the hardest edge for
/// an incremental core recompute to get wrong.
TEST(StreamIncrementalTest, MinPtsBoundaryDifferential) {
  const uint64_t seed = TestSeed(0xB0DA);
  SCOPED_TRACE(SeedNote(seed));
  const size_t min_pts = 4;
  Rng rng(seed);
  const size_t num_sites = 120;
  std::vector<std::pair<float, float>> sites(num_sites);
  std::vector<size_t> copies(num_sites);
  size_t max_copies = 0;
  for (size_t i = 0; i < num_sites; ++i) {
    sites[i] = {static_cast<float>(rng.UniformDouble(0.0, 50.0)),
                static_cast<float>(rng.UniformDouble(0.0, 50.0))};
    // min_pts - 1, exactly min_pts, or min_pts + 1 copies per site.
    copies[i] = min_pts - 1 + static_cast<size_t>(rng.Uniform(3));
    max_copies = std::max(max_copies, copies[i]);
  }
  Dataset all(2);
  for (size_t rep = 0; rep < max_copies; ++rep) {
    for (size_t i = 0; i < num_sites; ++i) {
      if (rep < copies[i]) {
        const float p[2] = {sites[i].first, sites[i].second};
        all.Append(p);
      }
    }
  }
  DifferentialReplay(all, StreamOptions(0.5, min_pts, seed),
                     all.size() / 3, seed + 1);
}

/// Empty and single-point batches between epochs must be no-ops and
/// one-cell deltas respectively — and stay differential-exact.
TEST(StreamIncrementalTest, TinyAndEmptyBatches) {
  const uint64_t seed = TestSeed(0xE4411);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset all = SkewedData(240, 3, seed);
  const RpDbscanOptions o = StreamOptions(2.5, 6, seed);
  auto clusterer_or = StreamClusterer::Create(Prefix(all, 200), o);
  ASSERT_TRUE(clusterer_or.ok()) << clusterer_or.status();
  StreamClusterer clusterer = std::move(*clusterer_or);
  size_t pos = 200;
  {
    // Epoch 0 drains the seed's touched set (every cell).
    auto epoch_or = clusterer.PublishEpoch();
    ASSERT_TRUE(epoch_or.ok()) << epoch_or.status();
    EXPECT_EQ(epoch_or->stats.touched_cells, epoch_or->stats.total_cells);
  }
  for (size_t step = 0; step < 8; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Alternate: empty batch, then a 5-point batch.
    const size_t take = (step % 2 == 0) ? 0 : std::min<size_t>(
                                                  5, all.size() - pos);
    ASSERT_TRUE(clusterer.Ingest(Slice(all, pos, take)).ok());
    pos += take;
    auto epoch_or = clusterer.PublishEpoch();
    ASSERT_TRUE(epoch_or.ok()) << epoch_or.status();
    if (take == 0) {
      EXPECT_EQ(epoch_or->stats.touched_cells, 0u);
    }
    auto scratch_or = RunRpDbscan(Prefix(all, pos), o);
    ASSERT_TRUE(scratch_or.ok()) << scratch_or.status();
    ASSERT_EQ(epoch_or->labels, scratch_or->labels);
  }
}


/// Each epoch assembles its dictionary over the previous epoch's as a
/// prior, carrying the stencil neighborhoods of the old cells over and
/// sweeping only the new cells' windows. Every epoch's dictionary must
/// still equal a fresh Build over the accumulated cells: the same wire
/// bytes, the same neighbor cells per cell (itself first), and a clean
/// full audit. The batches mix seeded random sizes with one empty batch,
/// one that opens many new cells, and one far outside the lattice bounds
/// so far (a re-key).
TEST(StreamIncrementalTest, EpochDictionaryMatchesFreshBuild) {
  for (size_t dim = 2; dim <= 5; ++dim) {
    const uint64_t seed = TestSeed(0xD1C7 + dim);
    SCOPED_TRACE(SeedNote(seed));
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const size_t n = 300 + dim * 40;
    const Dataset all = SkewedData(n, dim, seed);
    RpDbscanOptions o =
        StreamOptions(1.4 + 0.45 * static_cast<double>(dim), 8, seed);
    o.max_cells_per_subdict = 32;  // several fragments: slots != cell ids
    CellDictionaryOptions dict_opts;
    dict_opts.max_cells_per_subdict = o.max_cells_per_subdict;

    auto clusterer_or = StreamClusterer::Create(Prefix(all, n / 2), o);
    ASSERT_TRUE(clusterer_or.ok()) << clusterer_or.status();
    StreamClusterer clusterer = std::move(*clusterer_or);
    auto publish_and_check = [&](const std::string& what) {
      SCOPED_TRACE(what);
      auto epoch_or = clusterer.PublishEpoch();
      ASSERT_TRUE(epoch_or.ok()) << epoch_or.status();
      const CellDictionary& got = epoch_or->snapshot.dictionary();
      const CellSet& cells = clusterer.buffer().cells();
      auto fresh = CellDictionary::Build(clusterer.data(), cells, dict_opts);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      ASSERT_TRUE(got.has_stencil());
      EXPECT_EQ(got.Serialize(), fresh->Serialize());
      EXPECT_EQ(NeighborIdSets(got), NeighborIdSets(*fresh));
      const AuditReport audit =
          AuditDictionary(clusterer.data(), cells, got, AuditLevel::kFull);
      EXPECT_TRUE(audit.ok()) << audit.ToString();
    };

    publish_and_check("epoch 0");
    Rng rng(seed ^ 0xba7c4ULL);
    size_t pos = n / 2;
    while (pos < n) {
      const size_t take = std::min<size_t>(
          n - pos, 1 + static_cast<size_t>(rng.Uniform(n / 6)));
      ASSERT_TRUE(clusterer.Ingest(Slice(all, pos, take)).ok());
      pos += take;
      publish_and_check("batch of " + std::to_string(take));
    }
    ASSERT_TRUE(clusterer.Ingest(Dataset(dim)).ok());
    publish_and_check("empty batch");

    // Uniform points over a wider box than the data: mostly new cells.
    Dataset spread(dim);
    std::vector<float> p(dim);
    for (size_t i = 0; i < 60; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        p[d] = static_cast<float>(rng.UniformDouble(-20.0, 60.0));
      }
      spread.Append(p.data());
    }
    const size_t cells_before = clusterer.buffer().cells().num_cells();
    ASSERT_TRUE(clusterer.Ingest(spread).ok());
    EXPECT_GT(clusterer.buffer().cells().num_cells(), cells_before + 20);
    publish_and_check("spread batch");

    // A small cluster far outside the lattice bounds: forces a re-key.
    Dataset far(dim);
    for (size_t i = 0; i < 12; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        p[d] = static_cast<float>(1000.0 + rng.UniformDouble(0.0, 2.0));
      }
      far.Append(p.data());
    }
    ASSERT_TRUE(clusterer.Ingest(far).ok());
    EXPECT_GT(clusterer.buffer().rekeys(), 0u);
    publish_and_check("far batch");
  }
}

}  // namespace
}  // namespace rpdbscan
