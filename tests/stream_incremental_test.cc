// Differential harness for the streaming re-clusterer (DESIGN.md §9):
// after every ingested batch, the incremental epoch must be BIT-IDENTICAL
// to RunRpDbscan from scratch on the accumulated points with the same
// options — per-point labels (which are cluster ids, so identity covers
// cluster numbering too), cluster/noise counts, and the published
// snapshot's meta. Randomized over dims 2-6 (the stencil engine at d <= 5,
// the kd-tree engine at d = 6), skewed cluster sizes, and minPts-boundary
// duplicate data; re-seed via RPDBSCAN_TEST_SEED. The incremental Phase II
// unit is also checked in place at d = 3, on a stencil dictionary and on a
// kd-tree one built with max_stencil_offsets = 0, and Create must refuse
// the options an epoch cannot honour.

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
/// the small ones only occasionally gain points, so the dirty set hits
/// both hot and cold regions of the grid.
Dataset SkewedData(size_t n, size_t dim, uint64_t seed) {
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
/// from-scratch run on the accumulated prefix.
void DifferentialReplay(const Dataset& all, const RpDbscanOptions& options,
                        size_t seed_points, uint64_t batch_seed) {
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
    EXPECT_EQ(epoch_or->stats.sequence, epoch);
    EXPECT_EQ(epoch_or->stats.total_points, pos);
    EXPECT_EQ(epoch_or->snapshot.meta().num_points, pos);
    EXPECT_TRUE(epoch_or->snapshot.has_epoch());
    EXPECT_EQ(epoch_or->snapshot.epoch().sequence, epoch);

    if (pos >= n) break;
    const size_t span = std::max<size_t>(1, (n - seed_points) / 4);
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

INSTANTIATE_TEST_SUITE_P(
    Dims, StreamDifferentialTest,
    ::testing::Values(size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{6}),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return "dim" + std::to_string(info.param) +
             (info.param <= 5 ? "Stencil" : "Tree");
    });

/// The incremental Phase II unit on both candidate engines, in place:
/// RecomputeCells over any target subset must rewrite exactly the
/// targets' point flags, core flags and successor rows to what the full
/// BuildSubgraphs run emits for them, whatever stale values it finds, and
/// leave every other cell as it found it.
TEST(StreamIncrementalTest, RecomputeCellsMatchesFullRunOnTreeDictionary) {
  const uint64_t seed = TestSeed(0x7EE);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = SkewedData(900, 3, seed);
  auto geom = GridGeometry::Create(3, 2.5, 0.03);
  ASSERT_TRUE(geom.ok());
  ThreadPool pool(2);
  auto cells = CellSet::Build(data, *geom, 8, seed, &pool);
  ASSERT_TRUE(cells.ok());
  const size_t num_cells = cells->num_cells();
  const size_t min_pts = 8;
  std::vector<uint32_t> targets;
  std::vector<uint8_t> is_target(num_cells, 0);
  for (uint32_t cid = 0; cid < num_cells; cid += 3) {
    targets.push_back(cid);
    is_target[cid] = 1;
  }
  const std::vector<uint32_t> sentinel = {UINT32_MAX};
  for (const bool stencil : {false, true}) {
    SCOPED_TRACE(stencil ? "stencil dictionary" : "tree dictionary");
    CellDictionaryOptions dict_opts;
    if (!stencil) dict_opts.max_stencil_offsets = 0;
    auto dict = CellDictionary::Build(data, *cells, dict_opts, &pool);
    ASSERT_TRUE(dict.ok());
    ASSERT_EQ(dict->has_stencil(), stencil);
    const Phase2Result full =
        BuildSubgraphs(data, *cells, *dict, min_pts, pool);
    const CellGraph& want = full.subgraphs;

    // Stale state: every point flagged core; a target gets the opposite
    // core flag and the wrong shape of row (a non-core target a non-empty
    // row, a core target an empty one); a non-target gets a flag that is
    // neither 0 nor 1 and a sentinel row.
    Phase2Result state;
    state.point_is_core.assign(data.size(), 1);
    CellGraph& graph = state.subgraphs;
    graph.cell_is_core.assign(num_cells, 2);
    graph.successors.assign(num_cells, sentinel);
    size_t core_targets = 0;
    for (const uint32_t cid : targets) {
      const bool core = want.cell_is_core[cid] != 0;
      core_targets += core;
      graph.cell_is_core[cid] = core ? 0 : 1;
      if (core) graph.successors[cid].clear();
    }
    ASSERT_GT(core_targets, 0u);
    ASSERT_LT(core_targets, targets.size());

    RecomputeCells(data, *cells, *dict, min_pts, pool, Phase2Options(),
                   targets, &state);
    EXPECT_EQ(state.stencil_probes > 0, stencil);
    EXPECT_EQ(state.subdict_visited > 0, !stencil);
    EXPECT_EQ(graph.partitions, want.partitions);
    for (uint32_t cid = 0; cid < num_cells; ++cid) {
      SCOPED_TRACE("cell " + std::to_string(cid));
      if (is_target[cid]) {
        EXPECT_EQ(graph.cell_is_core[cid], want.cell_is_core[cid]);
        EXPECT_EQ(graph.successors[cid], want.successors[cid]);
      } else {
        EXPECT_EQ(graph.cell_is_core[cid], 2);
        EXPECT_EQ(graph.successors[cid], sentinel);
      }
      for (const uint32_t pid : cells->cell(cid).point_ids) {
        EXPECT_EQ(state.point_is_core[pid],
                  is_target[cid] ? full.point_is_core[pid] : 1);
      }
    }
  }
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

TEST(StreamIncrementalTest, CreateRefusesStencilEpsScale) {
  RpDbscanOptions o = StreamOptions(2.0, 8, 1);
  o.stencil_eps_scale = 2.0;
  ExpectCreateRefuses(o, "stencil_eps_scale");
}

TEST(StreamIncrementalTest, CreateRefusesSampledCoreFraction) {
  RpDbscanOptions o = StreamOptions(2.0, 8, 1);
  o.sampled_core_fraction = 0.3;
  ExpectCreateRefuses(o, "sampled_core_fraction");
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
