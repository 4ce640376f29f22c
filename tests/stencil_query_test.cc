// Randomized three-way equivalence of the Phase II query engines: the
// lattice-stencil kernel (CellDictionary::QueryCellStencil over the global
// cell index) must reproduce both the kd-tree kernel (QueryCell, run on a
// dictionary built with max_stencil_offsets = 0) and the Alg. 3 oracle
// (tests/phase2_oracle.h) bit-for-bit — same core points, same core
// cells, same edge sets — across dimensionalities, rho values and
// skipping settings, including through the serialize/deserialize wire
// round-trip, plus the high-dimensionality and zero-cap fallbacks and the
// sub-cell-range MBR containment contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/labeling.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "core/rp_dbscan.h"
#include "synth/generators.h"
#include "verify/audit.h"

#include "phase2_oracle.h"
#include "test_seed.h"

namespace rpdbscan {
namespace {

struct EngineConfig {
  double eps = 1.0;
  double rho = 0.05;
  size_t partitions = 5;
  size_t min_pts = 20;
  bool skipping = true;
  bool defragment = true;
  /// Stencil cap of the stencil-engine dictionary (the kd-tree one is
  /// always built with 0).
  size_t max_stencil_offsets = 8192;
  /// Round-trip the dictionary through its Lemma 4.3 wire format before
  /// querying (a decoded dictionary rebuilds the global index and stencil).
  bool roundtrip = false;
};

struct ThreeWayOutcome {
  Phase2Result stencil;   // on the dictionary built with cfg's cap
  Phase2Result tree;      // on the dictionary built with cap 0
  bool has_stencil = false;
  size_t num_cells = 0;
  size_t stencil_offsets = 0;
};

/// Builds one dictionary of `cells` with the given stencil cap, through
/// the wire round-trip when cfg.roundtrip is set.
CellDictionary BuildDict(const Dataset& data, const CellSet& cells,
                         const EngineConfig& cfg, size_t max_stencil_offsets,
                         ThreadPool& pool) {
  CellDictionaryOptions dict_opts;
  dict_opts.max_cells_per_subdict = 64;  // force several sub-dictionaries
  dict_opts.defragment = cfg.defragment;
  dict_opts.enable_skipping = cfg.skipping;
  dict_opts.max_stencil_offsets = max_stencil_offsets;
  auto built = CellDictionary::Build(data, cells, dict_opts, &pool);
  EXPECT_TRUE(built.ok());
  CellDictionary dict = std::move(*built);
  if (cfg.roundtrip) {
    auto wire = CellDictionary::Deserialize(dict.Serialize(), dict_opts,
                                            &pool);
    EXPECT_TRUE(wire.ok());
    EXPECT_EQ(wire->has_stencil(), dict.has_stencil());
    dict = std::move(*wire);
  }
  return dict;
}

/// Runs all three engines on one pipeline and asserts identical output
/// plus the per-engine counter contracts.
ThreeWayOutcome ExpectThreeWayEquivalent(const Dataset& data,
                                         const EngineConfig& cfg) {
  ThreeWayOutcome out;
  auto geom = GridGeometry::Create(data.dim(), cfg.eps, cfg.rho);
  EXPECT_TRUE(geom.ok());
  auto cells = CellSet::Build(data, *geom, cfg.partitions, 7);
  EXPECT_TRUE(cells.ok());
  ThreadPool pool(3);
  const CellDictionary dict =
      BuildDict(data, *cells, cfg, cfg.max_stencil_offsets, pool);
  const CellDictionary tree_dict = BuildDict(data, *cells, cfg, 0, pool);
  EXPECT_FALSE(tree_dict.has_stencil());

  Phase2Result a = OraclePhase2(data, *cells, tree_dict, cfg.min_pts);
  Phase2Result t =
      BuildSubgraphs(data, *cells, tree_dict, cfg.min_pts, pool);
  Phase2Result s = BuildSubgraphs(data, *cells, dict, cfg.min_pts, pool);

  EXPECT_EQ(a.point_is_core, t.point_is_core);
  EXPECT_EQ(a.point_is_core, s.point_is_core);
  EXPECT_EQ(a.subgraphs.cell_is_core, t.subgraphs.cell_is_core);
  EXPECT_EQ(a.subgraphs.cell_is_core, s.subgraphs.cell_is_core);
  EXPECT_EQ(a.subgraphs.successors, t.subgraphs.successors);
  EXPECT_EQ(a.subgraphs.successors, s.subgraphs.successors);
  // Structural auditors at kFull: both production engines must emit
  // invariant-clean structures, not merely equal ones.
  const AuditReport cell_audit = AuditCellSet(data, *cells, AuditLevel::kFull);
  EXPECT_TRUE(cell_audit.ok()) << cell_audit.ToString();
  const AuditReport dict_audit =
      AuditDictionary(data, *cells, dict, AuditLevel::kFull);
  EXPECT_TRUE(dict_audit.ok()) << dict_audit.ToString();
  for (const Phase2Result* r : {&t, &s}) {
    const AuditReport graph_audit =
        AuditCellGraph(data, *cells, r->point_is_core, r->subgraphs);
    EXPECT_TRUE(graph_audit.ok()) << graph_audit.ToString();
  }
  // Counter contracts. Only the stencil engine walks lattice
  // neighborhoods; the window size bounds its walk by (|stencil| + 1)
  // entries per processed cell (every CellSet cell is non-empty and
  // processed once) from above, and by one per cell from below — the
  // source cell is always the first entry of its own precomputed
  // neighborhood.
  EXPECT_EQ(t.stencil_probes, 0u);
  EXPECT_GT(t.subdict_visited, 0u);
  if (dict.has_stencil()) {
    EXPECT_GE(s.stencil_probes, cells->num_cells());
    EXPECT_LE(s.stencil_probes,
              cells->num_cells() * (dict.stencil().num_offsets() + 1));
    // The stencil engine never descends sub-dictionaries.
    EXPECT_EQ(s.subdict_visited, 0u);
    EXPECT_EQ(s.subdict_possible, 0u);
  } else {
    // No stencil under cfg's cap either: both runs took the kd-tree
    // path, so the tree-side counters must match run t exactly.
    EXPECT_EQ(s.stencil_probes, 0u);
    EXPECT_EQ(s.subdict_visited, t.subdict_visited);
    EXPECT_EQ(s.subdict_possible, t.subdict_possible);
    EXPECT_EQ(s.candidate_cells_scanned, t.candidate_cells_scanned);
    EXPECT_EQ(s.early_exits, t.early_exits);
  }
  out.has_stencil = dict.has_stencil();
  out.num_cells = cells->num_cells();
  out.stencil_offsets = dict.has_stencil() ? dict.stencil().num_offsets() : 0;
  out.tree = std::move(t);
  out.stencil = std::move(s);
  return out;
}

TEST(StencilQueryTest, RandomizedAcrossDimsRhoAndSkipping) {
  uint64_t seed = TestSeed(4000);
  SCOPED_TRACE(SeedNote(seed));
  for (size_t dim = 2; dim <= 5; ++dim) {
    const Dataset data = synth::Blobs(1000, 4, 2.0, ++seed, dim);
    for (const double rho : {0.3, 0.05}) {
      for (const bool skipping : {true, false}) {
        SCOPED_TRACE("dim=" + std::to_string(dim) +
                     " rho=" + std::to_string(rho) +
                     " skip=" + std::to_string(skipping));
        EngineConfig cfg;
        cfg.eps = 2.5;
        cfg.rho = rho;
        cfg.min_pts = 20;
        cfg.skipping = skipping;
        const ThreeWayOutcome o = ExpectThreeWayEquivalent(data, cfg);
        EXPECT_TRUE(o.has_stencil);  // default cap covers d <= 5
      }
    }
  }
}

TEST(StencilQueryTest, SkewedGeoLifeAnalogueRhoSweep) {
  // The workload the stencil engine targets: one super-dense component
  // where every probe hits and tiny rho makes sub-cell grids deep.
  const uint64_t seed = TestSeed(4901);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::GeoLifeLike(3000, seed);
  for (const double rho : {0.25, 0.05, 0.01}) {
    SCOPED_TRACE("rho=" + std::to_string(rho));
    EngineConfig cfg;
    cfg.eps = 2.0;
    cfg.rho = rho;
    cfg.min_pts = 20;
    const ThreeWayOutcome o = ExpectThreeWayEquivalent(data, cfg);
    EXPECT_TRUE(o.has_stencil);
    // 3-d stencil: the whole 5^3 window minus self.
    EXPECT_EQ(o.stencil_offsets, 124u);
    EXPECT_GT(o.stencil.early_exits, 0u);  // dense cells prove coreness
  }
}

TEST(StencilQueryTest, MinPtsOnBothSidesOfEarlyExit) {
  const uint64_t seed = TestSeed(4077);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::Blobs(1500, 3, 1.5, seed, 3);
  std::vector<size_t> probes_per_min_pts;
  for (const size_t min_pts : {size_t{1}, size_t{25}, size_t{1000000}}) {
    SCOPED_TRACE("min_pts=" + std::to_string(min_pts));
    EngineConfig cfg;
    cfg.eps = 1.2;
    cfg.min_pts = min_pts;
    const ThreeWayOutcome o = ExpectThreeWayEquivalent(data, cfg);
    // The probe count is a function of the lattice only (the precomputed
    // neighborhoods see neither densities nor min_pts), so it must be
    // identical on both sides of the early-exit threshold; only the
    // downstream scan work varies.
    EXPECT_GE(o.stencil.stencil_probes, o.num_cells);
    EXPECT_LE(o.stencil.stencil_probes,
              o.num_cells * (o.stencil_offsets + 1));
    probes_per_min_pts.push_back(o.stencil.stencil_probes);
  }
  ASSERT_EQ(probes_per_min_pts.size(), 3u);
  EXPECT_EQ(probes_per_min_pts[0], probes_per_min_pts[1]);
  EXPECT_EQ(probes_per_min_pts[0], probes_per_min_pts[2]);
}

TEST(StencilQueryTest, HighDimFallbackStaysEquivalent) {
  // d = 6 exceeds the default stencil cap: the dictionary must come back
  // without a stencil and Phase II must ride the kd-tree path, still
  // bit-identical to the oracle.
  const uint64_t seed = TestSeed(4666);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::Blobs(600, 3, 2.0, seed, 6);
  EngineConfig cfg;
  cfg.eps = 3.0;
  cfg.min_pts = 10;
  const ThreeWayOutcome o = ExpectThreeWayEquivalent(data, cfg);
  EXPECT_FALSE(o.has_stencil);
  // Raising the cap far enough re-enables the stencil at d = 6.
  EngineConfig wide = cfg;
  wide.max_stencil_offsets = 65536;
  const ThreeWayOutcome ow = ExpectThreeWayEquivalent(data, wide);
  EXPECT_TRUE(ow.has_stencil);
  EXPECT_EQ(ow.stencil_offsets, 41220u);
}

TEST(StencilQueryTest, ZeroStencilCapFallsBack) {
  const uint64_t seed = TestSeed(4042);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::Moons(800, 0.05, seed);
  EngineConfig cfg;
  cfg.eps = 0.05;
  cfg.rho = 0.25;
  cfg.min_pts = 3;
  cfg.defragment = false;
  cfg.max_stencil_offsets = 0;
  const ThreeWayOutcome o = ExpectThreeWayEquivalent(data, cfg);
  EXPECT_FALSE(o.has_stencil);
}

TEST(StencilQueryTest, SerializeRoundtripRebuildsIndexAndStencil) {
  // The wire round-trip: Deserialize must rebuild the global cell index
  // and stencil so receiving workers can run the stencil engine, with
  // results identical to the sender's.
  uint64_t seed = TestSeed(4123);
  SCOPED_TRACE(SeedNote(seed));
  for (size_t dim = 2; dim <= 3; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const Dataset data = synth::Blobs(900, 4, 2.0, ++seed, dim);
    EngineConfig cfg;
    cfg.eps = 2.0;
    cfg.min_pts = 15;
    cfg.roundtrip = true;
    const ThreeWayOutcome o = ExpectThreeWayEquivalent(data, cfg);
    EXPECT_TRUE(o.has_stencil);
  }
}

TEST(StencilQueryTest, FindCellRefIndexResolvesEveryCellAndRejectsAbsent) {
  const uint64_t seed = TestSeed(4555);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::Blobs(1200, 4, 2.0, seed, 3);
  auto geom = GridGeometry::Create(3, 2.0, 0.05);
  ASSERT_TRUE(geom.ok());
  auto cells = CellSet::Build(data, *geom, 4, 7);
  ASSERT_TRUE(cells.ok());
  CellDictionaryOptions dict_opts;
  dict_opts.max_cells_per_subdict = 64;
  auto dict = CellDictionary::Build(data, *cells, dict_opts);
  ASSERT_TRUE(dict.ok());
  for (uint32_t cid = 0; cid < cells->num_cells(); ++cid) {
    const CellCoord& coord = cells->cell(cid).coord;
    const int64_t slot = dict->FindCellRefIndex(coord);
    ASSERT_GE(slot, 0);
    const GlobalCellRef& ref = dict->cell_refs()[slot];
    const DictCell& cell =
        dict->subdictionaries()[ref.subdict].cells()[ref.local_cell];
    EXPECT_EQ(ref.cell_id, cid);
    EXPECT_EQ(cell.cell_id, cid);
    EXPECT_TRUE(cell.coord == coord);
    EXPECT_GT(ref.total_count, 0u);
    EXPECT_EQ(ref.total_count, cell.total_count);
  }
  // A coordinate far outside the populated lattice resolves to -1.
  int32_t far[CellCoord::kMaxDim] = {};
  const CellCoord& some = cells->cell(0).coord;
  for (size_t d = 0; d < 3; ++d) far[d] = some[d];
  far[0] += 100000;
  EXPECT_EQ(dict->FindCellRefIndex(CellCoord(far, 3)), -1);
}

TEST(StencilQueryTest, CellMbrCoversEveryPoint) {
  // The contract ProcessCellBatched's debug check enforces, checked here
  // in every build mode: the box decoded from occupied sub-cell ranges
  // (SubDictionary::cell_mbr) covers each of the cell's points, and lies
  // within the cell box padded by one float ulp per face.
  uint64_t seed = TestSeed(4200);
  SCOPED_TRACE(SeedNote(seed));
  for (size_t dim = 2; dim <= 4; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const Dataset data = synth::Blobs(1000, 5, 2.5, ++seed, dim);
    auto geom = GridGeometry::Create(dim, 1.7, 0.04);
    ASSERT_TRUE(geom.ok());
    auto cells = CellSet::Build(data, *geom, 4, 7);
    ASSERT_TRUE(cells.ok());
    auto dict = CellDictionary::Build(data, *cells, CellDictionaryOptions());
    ASSERT_TRUE(dict.ok());
    for (uint32_t cid = 0; cid < cells->num_cells(); ++cid) {
      const CellData& cell = cells->cell(cid);
      const int64_t slot = dict->FindCellRefIndex(cell.coord);
      ASSERT_GE(slot, 0);
      const GlobalCellRef& ref = dict->cell_refs()[slot];
      const float* lo =
          dict->subdictionaries()[ref.subdict].cell_mbr(ref.local_cell);
      const float* hi = lo + dim;
      for (const uint32_t pid : cell.point_ids) {
        const float* p = data.point(pid);
        for (size_t d = 0; d < dim; ++d) {
          ASSERT_GE(p[d], lo[d]) << "cell " << cid << " dim " << d;
          ASSERT_LE(p[d], hi[d]) << "cell " << cid << " dim " << d;
        }
      }
      // The box stays within the cell box up to float-rounding slack:
      // double->float rounding plus the one-ulp outward padding is at
      // most ~1.5 float ulps of the coordinate magnitude.
      for (size_t d = 0; d < dim; ++d) {
        const double origin = geom->CellOrigin(cell.coord, d);
        const double mag =
            std::abs(origin) + geom->cell_side() + 1.0;
        const double slack =
            4.0 * mag *
            static_cast<double>(std::numeric_limits<float>::epsilon());
        EXPECT_GE(static_cast<double>(lo[d]), origin - slack);
        EXPECT_LE(static_cast<double>(hi[d]),
                  origin + geom->cell_side() + slack);
      }
    }
  }
}

TEST(StencilQueryTest, EndToEndPipelineLabelsIdentical) {
  // RunRpDbscan (stencil engine at d = 3) against the same stages run by
  // hand on a kd-tree dictionary and on the oracle: identical labels.
  const uint64_t seed = TestSeed(4321);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::GeoLifeLike(2500, seed);
  RpDbscanOptions opts;
  opts.eps = 2.0;
  opts.min_pts = 20;
  opts.rho = 0.01;
  opts.num_partitions = 6;
  opts.num_threads = 3;
  opts.audit_level = AuditLevel::kCheap;
  const auto run = RunRpDbscan(data, opts);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->stats.stencil_probes, 0u);

  auto geom = GridGeometry::Create(data.dim(), opts.eps, opts.rho);
  ASSERT_TRUE(geom.ok());
  ThreadPool pool(opts.num_threads);
  auto cells =
      CellSet::Build(data, *geom, opts.num_partitions, opts.seed, &pool);
  ASSERT_TRUE(cells.ok());
  CellDictionaryOptions dict_opts;
  dict_opts.max_stencil_offsets = 0;
  auto tree_dict = CellDictionary::Build(data, *cells, dict_opts, &pool);
  ASSERT_TRUE(tree_dict.ok());
  auto labels_of = [&](Phase2Result phase2) {
    MergeOptions merge_opts;
    merge_opts.pool = &pool;
    merge_opts.parallel_unions = true;
    const MergeResult merged =
        MergeSubgraphs(phase2.subgraphs, cells->num_cells(), merge_opts);
    return LabelPoints(data, *cells, merged, phase2.point_is_core, pool);
  };
  EXPECT_EQ(run->labels, labels_of(BuildSubgraphs(data, *cells, *tree_dict,
                                                  opts.min_pts, pool)));
  EXPECT_EQ(run->labels,
            labels_of(OraclePhase2(data, *cells, *tree_dict, opts.min_pts)));
}

}  // namespace
}  // namespace rpdbscan
