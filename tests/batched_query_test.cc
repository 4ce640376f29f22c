// Randomized equivalence of the kd-tree Phase II engine: the batched
// per-cell kernel over per-sub-dictionary kd-tree descent
// (CellDictionary::QueryCell + flat scan, selected by a dictionary built
// with max_stencil_offsets = 0) must reproduce the Alg. 3 oracle
// (tests/phase2_oracle.h) and the stencil engine bit-for-bit — same core
// points, same core cells, same edge sets — across dimensionalities,
// sub-dictionary skipping on/off, and min_pts values on both sides of the
// early-exit threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/phase2.h"
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
};

std::vector<std::tuple<uint32_t, uint32_t>> CanonicalEdges(
    const Phase2Result& r) {
  std::vector<std::tuple<uint32_t, uint32_t>> edges;
  for (const CellSubgraph& g : r.subgraphs) {
    for (const CellEdge& e : g.edges) {
      EXPECT_EQ(e.type, EdgeType::kUndetermined);
      edges.emplace_back(e.from, e.to);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Runs the stencil engine, the kd-tree engine and the oracle on one
/// pipeline and asserts identical output. Returns the kd-tree result for
/// counter assertions.
Phase2Result ExpectEquivalent(const Dataset& data, const EngineConfig& cfg) {
  auto geom = GridGeometry::Create(data.dim(), cfg.eps, cfg.rho);
  EXPECT_TRUE(geom.ok());
  auto cells = CellSet::Build(data, *geom, cfg.partitions, 7);
  EXPECT_TRUE(cells.ok());
  CellDictionaryOptions dict_opts;
  dict_opts.max_cells_per_subdict = 64;  // force several sub-dictionaries
  dict_opts.defragment = cfg.defragment;
  dict_opts.enable_skipping = cfg.skipping;
  auto stencil_dict = CellDictionary::Build(data, *cells, dict_opts);
  EXPECT_TRUE(stencil_dict.ok());
  dict_opts.max_stencil_offsets = 0;  // no stencil: kd-tree descent
  auto tree_dict = CellDictionary::Build(data, *cells, dict_opts);
  EXPECT_TRUE(tree_dict.ok());
  EXPECT_TRUE(stencil_dict->has_stencil());
  EXPECT_FALSE(tree_dict->has_stencil());
  ThreadPool pool(3);

  const Phase2Result o = OraclePhase2(data, *cells, *tree_dict, cfg.min_pts);
  const Phase2Result t =
      BuildSubgraphs(data, *cells, *tree_dict, cfg.min_pts, pool);
  const Phase2Result s =
      BuildSubgraphs(data, *cells, *stencil_dict, cfg.min_pts, pool);

  EXPECT_EQ(o.point_is_core, t.point_is_core);
  EXPECT_EQ(o.point_is_core, s.point_is_core);
  EXPECT_EQ(o.cell_is_core, t.cell_is_core);
  EXPECT_EQ(o.cell_is_core, s.cell_is_core);
  const auto edges = CanonicalEdges(o);
  EXPECT_EQ(edges, CanonicalEdges(t));
  EXPECT_EQ(edges, CanonicalEdges(s));
  // Every configuration also runs the structural auditors at kFull: the
  // engines must emit invariant-clean structures, not merely equal ones.
  const AuditReport cell_audit = AuditCellSet(data, *cells, AuditLevel::kFull);
  EXPECT_TRUE(cell_audit.ok()) << cell_audit.ToString();
  const AuditReport dict_audit =
      AuditDictionary(data, *cells, *tree_dict, AuditLevel::kFull);
  EXPECT_TRUE(dict_audit.ok()) << dict_audit.ToString();
  for (const Phase2Result* r : {&t, &s}) {
    const AuditReport graph_audit =
        AuditCellGraph(data, *cells, *r, AuditLevel::kFull);
    EXPECT_TRUE(graph_audit.ok()) << graph_audit.ToString();
  }
  // The oracle issues one sub-dictionary sweep per point, the kd-tree
  // engine one per cell. (visited is not compared: the cell-level skip
  // test is box-based and so more conservative than the per-point one —
  // with single-point cells the engine can visit slightly more.)
  EXPECT_LE(t.subdict_possible, o.subdict_possible);
  EXPECT_LE(t.subdict_visited, t.subdict_possible);
  EXPECT_EQ(t.stencil_probes, 0u);
  return t;
}

TEST(BatchedQueryTest, RandomizedAcrossDimsAndSkipping) {
  uint64_t seed = TestSeed(1000);
  SCOPED_TRACE(SeedNote(seed));
  for (size_t dim = 2; dim <= 5; ++dim) {
    const Dataset data = synth::Blobs(1200, 4, 2.0, ++seed, dim);
    for (const bool skipping : {true, false}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " skip=" + std::to_string(skipping));
      EngineConfig cfg;
      cfg.eps = 2.5;
      cfg.min_pts = 20;
      cfg.skipping = skipping;
      ExpectEquivalent(data, cfg);
    }
  }
}

TEST(BatchedQueryTest, MinPtsOnBothSidesOfEarlyExit) {
  const uint64_t seed = TestSeed(77);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::Blobs(1500, 3, 1.5, seed, 3);
  // min_pts = 1: every point is core before or at its first candidate —
  // maximal early exits. min_pts = 1e6: no cell's candidate densities can
  // add up, so the upper-bound cutoff rejects every point with zero scans
  // and zero early exits.
  for (const size_t min_pts : {size_t{1}, size_t{25}, size_t{1000000}}) {
    EngineConfig cfg;
    cfg.eps = 1.2;
    cfg.min_pts = min_pts;
    const Phase2Result t = ExpectEquivalent(data, cfg);
    if (min_pts == 1) {
      EXPECT_GT(t.early_exits, 0u);
    } else if (min_pts == 25) {
      EXPECT_GT(t.candidate_cells_scanned, 0u);
    } else {
      EXPECT_EQ(t.early_exits, 0u);
      EXPECT_EQ(t.candidate_cells_scanned, 0u);
    }
  }
}

TEST(BatchedQueryTest, SkewedGeoLifeAnalogue) {
  // The workload the kernel is optimized for: one super-dense component
  // where per-cell batching amortizes the most.
  const uint64_t seed = TestSeed(901);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::GeoLifeLike(4000, seed);
  EngineConfig cfg;
  cfg.eps = 2.0;
  cfg.rho = 0.01;
  cfg.min_pts = 20;
  const Phase2Result t = ExpectEquivalent(data, cfg);
  EXPECT_GT(t.early_exits, 0u);  // dense cells prove coreness early
}

TEST(BatchedQueryTest, MonolithicDictionaryAndTinyCells) {
  // No defragmentation (single sub-dictionary) plus an eps small enough
  // that many cells hold a single point: exercises empty candidate lists
  // and always-contained-only paths.
  const uint64_t seed = TestSeed(5);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = synth::Moons(800, 0.05, seed);
  EngineConfig cfg;
  cfg.eps = 0.05;
  cfg.rho = 0.25;
  cfg.min_pts = 3;
  cfg.defragment = false;
  ExpectEquivalent(data, cfg);
}

}  // namespace
}  // namespace rpdbscan
