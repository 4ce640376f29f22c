// Randomized equivalence of the kd-tree Phase II engine: the batched
// per-cell kernel over per-sub-dictionary box-bounded kd-tree descent
// (CellDictionary::QueryCell + flat scan) must reproduce the Alg. 3 oracle
// (tests/phase2_oracle.h) bit-for-bit — same core points, same core
// cells, same edge sets. At d <= 5 a dictionary built with
// max_stencil_offsets = 0 forces the tree engine, which must also match
// the stencil engine; at d = 6, 8 and 13 the tree engine is the only one,
// and its candidate split is further checked cell by cell against a
// brute-force classification of every dictionary cell. Covered:
// sub-dictionary skipping on/off, defragmentation off, query radii above
// eps (the ladder's), and min_pts values on both sides of the early-exit
// threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
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
  EXPECT_EQ(o.subgraphs.cell_is_core, t.subgraphs.cell_is_core);
  EXPECT_EQ(o.subgraphs.cell_is_core, s.subgraphs.cell_is_core);
  EXPECT_EQ(o.subgraphs.successors, t.subgraphs.successors);
  EXPECT_EQ(o.subgraphs.successors, s.subgraphs.successors);
  // Every configuration also runs the structural auditors at kFull: the
  // engines must emit invariant-clean structures, not merely equal ones.
  const AuditReport cell_audit = AuditCellSet(data, *cells, AuditLevel::kFull);
  EXPECT_TRUE(cell_audit.ok()) << cell_audit.ToString();
  const AuditReport dict_audit =
      AuditDictionary(data, *cells, *tree_dict, AuditLevel::kFull);
  EXPECT_TRUE(dict_audit.ok()) << dict_audit.ToString();
  for (const Phase2Result* r : {&t, &s}) {
    const AuditReport graph_audit =
        AuditCellGraph(data, *cells, r->point_is_core, r->subgraphs);
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

// ---- d >= 6: the inputs the tree engine serves in production. ----

// The classification bounds of QueryCell, recomputed here independently:
// squared min / max distance between the boxes [a_lo, a_hi] and
// [b_lo, b_hi], with the same double arithmetic and margins.
constexpr double kContainMargin = 1.0 - 1e-9;
constexpr double kDisjointMargin = 1.0 + 1e-9;

void BoxPairBounds(const float* a_lo, const float* a_hi, const float* b_lo,
                   const float* b_hi, size_t dim, double* min2,
                   double* max2) {
  *min2 = 0.0;
  *max2 = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double lo = b_lo[d];
    const double hi = b_hi[d];
    const double alo = a_lo[d];
    const double ahi = a_hi[d];
    double gap = 0.0;
    if (alo > hi) {
      gap = alo - hi;
    } else if (lo > ahi) {
      gap = lo - ahi;
    }
    *min2 += gap * gap;
    const double far = std::max(ahi - lo, hi - alo);
    *max2 += far * far;
  }
}

// Lemma 5.10 skip test of one sub-dictionary against the source box.
bool Skipped(const SubDictionary& sd, const float* a_lo, const float* a_hi,
             size_t dim, double disjoint2) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    double gap = 0.0;
    if (sd.mbr().min(d) > a_hi[d]) {
      gap = sd.mbr().min(d) - a_hi[d];
    } else if (a_lo[d] > sd.mbr().max(d)) {
      gap = a_lo[d] - sd.mbr().max(d);
    }
    acc += gap * gap;
  }
  return acc > disjoint2;
}

// Tree nodes over more than one cell whose box alone settles them.
struct SplitCoverage {
  size_t accepted_nodes = 0;  // provably contained: taken whole
  size_t pruned_nodes = 0;    // provably disjoint: dropped whole
};

// Checks QueryCell's candidate split for every cell against a brute-force
// classification of every dictionary cell (no tree): the same always
// density, the same always ids (source cell excluded) and the same maybe
// ids in the same (min2, cell id) order. Also tallies the multi-cell tree
// nodes whose box alone settles them, so callers can assert the descent
// really accepted and pruned whole subtrees on their input.
void ExpectSplitMatchesBruteForce(const CellSet& cells,
                                  const CellDictionary& dict, bool skipping,
                                  double query_eps, SplitCoverage* coverage) {
  const size_t dim = dict.geom().dim();
  const double eps2 = query_eps * query_eps;
  const double disjoint2 = eps2 * kDisjointMargin;
  const double contained2 = eps2 * kContainMargin;
  CandidateCellList got;
  for (uint32_t cid = 0; cid < cells.num_cells(); ++cid) {
    const CellCoord& coord = cells.cell(cid).coord;
    const int64_t slot = dict.FindCellRefIndex(coord);
    ASSERT_GE(slot, 0);
    const GlobalCellRef& ref = dict.cell_refs()[slot];
    const float* lo =
        dict.subdictionaries()[ref.subdict].cell_mbr(ref.local_cell);
    const float* hi = lo + dim;
    dict.QueryCell(static_cast<uint32_t>(slot), &got, query_eps);

    uint64_t always_count = 0;
    std::vector<uint32_t> always;
    std::vector<std::pair<double, uint32_t>> maybe;
    for (const SubDictionary& sd : dict.subdictionaries()) {
      if (skipping && Skipped(sd, lo, hi, dim, disjoint2)) continue;
      for (uint32_t local = 0; local < sd.num_cells(); ++local) {
        const float* mbr = sd.cell_mbr(local);
        double min2 = 0.0;
        double max2 = 0.0;
        BoxPairBounds(lo, hi, mbr, mbr + dim, dim, &min2, &max2);
        const DictCell& dc = sd.cells()[local];
        if (min2 > disjoint2) continue;
        if (max2 <= contained2) {
          always_count += dc.total_count;
          if (dc.cell_id != cid) always.push_back(dc.cell_id);
          continue;
        }
        maybe.emplace_back(min2, dc.cell_id);
      }
      const KdTree& tree = sd.tree();
      for (size_t node = 0; node < tree.num_nodes(); ++node) {
        if (tree.node_items(node).size() < 2) continue;
        const float* box = tree.node_box(node);
        double min2 = 0.0;
        double max2 = 0.0;
        BoxPairBounds(lo, hi, box, box + dim, dim, &min2, &max2);
        if (min2 > disjoint2) ++coverage->pruned_nodes;
        if (max2 <= contained2) ++coverage->accepted_nodes;
      }
    }
    std::sort(always.begin(), always.end());
    std::sort(maybe.begin(), maybe.end());
    std::vector<uint32_t> maybe_ids;
    for (const auto& m : maybe) maybe_ids.push_back(m.second);

    std::vector<uint32_t> got_always = got.always_neighbors;
    std::sort(got_always.begin(), got_always.end());
    ASSERT_EQ(got.always_count, always_count) << "cell " << cid;
    ASSERT_EQ(got_always, always) << "cell " << cid;
    ASSERT_EQ(got.cell_ids, maybe_ids) << "cell " << cid;
  }
}

struct HighDimCase {
  double eps = 1.0;
  double rho = 0.05;
  size_t min_pts = 20;
  bool skipping = true;
  bool defragment = true;
};

// The tree engine against the oracle at the geometry eps and at the
// ladder's 1.25 * eps, with the dictionary and graph auditors at kFull and
// the cell-by-cell split check. Returns the split coverage at the geometry eps.
SplitCoverage ExpectHighDimEquivalent(const Dataset& data,
                                      const HighDimCase& c) {
  SplitCoverage coverage;
  auto geom = GridGeometry::Create(data.dim(), c.eps, c.rho);
  EXPECT_TRUE(geom.ok());
  auto cells = CellSet::Build(data, *geom, 5, 7);
  EXPECT_TRUE(cells.ok());
  CellDictionaryOptions dict_opts;
  dict_opts.max_cells_per_subdict = 64;  // several sub-dictionaries
  dict_opts.defragment = c.defragment;
  dict_opts.enable_skipping = c.skipping;
  auto dict = CellDictionary::Build(data, *cells, dict_opts);
  EXPECT_TRUE(dict.ok());
  if (!dict.ok()) return coverage;
  EXPECT_FALSE(dict->has_stencil());  // production default at d >= 6
  const AuditReport dict_audit =
      AuditDictionary(data, *cells, *dict, AuditLevel::kFull);
  EXPECT_TRUE(dict_audit.ok()) << dict_audit.ToString();
  ThreadPool pool(3);
  for (const double scale : {1.0, 1.25}) {
    SCOPED_TRACE("query_eps=" + std::to_string(scale) + "*eps");
    const double query_eps = scale * c.eps;
    Phase2Options opts;
    opts.query_eps = scale == 1.0 ? 0.0 : query_eps;
    const Phase2Result o =
        OraclePhase2(data, *cells, *dict, c.min_pts, opts.query_eps);
    const Phase2Result t =
        BuildSubgraphs(data, *cells, *dict, c.min_pts, pool, opts);
    EXPECT_EQ(o.point_is_core, t.point_is_core);
    EXPECT_EQ(o.subgraphs.cell_is_core, t.subgraphs.cell_is_core);
    EXPECT_EQ(o.subgraphs.successors, t.subgraphs.successors);
    EXPECT_EQ(t.stencil_probes, 0u);
    EXPECT_LE(t.subdict_visited, t.subdict_possible);
    if (scale == 1.0) {
      // The graph auditor bounds edge spans by the geometry eps, so it
      // applies to the classic radius only.
      const AuditReport graph_audit =
          AuditCellGraph(data, *cells, t.point_is_core, t.subgraphs);
      EXPECT_TRUE(graph_audit.ok()) << graph_audit.ToString();
    }
    SplitCoverage cov;
    ExpectSplitMatchesBruteForce(*cells, *dict, c.skipping, query_eps, &cov);
    if (scale == 1.0) coverage = cov;
  }
  return coverage;
}

// TeraLike-shaped mixture in `dim` dimensions: ten Gaussian components of
// stddev 3 in a 100-wide space (synth::TeraLike is the 13-d member).
Dataset TeraShaped(size_t n, size_t dim, uint64_t seed) {
  if (dim == 13) return synth::TeraLike(n, seed);
  synth::GaussianMixtureOptions opts;
  opts.num_points = n;
  opts.dim = dim;
  opts.num_components = 10;
  opts.skewness_alpha = 1.0 / 9.0;
  opts.seed = seed;
  return synth::GaussianMixture(opts);
}

TEST(BatchedQueryTest, HighDimClusterSpanningEpsAcceptsSubtrees) {
  // eps spans a whole component (its stddev-3 spread is ~3 * sqrt(d)), so
  // most of a component's cells are provably contained from each of its
  // cells: the descent accepts whole subtrees.
  uint64_t seed = TestSeed(1400);
  SCOPED_TRACE(SeedNote(seed));
  const std::vector<std::pair<size_t, double>> shapes = {
      {6, 30.0}, {8, 35.0}, {13, 40.0}};
  for (const auto& [dim, eps] : shapes) {
    const Dataset data = TeraShaped(2000, dim, ++seed);
    for (const bool skipping : {true, false}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " skip=" + std::to_string(skipping));
      HighDimCase c;
      c.eps = eps;
      c.skipping = skipping;
      const SplitCoverage cov = ExpectHighDimEquivalent(data, c);
      EXPECT_GT(cov.accepted_nodes, 0u);
    }
  }
}

TEST(BatchedQueryTest, HighDimSparseBlobsPruneSubtrees) {
  // Small, well-separated blobs at an eps far below their spacing: most
  // of the tree is provably disjoint from any one cell, so the descent
  // prunes whole subtrees; most cells hold a single point.
  uint64_t seed = TestSeed(1500);
  SCOPED_TRACE(SeedNote(seed));
  for (const size_t dim : {size_t{6}, size_t{8}, size_t{13}}) {
    const Dataset data = synth::Blobs(1200, 8, 2.0, ++seed, dim);
    for (const bool skipping : {true, false}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " skip=" + std::to_string(skipping));
      HighDimCase c;
      c.eps = 2.0 * std::sqrt(static_cast<double>(dim));
      c.min_pts = 8;
      c.skipping = skipping;
      const SplitCoverage cov = ExpectHighDimEquivalent(data, c);
      EXPECT_GT(cov.pruned_nodes, 0u);
    }
  }
}

TEST(BatchedQueryTest, HighDimMonolithicDictionary) {
  // No defragmentation: one sub-dictionary, one tree over every cell.
  uint64_t seed = TestSeed(1600);
  SCOPED_TRACE(SeedNote(seed));
  for (const size_t dim : {size_t{6}, size_t{8}, size_t{13}}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const Dataset data = TeraShaped(1500, dim, ++seed);
    HighDimCase c;
    c.eps = dim == 13 ? 25.0 : 15.0;
    c.min_pts = 10;
    c.defragment = false;
    const SplitCoverage cov = ExpectHighDimEquivalent(data, c);
    EXPECT_GT(cov.accepted_nodes, 0u);
    EXPECT_GT(cov.pruned_nodes, 0u);
  }
}

}  // namespace
}  // namespace rpdbscan
