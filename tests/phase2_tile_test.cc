// Phase II's tile scan at its boundaries. A cell's points meet each
// candidate as a group: pass 1 classifies the still-undecided points with
// one group-bounds call and one multi-count call per candidate, and pass 2
// searches the core points in chunks of 4 and then 16 for an edge. The
// cells here hold 1, 3, 4, 5, 16, 17 and 40 points, so groups sit on both
// sides of the lane width and of both chunk widths. Every run must
// reproduce the Alg. 3 oracle (tests/phase2_oracle.h): the same core
// points, core cells and edges, on both candidate engines, with and
// without seeded cores and a core-cell mask. The
// own-cell shortcut is pinned directly: a fully occupied source cell is
// pre-summed at rho = 0.01 and stays a maybe at rho = 1e-6, where the
// sub-cell center inset falls below a float ulp of its coordinates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/phase2.h"
#include "util/random.h"

#include "phase2_oracle.h"
#include "test_seed.h"

namespace rpdbscan {
namespace {

constexpr size_t kCellSizes[] = {1, 3, 4, 5, 16, 17, 40};

void ExpectSameGraph(const Phase2Result& want, const Phase2Result& got) {
  EXPECT_EQ(want.point_is_core, got.point_is_core);
  EXPECT_EQ(want.subgraphs.cell_is_core, got.subgraphs.cell_is_core);
  EXPECT_EQ(want.subgraphs.successors, got.subgraphs.successors);
}

/// Three cells of every size in kCellSizes, each at an unused lattice
/// cell a step of at most 2 per dimension from the previous one, so the
/// cells see one another as candidates. About half the cells of two or
/// more points are fully occupied: their first two points sit in opposite
/// corner sub-cells, so the occupied-sub-cell MBR spans the whole cell.
Dataset TiledCells(const GridGeometry& geom, uint64_t seed) {
  const size_t dim = geom.dim();
  const double side = geom.cell_side();
  Rng rng(seed);
  Dataset data(dim);
  std::vector<int32_t> at(dim, 0);
  std::set<std::vector<int32_t>> used;
  for (int rep = 0; rep < 3; ++rep) {
    for (const size_t size : kCellSizes) {
      std::vector<int32_t> next;
      do {
        next = at;
        for (size_t d = 0; d < dim; ++d) {
          next[d] += static_cast<int32_t>(rng.Uniform(5)) - 2;
        }
      } while (used.count(next) != 0);
      used.insert(next);
      at = next;
      const bool full = size >= 2 && rng.Uniform(2) == 0;
      for (size_t j = 0; j < size; ++j) {
        float p[CellCoord::kMaxDim];
        for (size_t d = 0; d < dim; ++d) {
          double u = rng.UniformDouble(0.001, 0.999);
          if (full && j < 2) u = j == 0 ? 0.001 : 0.999;
          p[d] = static_cast<float>((at[d] + u) * side);
        }
        data.Append(p);
      }
    }
  }
  return data;
}

struct TilePipeline {
  Dataset data;
  GridGeometry geom;
  StatusOr<CellSet> cells = Status::Internal("unset");
  /// The stencil engine's dictionary (d <= 5) and the kd-tree engine's
  /// (stencil cap 0); at d = 13 both are tree dictionaries.
  StatusOr<CellDictionary> stencil_dict = Status::Internal("unset");
  StatusOr<CellDictionary> tree_dict = Status::Internal("unset");

  TilePipeline(size_t dim, double eps, double rho, uint64_t seed)
      : data(dim) {
    auto g = GridGeometry::Create(dim, eps, rho);
    EXPECT_TRUE(g.ok());
    geom = *g;
    data = TiledCells(geom, seed);
    cells = CellSet::Build(data, geom, 3, 7);
    EXPECT_TRUE(cells.ok());
    CellDictionaryOptions opts;
    opts.max_cells_per_subdict = 8;  // several sub-dictionaries
    stencil_dict = CellDictionary::Build(data, *cells, opts);
    EXPECT_TRUE(stencil_dict.ok());
    opts.max_stencil_offsets = 0;
    tree_dict = CellDictionary::Build(data, *cells, opts);
    EXPECT_TRUE(tree_dict.ok());
    EXPECT_EQ(stencil_dict->has_stencil(), dim <= 5);
  }

  /// BuildSubgraphs on both engines, each against `want`.
  void ExpectAllRunsMatch(const Phase2Result& want, size_t min_pts,
                          const Phase2Options& opts) const {
    ThreadPool pool(2);
    for (const CellDictionary* dict : {&*stencil_dict, &*tree_dict}) {
      SCOPED_TRACE(dict->has_stencil() ? "stencil" : "tree");
      const Phase2Result got =
          BuildSubgraphs(data, *cells, *dict, min_pts, pool, opts);
      ExpectSameGraph(want, got);
      if (min_pts > data.size()) {
        // No cell can reach min_pts: the suffix bound rejects every point
        // before a single bound evaluation.
        EXPECT_EQ(got.candidate_cells_scanned, 0u);
        EXPECT_EQ(got.early_exits, 0u);
      }
    }
  }
};

TEST(Phase2TileTest, MatchesOracleAcrossCellSizesAndMinPts) {
  uint64_t seed = TestSeed(1700);
  SCOPED_TRACE(SeedNote(seed));
  for (const size_t dim : {2u, 3u, 4u, 5u, 13u}) {
    const TilePipeline t(dim, 1.0, 0.01, ++seed);
    for (const size_t min_pts : {size_t{1}, size_t{5}, size_t{1000000}}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " min_pts=" + std::to_string(min_pts));
      const Phase2Result want =
          OraclePhase2(t.data, *t.cells, *t.tree_dict, min_pts);
      t.ExpectAllRunsMatch(want, min_pts, Phase2Options());
    }
  }
}

TEST(Phase2TileTest, SeededCoresAndCoreCellMask) {
  uint64_t seed = TestSeed(1800);
  SCOPED_TRACE(SeedNote(seed));
  constexpr size_t kMinPts = 5;
  for (const size_t dim : {2u, 3u, 4u, 5u, 13u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const TilePipeline t(dim, 1.0, 0.01, ++seed);
    const Phase2Result want =
        OraclePhase2(t.data, *t.cells, *t.tree_dict, kMinPts);

    // Seeds: every other true core point, then all of them. Seeded points
    // enter pass 2 at exit 0 beside the points pass 1 proves core.
    for (const size_t stride : {size_t{2}, size_t{1}}) {
      SCOPED_TRACE("seed stride " + std::to_string(stride));
      std::vector<uint8_t> seeds(t.data.size(), 0);
      size_t seen = 0;
      for (size_t p = 0; p < seeds.size(); ++p) {
        if (want.point_is_core[p] != 0 && seen++ % stride == 0) seeds[p] = 1;
      }
      Phase2Options opts;
      opts.seed_point_core = seeds.data();
      t.ExpectAllRunsMatch(want, kMinPts, opts);
    }

    // Mask: every third cell may not become core. Its points stay
    // non-core and it emits no edges; every other cell is unchanged.
    std::vector<uint8_t> mask(t.cells->num_cells(), 1);
    Phase2Result masked = want;
    for (uint32_t cid = 0; cid < mask.size(); cid += 3) {
      mask[cid] = 0;
      masked.subgraphs.cell_is_core[cid] = 0;
      masked.subgraphs.successors[cid].clear();
      for (const uint32_t p : t.cells->cell(cid).point_ids) {
        masked.point_is_core[p] = 0;
      }
    }
    Phase2Options opts;
    opts.core_cell_mask = mask.data();
    t.ExpectAllRunsMatch(masked, kMinPts, opts);
    // Seeds on masked cells are ignored with the rest of the cell.
    std::vector<uint8_t> seeds(want.point_is_core);
    opts.seed_point_core = seeds.data();
    t.ExpectAllRunsMatch(masked, kMinPts, opts);
  }
}

/// One fully occupied 4-d cell of `n` points at lattice cell 1000 with
/// eps = 2, so the cell side is exactly 1 and the cell spans [1000, 1001)
/// in every dimension. Its first point sits on the origin, its second on
/// the largest float below 1001: the occupied-sub-cell MBR then spans the
/// whole cell at any rho.
Dataset FullCell(size_t n, uint64_t seed) {
  constexpr size_t kDim = 4;
  Rng rng(seed);
  Dataset data(kDim);
  const float far = std::nextafter(1001.0f, 0.0f);
  for (size_t j = 0; j < n; ++j) {
    float p[kDim];
    for (size_t d = 0; d < kDim; ++d) {
      p[d] = j == 0   ? 1000.0f
             : j == 1 ? far
                      : static_cast<float>(1000.0 + rng.UniformDouble());
      p[d] = std::min(p[d], far);
    }
    data.Append(p);
  }
  return data;
}

TEST(Phase2TileTest, FullyOccupiedSourceCellIsPreSummedAtRhoOnePercent) {
  const uint64_t seed = TestSeed(1900);
  SCOPED_TRACE(SeedNote(seed));
  constexpr size_t kPoints = 40;
  const Dataset data = FullCell(kPoints, seed);
  // At rho = 0.01 the sub-cell centers are inset 1/256 of the side, far
  // above a float ulp at 1000 (2^-14): the center box is contained. At
  // rho = 1e-6 the inset (2^-21) is below that ulp, the corner centers
  // round onto the MBR faces and the source cell stays a maybe.
  for (const double rho : {0.01, 1e-6}) {
    SCOPED_TRACE("rho=" + std::to_string(rho));
    auto geom = GridGeometry::Create(4, 2.0, rho);
    ASSERT_TRUE(geom.ok());
    ASSERT_EQ(geom->cell_side(), 1.0);
    auto cells = CellSet::Build(data, *geom, 1, 7);
    ASSERT_TRUE(cells.ok());
    ASSERT_EQ(cells->num_cells(), 1u);
    CellDictionaryOptions opts;
    auto stencil_dict = CellDictionary::Build(data, *cells, opts);
    opts.max_stencil_offsets = 0;
    auto tree_dict = CellDictionary::Build(data, *cells, opts);
    ASSERT_TRUE(stencil_dict.ok());
    ASSERT_TRUE(tree_dict.ok());
    ASSERT_TRUE(stencil_dict->has_stencil());

    const CellCoord& coord = cells->cell(0).coord;
    const int64_t slot = tree_dict->FindCellRefIndex(coord);
    ASSERT_GE(slot, 0);
    const GlobalCellRef& ref = tree_dict->cell_refs()[slot];
    const float* lo =
        tree_dict->subdictionaries()[ref.subdict].cell_mbr(ref.local_cell);
    const float* hi = lo + 4;
    for (size_t d = 0; d < 4; ++d) {
      // The MBR spans the whole cell: measured against itself it is not
      // contained, so only the center box can pre-sum it.
      ASSERT_LE(lo[d], 1000.0f);
      ASSERT_GE(hi[d], 1001.0f);
    }
    CandidateCellList stencil_list;
    CandidateCellList tree_list;
    const int64_t stencil_slot = stencil_dict->FindCellRefIndex(coord);
    const int64_t tree_slot = tree_dict->FindCellRefIndex(coord);
    ASSERT_GE(stencil_slot, 0);
    ASSERT_GE(tree_slot, 0);
    stencil_dict->QueryCellStencil(static_cast<uint32_t>(stencil_slot),
                                   &stencil_list);
    tree_dict->QueryCell(static_cast<uint32_t>(tree_slot), &tree_list);
    for (const CandidateCellList* list : {&stencil_list, &tree_list}) {
      EXPECT_TRUE(list->always_neighbors.empty());
      if (rho == 0.01) {
        EXPECT_EQ(list->always_count, kPoints);
        EXPECT_TRUE(list->cell_ids.empty());
      } else {
        EXPECT_EQ(list->always_count, 0u);
        EXPECT_EQ(list->cell_ids, std::vector<uint32_t>{0});
      }
    }

    // Either way the scan is exact: at min_pts = kPoints every point is
    // core, through the shortcut at rho = 0.01 and through the lane
    // kernel at rho = 1e-6; one point more and none is.
    ThreadPool pool(1);
    for (const size_t min_pts : {kPoints, kPoints + 1}) {
      const Phase2Result want = OraclePhase2(data, *cells, *tree_dict, min_pts);
      EXPECT_EQ(want.subgraphs.cell_is_core[0], min_pts == kPoints ? 1 : 0);
      for (const CellDictionary* dict : {&*stencil_dict, &*tree_dict}) {
        const Phase2Result got =
            BuildSubgraphs(data, *cells, *dict, min_pts, pool);
        ExpectSameGraph(want, got);
        if (rho == 0.01) {
          EXPECT_EQ(got.candidate_cells_scanned, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace rpdbscan
