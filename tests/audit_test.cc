// Tests for the src/verify invariant auditors: AuditReport mechanics, the
// acceptance-criterion "deliberately corrupted CSR is caught", tampered
// pipeline outputs being rejected stage by stage, and a clean pipeline
// passing every auditor at kFull — both standalone and through
// RpDbscanOptions::audit_level.

#include "verify/audit.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/labeling.h"
#include "core/phase2.h"
#include "core/rp_dbscan.h"
#include "synth/generators.h"

namespace rpdbscan {
namespace {

// ---------------------------------------------------------------------------
// AuditReport mechanics.

TEST(AuditReportTest, CountsChecksAndViolations) {
  AuditReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.checks(), 0u);
  report.Check(true, [] { return "never"; });
  report.Check(false, [] { return "bad thing"; });
  report.Fail("worse thing");
  EXPECT_EQ(report.checks(), 3u);
  EXPECT_EQ(report.violations(), 2u);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.messages().size(), 2u);
  EXPECT_EQ(report.messages()[0], "bad thing");
  EXPECT_EQ(report.messages()[1], "worse thing");
}

TEST(AuditReportTest, MessageFormattingIsLazy) {
  AuditReport report;
  bool formatted = false;
  report.Check(true, [&] {
    formatted = true;
    return "unused";
  });
  EXPECT_FALSE(formatted);
  report.Check(false, [&] {
    formatted = true;
    return "used";
  });
  EXPECT_TRUE(formatted);
}

TEST(AuditReportTest, RetainsAtMostMaxMessages) {
  AuditReport report;
  for (size_t i = 0; i < 3 * AuditReport::kMaxMessages; ++i) {
    report.Fail("violation " + std::to_string(i));
  }
  EXPECT_EQ(report.violations(), 3 * AuditReport::kMaxMessages);
  EXPECT_EQ(report.messages().size(), AuditReport::kMaxMessages);
}

TEST(AuditReportTest, MergeFoldsCounters) {
  AuditReport a;
  a.Check(true, [] { return ""; });
  AuditReport b;
  b.Fail("sub-stage violation");
  b.Check(true, [] { return ""; });
  a.Merge(b);
  EXPECT_EQ(a.checks(), 3u);
  EXPECT_EQ(a.violations(), 1u);
  ASSERT_EQ(a.messages().size(), 1u);
  EXPECT_EQ(a.messages()[0], "sub-stage violation");
}

TEST(AuditReportTest, ToStatusCarriesStageAndMessages) {
  AuditReport clean;
  clean.Check(true, [] { return ""; });
  EXPECT_TRUE(clean.ToStatus("cell-set").ok());

  AuditReport broken;
  broken.Fail("offsets not monotone");
  const Status st = broken.ToStatus("cell-set");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cell-set"), std::string::npos);
  EXPECT_NE(st.message().find("offsets not monotone"), std::string::npos);
  EXPECT_FALSE(broken.ToString().empty());
}

// ---------------------------------------------------------------------------
// Corrupted CSR arrays (the acceptance-criterion unit test). A healthy
// layout first, then one deliberate corruption per test.

std::vector<uint64_t> HealthyOffsets() { return {0, 3, 5, 8}; }
std::vector<uint32_t> HealthyIds() { return {0, 2, 5, 1, 7, 3, 4, 6}; }

TEST(AuditCsrTest, HealthyLayoutPasses) {
  const AuditReport r = AuditCsrArrays(8, HealthyOffsets(), HealthyIds());
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_GT(r.checks(), 0u);
}

TEST(AuditCsrTest, CatchesNonMonotoneOffsets) {
  auto offsets = HealthyOffsets();
  offsets[2] = 2;  // goes backwards relative to offsets[1] == 3
  EXPECT_FALSE(AuditCsrArrays(8, offsets, HealthyIds()).ok());
}

TEST(AuditCsrTest, CatchesOffsetsNotStartingAtZero) {
  auto offsets = HealthyOffsets();
  offsets[0] = 1;
  EXPECT_FALSE(AuditCsrArrays(8, offsets, HealthyIds()).ok());
}

TEST(AuditCsrTest, CatchesTruncatedOffsets) {
  // Final offset stops short of num_points: the tail of point_ids is
  // orphaned from every cell.
  auto offsets = HealthyOffsets();
  offsets.back() = 6;
  EXPECT_FALSE(AuditCsrArrays(8, offsets, HealthyIds()).ok());
}

TEST(AuditCsrTest, CatchesEmptyOffsets) {
  EXPECT_FALSE(AuditCsrArrays(8, {}, HealthyIds()).ok());
}

TEST(AuditCsrTest, CatchesDuplicatePointId) {
  auto ids = HealthyIds();
  ids[4] = 3;  // 3 now appears twice, 7 never — permutation broken
  EXPECT_FALSE(AuditCsrArrays(8, HealthyOffsets(), ids).ok());
}

TEST(AuditCsrTest, CatchesOutOfRangePointId) {
  auto ids = HealthyIds();
  ids[0] = 100;
  EXPECT_FALSE(AuditCsrArrays(8, HealthyOffsets(), ids).ok());
}

TEST(AuditCsrTest, CatchesDescendingIdsWithinCell) {
  auto ids = HealthyIds();
  std::swap(ids[0], ids[1]);  // cell 0 becomes {2, 0, 5}
  EXPECT_FALSE(AuditCsrArrays(8, HealthyOffsets(), ids).ok());
}

TEST(AuditCsrTest, CatchesPointIdsSizeMismatch) {
  auto ids = HealthyIds();
  ids.pop_back();
  EXPECT_FALSE(AuditCsrArrays(8, HealthyOffsets(), ids).ok());
}

// ---------------------------------------------------------------------------
// Whole-pipeline fixtures: run the real stages on a small blob data set,
// audit the genuine outputs, then tamper with the (public) result structs
// and expect each stage auditor to object.

constexpr double kEps = 1.0;
constexpr double kRho = 0.05;
constexpr size_t kMinPts = 10;

struct Pipeline {
  Dataset data;
  CellSet cells;
  CellDictionary dict;
  Phase2Result phase2;
  MergeResult merged;
  Labels labels;
};

Pipeline MakePipeline() {
  Dataset data = synth::Blobs(1200, 3, 1.0, 42);
  auto geom = GridGeometry::Create(data.dim(), kEps, kRho);
  EXPECT_TRUE(geom.ok()) << geom.status();
  auto cells = CellSet::Build(data, *geom, 4, 7);
  EXPECT_TRUE(cells.ok()) << cells.status();
  CellDictionaryOptions dict_opts;
  dict_opts.max_cells_per_subdict = 32;  // force several sub-dictionaries
  auto dict = CellDictionary::Build(data, *cells, dict_opts);
  EXPECT_TRUE(dict.ok()) << dict.status();
  ThreadPool pool(2);
  Phase2Result phase2 =
      BuildSubgraphs(data, *cells, *dict, kMinPts, pool, Phase2Options());
  MergeOptions merge_opts;
  merge_opts.pool = &pool;
  MergeResult merged =
      MergeSubgraphs(phase2.subgraphs, cells->num_cells(), merge_opts);
  Labels labels =
      LabelPoints(data, *cells, merged, phase2.point_is_core, pool);
  return Pipeline{std::move(data),       std::move(cells).value(),
                  std::move(dict).value(), std::move(phase2),
                  std::move(merged),     std::move(labels)};
}

TEST(PipelineAuditTest, CleanPipelinePassesEveryAuditorAtFull) {
  const Pipeline p = MakePipeline();
  const AuditReport cell_set = AuditCellSet(p.data, p.cells, AuditLevel::kFull);
  EXPECT_TRUE(cell_set.ok()) << cell_set.ToString();
  EXPECT_GT(cell_set.checks(), 0u);
  const AuditReport dict =
      AuditDictionary(p.data, p.cells, p.dict, AuditLevel::kFull);
  EXPECT_TRUE(dict.ok()) << dict.ToString();
  EXPECT_GT(dict.checks(), 0u);
  const AuditReport graph = AuditCellGraph(p.data, p.cells,
                                           p.phase2.point_is_core,
                                           p.phase2.subgraphs);
  EXPECT_TRUE(graph.ok()) << graph.ToString();
  EXPECT_GT(graph.checks(), 0u);
  const AuditReport forest =
      AuditMergeForest(p.phase2.subgraphs.cell_is_core, p.merged,
                       AuditLevel::kFull);
  EXPECT_TRUE(forest.ok()) << forest.ToString();
  EXPECT_GT(forest.checks(), 0u);
  const AuditReport labels =
      AuditLabels(p.data, p.cells, p.merged, p.phase2.point_is_core, p.labels,
                  kMinPts, AuditLevel::kFull, /*seed=*/1);
  EXPECT_TRUE(labels.ok()) << labels.ToString();
  EXPECT_GT(labels.checks(), 0u);
}

TEST(PipelineAuditTest, CleanPipelinePassesAtCheap) {
  const Pipeline p = MakePipeline();
  EXPECT_TRUE(AuditCellSet(p.data, p.cells, AuditLevel::kCheap).ok());
  EXPECT_TRUE(AuditDictionary(p.data, p.cells, p.dict, AuditLevel::kCheap).ok());
  EXPECT_TRUE(AuditMergeForest(p.phase2.subgraphs.cell_is_core, p.merged,
                               AuditLevel::kCheap)
                  .ok());
  EXPECT_TRUE(AuditLabels(p.data, p.cells, p.merged, p.phase2.point_is_core,
                          p.labels, kMinPts, AuditLevel::kCheap, 1)
                  .ok());
}

TEST(PipelineAuditTest, StencilNeighborhoodsPassOnCleanBuilds) {
  // The stencil CSR checks run only when a stencil is built, and a clean
  // one passes them at both levels — built from scratch, or assembled over
  // a prior dictionary that carries most lists over.
  for (size_t dim = 2; dim <= 5; ++dim) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const Dataset data = synth::Blobs(900, 4, 3.0, 50 + dim, dim);
    auto geom = GridGeometry::Create(dim, 1.0 + dim, kRho);
    ASSERT_TRUE(geom.ok()) << geom.status();
    auto cells = CellSet::Build(data, *geom, 4, 7);
    ASSERT_TRUE(cells.ok()) << cells.status();
    CellDictionaryOptions opts;
    opts.max_cells_per_subdict = 32;
    auto dict = CellDictionary::Build(data, *cells, opts);
    ASSERT_TRUE(dict.ok()) << dict.status();
    ASSERT_TRUE(dict->has_stencil());
    std::vector<CellEntry> entries;
    for (uint32_t id = 0; id < cells->num_cells(); ++id) {
      entries.push_back(
          CellDictionary::MakeCellEntry(data, *geom, cells->cell(id), id));
    }
    auto prior = CellDictionary::FromEntries(
        *geom,
        std::vector<CellEntry>(entries.begin(),
                               entries.begin() + entries.size() * 3 / 4),
        opts);
    ASSERT_TRUE(prior.ok()) << prior.status();
    auto carried =
        CellDictionary::FromEntries(*geom, entries, opts, nullptr, &*prior);
    ASSERT_TRUE(carried.ok()) << carried.status();
    for (const CellDictionary* d : {&*dict, &*carried}) {
      for (const AuditLevel level : {AuditLevel::kCheap, AuditLevel::kFull}) {
        const AuditReport report = AuditDictionary(data, *cells, *d, level);
        EXPECT_TRUE(report.ok()) << report.ToString();
      }
    }
    opts.max_stencil_offsets = 0;
    auto no_stencil = CellDictionary::Build(data, *cells, opts);
    ASSERT_TRUE(no_stencil.ok()) << no_stencil.status();
    EXPECT_GT(
        AuditDictionary(data, *cells, *dict, AuditLevel::kCheap).checks(),
        AuditDictionary(data, *cells, *no_stencil, AuditLevel::kCheap)
                .checks() +
            cells->num_cells());
  }
}

// Returns the dense id of some core cell (the fixture's blobs always
// produce one).
uint32_t AnyCoreCell(const Pipeline& p) {
  for (uint32_t c = 0; c < p.phase2.subgraphs.cell_is_core.size(); ++c) {
    if (p.phase2.subgraphs.cell_is_core[c]) return c;
  }
  ADD_FAILURE() << "fixture produced no core cell";
  return 0;
}

bool CellGraphAuditPasses(const Pipeline& p) {
  return AuditCellGraph(p.data, p.cells, p.phase2.point_is_core,
                        p.phase2.subgraphs)
      .ok();
}

// Inserts `to` into `from`'s successor row, keeping the row ascending.
void AddEdge(Pipeline& p, uint32_t from, uint32_t to) {
  std::vector<uint32_t>& row = p.phase2.subgraphs.successors[from];
  row.insert(std::lower_bound(row.begin(), row.end(), to), to);
}

TEST(PipelineAuditTest, CatchesSelfLoopEdge) {
  Pipeline p = MakePipeline();
  const uint32_t c = AnyCoreCell(p);
  AddEdge(p, c, c);
  EXPECT_FALSE(CellGraphAuditPasses(p));
}

TEST(PipelineAuditTest, CatchesEdgeFromNonCoreCell) {
  Pipeline p = MakePipeline();
  const std::vector<uint8_t>& core = p.phase2.subgraphs.cell_is_core;
  const auto non_core = std::find(core.begin(), core.end(), 0);
  ASSERT_NE(non_core, core.end()) << "fixture produced no non-core cell";
  AddEdge(p, static_cast<uint32_t>(non_core - core.begin()), AnyCoreCell(p));
  EXPECT_FALSE(CellGraphAuditPasses(p));
}

TEST(PipelineAuditTest, CatchesGeometricallyImpossibleEdge) {
  Pipeline p = MakePipeline();
  const uint32_t from = AnyCoreCell(p);
  // Find the cell farthest from `from` along dimension 0: with three
  // separated blobs it is many cells away, far beyond the (1+rho)eps reach.
  const CellCoord& origin = p.cells.cell(from).coord;
  uint32_t far = from;
  int64_t best = 0;
  for (uint32_t c = 0; c < p.cells.num_cells(); ++c) {
    const int64_t d = static_cast<int64_t>(p.cells.cell(c).coord[0]) -
                      static_cast<int64_t>(origin[0]);
    const int64_t abs_d = d < 0 ? -d : d;
    if (abs_d > best) {
      best = abs_d;
      far = c;
    }
  }
  ASSERT_GT(best, 4) << "fixture cells not spread enough for this test";
  AddEdge(p, from, far);
  EXPECT_FALSE(CellGraphAuditPasses(p));
}

TEST(PipelineAuditTest, CatchesDuplicateEdge) {
  Pipeline p = MakePipeline();
  for (std::vector<uint32_t>& row : p.phase2.subgraphs.successors) {
    if (row.empty()) continue;
    row.push_back(row.back());
    EXPECT_FALSE(CellGraphAuditPasses(p));
    return;
  }
  FAIL() << "fixture produced no edge";
}

TEST(PipelineAuditTest, CatchesForeignOwnedList) {
  Pipeline p = MakePipeline();
  std::vector<std::vector<uint32_t>>& parts = p.phase2.subgraphs.partitions;
  ASSERT_GE(parts.size(), 2u);
  std::swap(parts[0], parts[1]);
  EXPECT_FALSE(CellGraphAuditPasses(p));
}

TEST(PipelineAuditTest, CatchesCoreCellWithoutCluster) {
  Pipeline p = MakePipeline();
  p.merged.core_cluster[AnyCoreCell(p)] = kNoCluster;
  EXPECT_FALSE(AuditMergeForest(p.phase2.subgraphs.cell_is_core, p.merged,
                                AuditLevel::kCheap)
                   .ok());
}

TEST(PipelineAuditTest, CatchesCycleInReducedFullEdges) {
  Pipeline p = MakePipeline();
  ASSERT_TRUE(p.merged.edges_reduced);
  ASSERT_FALSE(p.merged.full_edges.empty())
      << "fixture produced no multi-cell cluster";
  // Duplicating a spanning-forest edge creates a cycle: the second union
  // is not novel, and the #clusters == #core − #edges accounting breaks.
  p.merged.full_edges.push_back(p.merged.full_edges.front());
  EXPECT_FALSE(AuditMergeForest(p.phase2.subgraphs.cell_is_core, p.merged,
                                AuditLevel::kCheap)
                   .ok());
}

TEST(PipelineAuditTest, CatchesIncreasingEdgeSeries) {
  Pipeline p = MakePipeline();
  ASSERT_GE(p.merged.edges_per_round.size(), 2u);
  p.merged.edges_per_round.back() = p.merged.edges_per_round.front() + 1000;
  EXPECT_FALSE(AuditMergeForest(p.phase2.subgraphs.cell_is_core, p.merged,
                                AuditLevel::kCheap)
                   .ok());
}

TEST(PipelineAuditTest, CatchesPredecessorOnCoreCell) {
  Pipeline p = MakePipeline();
  const uint32_t core = AnyCoreCell(p);
  p.merged.predecessors[core].push_back(core);
  EXPECT_FALSE(AuditMergeForest(p.phase2.subgraphs.cell_is_core, p.merged,
                                AuditLevel::kCheap)
                   .ok());
}

TEST(PipelineAuditTest, CatchesCorePointLabeledNoise) {
  Pipeline p = MakePipeline();
  const uint32_t core_cell = AnyCoreCell(p);
  const uint32_t pid = p.cells.cell(core_cell).point_ids[0];
  p.labels[pid] = kNoise;
  EXPECT_FALSE(AuditLabels(p.data, p.cells, p.merged, p.phase2.point_is_core,
                           p.labels, kMinPts, AuditLevel::kCheap, 1)
                   .ok());
}

TEST(PipelineAuditTest, CatchesOutOfRangeClusterLabel) {
  Pipeline p = MakePipeline();
  p.labels[0] = static_cast<int64_t>(p.merged.num_clusters) + 5;
  EXPECT_FALSE(AuditLabels(p.data, p.cells, p.merged, p.phase2.point_is_core,
                           p.labels, kMinPts, AuditLevel::kCheap, 1)
                   .ok());
}

TEST(PipelineAuditTest, SandwichSpotCheckCatchesFabricatedNoise) {
  // Rewrite a dense core cell into a structurally self-consistent lie:
  // the cell becomes non-core with no predecessors, its points lose their
  // core flags and become noise. Every structural label check then agrees
  // with the tampered state — only the kd-tree ground-truth spot check
  // (Theorem 5.4: a noise point must have < minPts exact neighbors at
  // (1 - rho/2) eps) can expose the fake noise.
  Pipeline p = MakePipeline();
  // Pick the most populous core cell that is nobody's predecessor, so the
  // tamper does not ripple into other cells' label re-derivation.
  uint32_t victim = UINT32_MAX;
  size_t best_points = 0;
  for (uint32_t c = 0; c < p.phase2.subgraphs.cell_is_core.size(); ++c) {
    if (!p.phase2.subgraphs.cell_is_core[c]) continue;
    bool is_pred = false;
    for (const std::vector<uint32_t>& preds : p.merged.predecessors) {
      for (const uint32_t pred : preds) {
        if (pred == c) is_pred = true;
      }
    }
    if (is_pred) continue;
    if (p.cells.cell(c).point_ids.size() > best_points) {
      best_points = p.cells.cell(c).point_ids.size();
      victim = c;
    }
  }
  ASSERT_NE(victim, UINT32_MAX) << "every core cell is a predecessor";
  ASSERT_GE(best_points, kMinPts) << "densest eligible core cell too sparse";
  p.merged.core_cluster[victim] = kNoCluster;
  p.merged.predecessors[victim].clear();
  for (const uint32_t pid : p.cells.cell(victim).point_ids) {
    p.labels[pid] = kNoise;
    p.phase2.point_is_core[pid] = 0;
  }
  // kFull draws 256 noise samples (with replacement); the fabricated noise
  // dominates the genuine noise pool on this small data set, so the dense
  // fakes are sampled — and rejected — deterministically under this seed.
  const AuditReport r =
      AuditLabels(p.data, p.cells, p.merged, p.phase2.point_is_core, p.labels,
                  kMinPts, AuditLevel::kFull, /*seed=*/3);
  EXPECT_FALSE(r.ok());
  bool sandwich_message = false;
  for (const std::string& m : r.messages()) {
    if (m.find("exact neighbors") != std::string::npos) {
      sandwich_message = true;
    }
  }
  EXPECT_TRUE(sandwich_message) << r.ToString();
}

// ---------------------------------------------------------------------------
// End-to-end wiring through RpDbscanOptions::audit_level.

RpDbscanOptions AuditOpts(AuditLevel level) {
  RpDbscanOptions o;
  o.eps = kEps;
  o.min_pts = kMinPts;
  o.rho = kRho;
  o.num_threads = 2;
  o.num_partitions = 4;
  o.audit_level = level;
  return o;
}

TEST(RpDbscanAuditTest, FullAuditRunsCleanAndPopulatesStats) {
  const Dataset ds = synth::Blobs(1500, 3, 1.0, 77);
  auto r = RunRpDbscan(ds, AuditOpts(AuditLevel::kFull));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->stats.audit_checks, 0u);
  EXPECT_EQ(r->stats.audit_violations, 0u);
  EXPECT_GE(r->stats.audit_seconds, 0.0);
  EXPECT_NE(r->stats.ToString().find("audit:"), std::string::npos);
}

TEST(RpDbscanAuditTest, CheapAuditRunsClean) {
  const Dataset ds = synth::Blobs(1500, 3, 1.0, 78);
  auto r = RunRpDbscan(ds, AuditOpts(AuditLevel::kCheap));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->stats.audit_checks, 0u);
  EXPECT_EQ(r->stats.audit_violations, 0u);
}

TEST(RpDbscanAuditTest, OffMeansZeroChecks) {
  const Dataset ds = synth::Blobs(800, 2, 1.0, 79);
  auto r = RunRpDbscan(ds, AuditOpts(AuditLevel::kOff));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->stats.audit_checks, 0u);
  EXPECT_EQ(r->stats.ToString().find("audit:"), std::string::npos);
}

TEST(RpDbscanAuditTest, AuditDoesNotChangeLabels) {
  const Dataset ds = synth::Blobs(1200, 3, 1.0, 80);
  auto off = RunRpDbscan(ds, AuditOpts(AuditLevel::kOff));
  auto full = RunRpDbscan(ds, AuditOpts(AuditLevel::kFull));
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(off->labels, full->labels);
}

}  // namespace
}  // namespace rpdbscan
