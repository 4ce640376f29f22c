// The edge-parallel lock-free merge (MergeOptions::parallel_unions) must
// be observationally identical to the sequential tournament: same cluster
// ids, same predecessor lists, same spanning-forest accounting — for any
// edge order and any thread count. These tests stress exactly that, both
// at the merge layer on random graphs and end-to-end through the pipeline
// across dimensionalities.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/merge.h"
#include "core/rp_dbscan.h"
#include "parallel/thread_pool.h"
#include "synth/generators.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

// A random multi-partition cell graph shaped like Phase II's output:
// cells dealt randomly to partitions, each cell core with probability
// `core_p`, plus random successors — only from core cells (Phase II
// draws an edge when a *core* cell reaches a neighbor; the
// #clusters == #core - #kept-full-edges accounting relies on it), each
// row ascending and duplicate-free.
CellGraph RandomGraph(size_t num_cells, size_t num_partitions,
                      size_t num_edges, double core_p, uint64_t seed) {
  Rng rng(seed);
  CellGraph g;
  g.cell_is_core.resize(num_cells);
  g.successors.resize(num_cells);
  g.partitions.resize(num_partitions);
  for (uint32_t c = 0; c < num_cells; ++c) {
    g.partitions[rng.Uniform(num_partitions)].push_back(c);
    g.cell_is_core[c] = rng.UniformDouble(0, 1) < core_p;
  }
  for (size_t e = 0; e < num_edges; ++e) {
    const uint32_t from = static_cast<uint32_t>(rng.Uniform(num_cells));
    const uint32_t to = static_cast<uint32_t>(rng.Uniform(num_cells));
    if (from == to || !g.cell_is_core[from]) continue;
    g.successors[from].push_back(to);
  }
  for (std::vector<uint32_t>& row : g.successors) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return g;
}

// Shuffles the cells within each partition's owned list.
void ShufflePartitions(CellGraph* g, uint64_t seed) {
  Rng rng(seed);
  for (std::vector<uint32_t>& part : g->partitions) {
    for (size_t i = part.size(); i > 1; --i) {
      std::swap(part[i - 1], part[rng.Uniform(i)]);
    }
  }
}

size_t CountCore(const CellGraph& g) {
  return static_cast<size_t>(
      std::count(g.cell_is_core.begin(), g.cell_is_core.end(), 1));
}

// Everything downstream consumes: cluster table, predecessor lists,
// cluster count. (full_edges and edges_per_round are schedule-dependent
// in content/shape and are checked separately via their invariants.)
void ExpectSameObservables(const MergeResult& a, const MergeResult& b) {
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.core_cluster, b.core_cluster);
  EXPECT_EQ(a.predecessors, b.predecessors);
}

TEST(ParallelMergeTest, MatchesTournamentOnRandomGraphs) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const CellGraph graph = RandomGraph(400, 12, 1500, 0.6, seed);
    const MergeResult seq = MergeSubgraphs(graph, 400, MergeOptions());
    MergeOptions par_opts;
    par_opts.parallel_unions = true;
    par_opts.pool = &pool;
    const MergeResult par = MergeSubgraphs(graph, 400, par_opts);
    ExpectSameObservables(seq, par);
    // Same initial edge count; the parallel series is the 2-entry
    // {initial, kept} collapse and still monotone for the auditor.
    ASSERT_EQ(par.edges_per_round.size(), 2u);
    EXPECT_EQ(par.edges_per_round.front(), seq.edges_per_round.front());
    EXPECT_LE(par.edges_per_round.back(), par.edges_per_round.front());
  }
}

TEST(ParallelMergeTest, SpanningForestAccountingIsScheduleIndependent) {
  // With reduction on, #kept full edges == #core - #clusters in both
  // paths (the invariant AuditMergeForest re-verifies).
  ThreadPool pool(4);
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    const CellGraph graph = RandomGraph(300, 8, 1200, 0.7, seed);
    const size_t num_core = CountCore(graph);
    const MergeResult seq = MergeSubgraphs(graph, 300, {});
    MergeOptions par_opts;
    par_opts.parallel_unions = true;
    par_opts.pool = &pool;
    const MergeResult par = MergeSubgraphs(graph, 300, par_opts);
    EXPECT_EQ(seq.full_edges.size(), num_core - seq.num_clusters);
    EXPECT_EQ(par.full_edges.size(), num_core - par.num_clusters);
    ExpectSameObservables(seq, par);
  }
}

TEST(ParallelMergeTest, ReductionOffKeepsEveryTypedEdge) {
  ThreadPool pool(2);
  const CellGraph graph = RandomGraph(120, 6, 500, 0.8, 31);
  MergeOptions seq_opts;
  seq_opts.reduce_edges = false;
  const MergeResult seq = MergeSubgraphs(graph, 120, seq_opts);
  MergeOptions par_opts;
  par_opts.reduce_edges = false;
  par_opts.parallel_unions = true;
  par_opts.pool = &pool;
  const MergeResult par = MergeSubgraphs(graph, 120, par_opts);
  ExpectSameObservables(seq, par);
  // No reduction: every edge survives in both paths (orders differ; the
  // sets are equal because both keep exactly the typed-full edges).
  EXPECT_EQ(seq.full_edges.size(), par.full_edges.size());
  EXPECT_EQ(par.edges_per_round.back(), par.edges_per_round.front());
}

TEST(ParallelMergeTest, EdgeOrderInvariance) {
  // Shuffle the partitions' owned lists, the only order left in the
  // input (rows are ascending by contract): neither path's outputs may
  // move (typing is per-edge, a round's novel unions are a count over a
  // set, and the harvest is canonical).
  ThreadPool pool(4);
  const CellGraph base = RandomGraph(250, 10, 1000, 0.65, 41);
  MergeOptions opts;
  opts.parallel_unions = true;
  opts.pool = &pool;
  const MergeResult first = MergeSubgraphs(base, 250, opts);
  const MergeResult first_tournament = MergeSubgraphs(base, 250, {});
  for (uint64_t seed = 51; seed <= 54; ++seed) {
    CellGraph graph = base;
    ShufflePartitions(&graph, seed);
    const MergeResult r = MergeSubgraphs(graph, 250, opts);
    ExpectSameObservables(first, r);
    EXPECT_EQ(first.edges_per_round, r.edges_per_round);
    const MergeResult t = MergeSubgraphs(graph, 250, {});
    ExpectSameObservables(first, t);
    EXPECT_EQ(first_tournament.edges_per_round, t.edges_per_round);
  }
}

TEST(ParallelMergeTest, ThreadCountInvariance) {
  const CellGraph graph = RandomGraph(300, 10, 1400, 0.6, 61);
  MergeOptions no_pool;
  no_pool.parallel_unions = true;
  const MergeResult serial = MergeSubgraphs(graph, 300, no_pool);
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    MergeOptions opts;
    opts.parallel_unions = true;
    opts.pool = &pool;
    const MergeResult r = MergeSubgraphs(graph, 300, opts);
    ExpectSameObservables(serial, r);
  }
}

TEST(ParallelMergeTest, PipelineLabelsBitIdenticalAcrossDims) {
  // End-to-end: sequential tournament vs edge-parallel merge through the
  // whole pipeline, dims 2-5, two thread counts — labels bit-identical.
  for (const size_t dim : {2u, 3u, 4u, 5u}) {
    const Dataset ds = synth::Blobs(3000, 4, 1.0, 70 + dim, dim);
    for (const size_t threads : {1u, 4u}) {
      RpDbscanOptions seq;
      seq.eps = 1.5;
      seq.min_pts = 15;
      seq.num_threads = threads;
      seq.num_partitions = 8;
      seq.sequential_merge = true;
      RpDbscanOptions par = seq;
      par.sequential_merge = false;
      auto a = RunRpDbscan(ds, seq);
      auto b = RunRpDbscan(ds, par);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_FALSE(a->stats.parallel_merge);
      EXPECT_TRUE(b->stats.parallel_merge);
      EXPECT_EQ(a->labels, b->labels)
          << "dim=" << dim << " threads=" << threads;
      EXPECT_EQ(a->stats.num_clusters, b->stats.num_clusters);
      EXPECT_EQ(a->stats.num_noise_points, b->stats.num_noise_points);
    }
  }
}

TEST(ParallelMergeTest, PipelineFullAuditAcceptsParallelForest) {
  const Dataset ds = synth::Blobs(2500, 3, 1.0, 83, 3);
  RpDbscanOptions o;
  o.eps = 1.5;
  o.min_pts = 15;
  o.num_threads = 4;
  o.num_partitions = 8;
  o.audit_level = AuditLevel::kFull;
  auto r = RunRpDbscan(ds, o);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->stats.parallel_merge);
  EXPECT_GT(r->stats.audit_checks, 0u);
  EXPECT_EQ(r->stats.audit_violations, 0u);
}

}  // namespace
}  // namespace rpdbscan
