#include "core/rp_dbscan.h"

#include <gtest/gtest.h>

#include "baselines/exact_dbscan.h"
#include "metrics/cluster_stats.h"
#include "metrics/rand_index.h"
#include "synth/generators.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

RpDbscanOptions Opts(double eps, size_t min_pts, double rho = 0.01) {
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = min_pts;
  o.rho = rho;
  o.num_threads = 2;
  o.num_partitions = 8;
  return o;
}

double RandVsExact(const Dataset& ds, double eps, size_t min_pts,
                   double rho) {
  auto rp = RunRpDbscan(ds, Opts(eps, min_pts, rho));
  EXPECT_TRUE(rp.ok()) << rp.status();
  auto exact = RunExactDbscan(ds, DbscanParams{eps, min_pts});
  EXPECT_TRUE(exact.ok()) << exact.status();
  auto ri = RandIndex(rp->labels, exact->labels);
  EXPECT_TRUE(ri.ok());
  return *ri;
}

TEST(RpDbscanTest, RejectsInvalidOptions) {
  const Dataset ds = synth::Blobs(100, 2, 1.0, 1);
  EXPECT_FALSE(RunRpDbscan(ds, Opts(0.0, 10)).ok());     // eps
  EXPECT_FALSE(RunRpDbscan(ds, Opts(-1.0, 10)).ok());    // eps
  EXPECT_FALSE(RunRpDbscan(ds, Opts(1.0, 0)).ok());      // min_pts
  EXPECT_FALSE(RunRpDbscan(ds, Opts(1.0, 10, 0.0)).ok());   // rho
  EXPECT_FALSE(RunRpDbscan(ds, Opts(1.0, 10, 1.5)).ok());   // rho
  const Dataset empty(2);
  EXPECT_FALSE(RunRpDbscan(empty, Opts(1.0, 10)).ok());
}

TEST(RpDbscanTest, MatchesExactDbscanOnBlobs) {
  const Dataset ds = synth::Blobs(5000, 6, 1.0, 21);
  EXPECT_GE(RandVsExact(ds, 1.0, 20, 0.01), 0.999);
}

TEST(RpDbscanTest, MatchesExactDbscanOnMoons) {
  const Dataset ds = synth::Moons(4000, 0.05, 22);
  EXPECT_GE(RandVsExact(ds, 0.08, 10, 0.01), 0.995);
}

TEST(RpDbscanTest, MatchesExactDbscanOnChameleon) {
  const Dataset ds = synth::ChameleonLike(6000, 23);
  EXPECT_GE(RandVsExact(ds, 1.5, 12, 0.01), 0.99);
}

TEST(RpDbscanTest, AccuracyDegradesGracefullyWithRho) {
  // Table 4: even rho = 0.10 keeps the Rand index above 0.98.
  const Dataset ds = synth::Blobs(4000, 5, 1.0, 24);
  EXPECT_GE(RandVsExact(ds, 1.0, 20, 0.10), 0.98);
  EXPECT_GE(RandVsExact(ds, 1.0, 20, 0.05), 0.98);
}

TEST(RpDbscanTest, FindsTheRightNumberOfBlobClusters) {
  const Dataset ds = synth::Blobs(6000, 7, 0.8, 25);
  auto rp = RunRpDbscan(ds, Opts(1.0, 20));
  ASSERT_TRUE(rp.ok());
  const ClusterSummary s = Summarize(rp->labels);
  EXPECT_EQ(s.num_clusters, 7u);
}

TEST(RpDbscanTest, ResultIndependentOfPartitionCount) {
  const Dataset ds = synth::Blobs(3000, 4, 1.0, 26);
  RpDbscanOptions a = Opts(1.0, 15);
  a.num_partitions = 1;
  RpDbscanOptions b = Opts(1.0, 15);
  b.num_partitions = 32;
  auto ra = RunRpDbscan(ds, a);
  auto rb = RunRpDbscan(ds, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  auto ri = RandIndex(ra->labels, rb->labels);
  ASSERT_TRUE(ri.ok());
  EXPECT_DOUBLE_EQ(*ri, 1.0);
}

TEST(RpDbscanTest, ResultIndependentOfSeed) {
  const Dataset ds = synth::Blobs(3000, 4, 1.0, 27);
  RpDbscanOptions a = Opts(1.0, 15);
  a.seed = 1;
  RpDbscanOptions b = Opts(1.0, 15);
  b.seed = 999;
  auto ra = RunRpDbscan(ds, a);
  auto rb = RunRpDbscan(ds, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  auto ri = RandIndex(ra->labels, rb->labels);
  ASSERT_TRUE(ri.ok());
  EXPECT_DOUBLE_EQ(*ri, 1.0);
}

TEST(RpDbscanTest, AblationTogglesPreserveClustering) {
  const Dataset ds = synth::Blobs(3000, 4, 1.0, 28);
  auto base = RunRpDbscan(ds, Opts(1.0, 15));
  ASSERT_TRUE(base.ok());
  for (const int knob : {0, 1}) {
    RpDbscanOptions o = Opts(1.0, 15);
    if (knob == 0) o.reduce_edges = false;
    if (knob == 1) o.sequential_merge = true;
    auto r = RunRpDbscan(ds, o);
    ASSERT_TRUE(r.ok());
    auto ri = RandIndex(base->labels, r->labels);
    ASSERT_TRUE(ri.ok());
    EXPECT_DOUBLE_EQ(*ri, 1.0) << "knob " << knob;
  }
}

TEST(RpDbscanTest, EngineFollowsDimensionality) {
  // No option picks the Phase II engine: at d = 3 the lattice stencil fits
  // its cap and is walked, at d = 6 it does not and the kd-trees are
  // descended instead.
  const Dataset d3 = synth::Blobs(2000, 4, 1.0, 38, 3);
  auto r3 = RunRpDbscan(d3, Opts(1.5, 15));
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_GT(r3->stats.stencil_probes, 0u);
  EXPECT_EQ(r3->stats.subdict_visited, 0u);
  const Dataset d6 = synth::Blobs(2000, 4, 1.0, 39, 6);
  auto r6 = RunRpDbscan(d6, Opts(2.5, 15));
  ASSERT_TRUE(r6.ok()) << r6.status();
  EXPECT_EQ(r6->stats.stencil_probes, 0u);
  EXPECT_GT(r6->stats.subdict_visited, 0u);
}

TEST(RpDbscanTest, StatsArePopulated) {
  const Dataset ds = synth::Blobs(3000, 4, 1.0, 29);
  auto r = RunRpDbscan(ds, Opts(1.0, 15));
  ASSERT_TRUE(r.ok());
  const RunStats& s = r->stats;
  EXPECT_GT(s.num_cells, 0u);
  EXPECT_GE(s.num_subcells, s.num_cells);
  EXPECT_GT(s.dictionary_bytes, 0u);
  EXPECT_GT(s.num_core_cells, 0u);
  EXPECT_EQ(s.phase2_task_seconds.size(), 8u);
  EXPECT_GE(s.edges_per_round.size(), 2u);
  EXPECT_GT(s.total_seconds, 0.0);
  EXPECT_GE(s.total_seconds, s.phase2_seconds);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(RpDbscanTest, NoiseOnlyDataset) {
  // Sparse uniform points, high min_pts: everything is noise.
  Rng rng(30);
  Dataset ds(2);
  for (int i = 0; i < 500; ++i) {
    ds.Append({static_cast<float>(rng.UniformDouble(0, 100)),
               static_cast<float>(rng.UniformDouble(0, 100))});
  }
  auto r = RunRpDbscan(ds, Opts(0.5, 50));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.num_clusters, 0u);
  EXPECT_EQ(r->stats.num_noise_points, ds.size());
}

TEST(RpDbscanTest, SingleDenseClusterEverythingLabeled) {
  const Dataset ds = synth::Blobs(2000, 1, 0.5, 31);
  auto r = RunRpDbscan(ds, Opts(1.0, 10));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.num_clusters, 1u);
  EXPECT_LT(r->stats.num_noise_points, ds.size() / 100);
}

TEST(RpDbscanTest, BitwiseDeterministicAcrossRuns) {
  const Dataset ds = synth::Blobs(3000, 4, 1.0, 36);
  const RpDbscanOptions o = Opts(1.0, 15);
  auto a = RunRpDbscan(ds, o);
  auto b = RunRpDbscan(ds, o);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);  // exact, not just Rand index 1
  EXPECT_EQ(a->stats.edges_per_round, b->stats.edges_per_round);
  // The tournament's per-round edge series (Fig. 17) is pinned to the
  // values this input has always produced at 8 partitions, so a change in
  // how Phase II hands its graph to the merge cannot move it unnoticed.
  RpDbscanOptions tournament = o;
  tournament.sequential_merge = true;
  auto t = RunRpDbscan(ds, tournament);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->stats.edges_per_round,
            (std::vector<size_t>{2460, 2054, 1435, 334}));
  EXPECT_EQ(t->labels, a->labels);
}

TEST(RpDbscanTest, LabelsIndependentOfThreadCount) {
  // Thread count changes execution interleaving only; every phase is
  // deterministic, so labels must match bit for bit.
  const Dataset ds = synth::Blobs(3000, 4, 1.0, 37);
  RpDbscanOptions one = Opts(1.0, 15);
  one.num_threads = 1;
  RpDbscanOptions four = Opts(1.0, 15);
  four.num_threads = 4;
  auto a = RunRpDbscan(ds, one);
  auto b = RunRpDbscan(ds, four);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->stats.num_clusters, b->stats.num_clusters);
}

TEST(RpDbscanTest, SinglePointDataset) {
  Dataset ds(2);
  ds.Append({1, 1});
  auto lone = RunRpDbscan(ds, Opts(1.0, 2));
  ASSERT_TRUE(lone.ok());
  EXPECT_EQ(lone->labels[0], kNoise);
  auto self_cluster = RunRpDbscan(ds, Opts(1.0, 1));
  ASSERT_TRUE(self_cluster.ok());
  EXPECT_NE(self_cluster->labels[0], kNoise);
  EXPECT_EQ(self_cluster->stats.num_clusters, 1u);
}

TEST(RpDbscanTest, AllIdenticalPoints) {
  Dataset ds(3);
  for (int i = 0; i < 200; ++i) ds.Append({7, 7, 7});
  auto r = RunRpDbscan(ds, Opts(0.5, 50));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.num_clusters, 1u);
  EXPECT_EQ(r->stats.num_cells, 1u);
  EXPECT_EQ(r->stats.num_subcells, 1u);
  for (const int64_t l : r->labels) EXPECT_EQ(l, r->labels[0]);
  EXPECT_NE(r->labels[0], kNoise);
}

TEST(RpDbscanTest, NegativeCoordinatesWork) {
  Rng rng(33);
  Dataset ds(2);
  for (int i = 0; i < 2000; ++i) {
    ds.Append({static_cast<float>(-50 + 2 * rng.Normal()),
               static_cast<float>(-50 + 2 * rng.Normal())});
  }
  auto r = RunRpDbscan(ds, Opts(1.0, 10));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.num_clusters, 1u);
}

TEST(RpDbscanTest, MinPtsLargerThanDataset) {
  const Dataset ds = synth::Blobs(100, 1, 0.5, 34);
  auto r = RunRpDbscan(ds, Opts(1.0, 1000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.num_clusters, 0u);
  EXPECT_EQ(r->stats.num_noise_points, ds.size());
}

TEST(RpDbscanTest, BroadcastBytesAreTheDictionaryWireSize) {
  const Dataset ds = synth::Blobs(1000, 2, 1.0, 35);
  RpDbscanOptions o = Opts(1.0, 10);
  o.capture_model = true;
  auto r = RunRpDbscan(ds, o);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r->model, nullptr);
  EXPECT_EQ(r->stats.broadcast_bytes, r->model->dictionary.Serialize().size());
  // Wire size stays within a few percent of the Lemma 4.3 accounting.
  EXPECT_LT(r->stats.broadcast_bytes, r->stats.dictionary_bytes * 115 / 100);
}

TEST(RpDbscanTest, HighDimensionalData) {
  const Dataset ds = synth::TeraLike(2000, 32);
  auto r = RunRpDbscan(ds, Opts(20.0, 10));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.num_clusters, 0u);
}

}  // namespace
}  // namespace rpdbscan
