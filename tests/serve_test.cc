#include "serve/label_server.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rp_dbscan.h"
#include "serve/snapshot.h"
#include "synth/generators.h"
#include "test_seed.h"

namespace rpdbscan {
namespace {

RpDbscanOptions Opts(double eps, size_t min_pts) {
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = min_pts;
  o.num_threads = 2;
  o.num_partitions = 4;
  o.capture_model = true;
  return o;
}

std::shared_ptr<const ClusterModelSnapshot> Load(
    const std::vector<uint8_t>& bytes, bool stencil) {
  SnapshotOptions sopts;
  if (!stencil) sopts.dict_opts.max_stencil_offsets = 0;
  auto loaded = ClusterModelSnapshot::Deserialize(bytes, sopts);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dictionary().has_stencil(), stencil);
  return std::make_shared<const ClusterModelSnapshot>(std::move(*loaded));
}

/// The round-trip contract of the serving layer: freezing a run and
/// serving every training point back reproduces RunRpDbscan's labels
/// bit-identically, with kExact certainty and the training core verdict,
/// on both candidate engines.
void ExpectTrainingReplay(const Dataset& ds, const RpDbscanOptions& opts) {
  auto run = RunRpDbscan(ds, opts);
  ASSERT_TRUE(run.ok()) << run.status();
  const Labels labels = run->labels;
  const std::vector<uint8_t> point_is_core = run->model->point_is_core;
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  ASSERT_TRUE(snap.ok()) << snap.status();
  const std::vector<uint8_t> bytes = snap->Serialize();

  for (const bool stencil : {true, false}) {
    SCOPED_TRACE(stencil ? "stencil engine" : "tree fallback engine");
    const LabelServer server(Load(bytes, stencil));
    ServeStats stats;
    for (size_t i = 0; i < ds.size(); ++i) {
      const ServeResult r = server.Classify(ds.point(i), &stats);
      ASSERT_EQ(r.cluster, labels[i]) << "point " << i;
      ASSERT_EQ(r.certainty, Certainty::kExact) << "point " << i;
      // Density is the run's own core criterion, so the core verdict
      // replays Phase II's per-point flag exactly.
      ASSERT_EQ(r.kind == PointKind::kCore, point_is_core[i] != 0)
          << "point " << i << " density " << r.density;
      if (r.kind == PointKind::kNoise) {
        ASSERT_EQ(labels[i], kNoise) << "point " << i;
      }
    }
    EXPECT_EQ(stats.queries, ds.size());
    EXPECT_EQ(stats.exact, ds.size());
    EXPECT_EQ(stats.cell_hits, ds.size());
    if (stencil) {
      EXPECT_GT(stats.stencil_probes, 0u);
      EXPECT_GT(stats.stencil_hits, 0u);
    } else {
      EXPECT_EQ(stats.stencil_probes, 0u);
    }
  }
}

TEST(ServeTest, TrainingPointsReplayAcrossDims) {
  uint64_t seed = TestSeed(6100);
  SCOPED_TRACE(SeedNote(seed));
  for (size_t dim = 2; dim <= 5; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const Dataset ds = synth::Blobs(1500, 4, 2.0, ++seed, dim);
    ExpectTrainingReplay(ds, Opts(2.5, 20));
  }
}

TEST(ServeTest, TrainingPointsReplayOnSkewedData) {
  const uint64_t seed = TestSeed(6200);
  SCOPED_TRACE(SeedNote(seed));
  ExpectTrainingReplay(synth::GeoLifeLike(3000, seed), Opts(2.0, 20));
}

TEST(ServeTest, TrainingPointsReplayNearMinPtsBoundary) {
  // min_pts near typical cell densities maximizes border/noise points —
  // the cases the predecessor replay exists for.
  const uint64_t seed = TestSeed(6300);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset ds = synth::Blobs(900, 6, 1.2, seed, 3);
  ExpectTrainingReplay(ds, Opts(1.5, 35));
}

TEST(ServeTest, OutOfSampleQueriesResolveSanely) {
  const uint64_t seed = TestSeed(6400);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset ds = synth::Blobs(2000, 4, 2.0, seed, 2);
  auto run = RunRpDbscan(ds, Opts(2.5, 20));
  ASSERT_TRUE(run.ok()) << run.status();
  const size_t num_clusters = run->stats.num_clusters;
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  ASSERT_TRUE(snap.ok()) << snap.status();
  const LabelServer server(
      std::make_shared<const ClusterModelSnapshot>(std::move(*snap)));

  size_t far_noise = 0;
  for (size_t i = 0; i < ds.size(); i += 7) {
    // Slightly jittered copies: still near the data, any verdict valid.
    float q[2] = {ds.point(i)[0] + 0.01f, ds.point(i)[1] - 0.02f};
    const ServeResult near = server.Classify(q);
    if (near.cluster != kNoise) {
      ASSERT_LT(near.cluster, static_cast<int64_t>(num_clusters));
    }
    // Far translation: provably outside every cell — noise, approximate.
    float far[2] = {ds.point(i)[0] + 1e6f, ds.point(i)[1] + 1e6f};
    const ServeResult r = server.Classify(far);
    EXPECT_EQ(r.cluster, kNoise);
    EXPECT_EQ(r.kind, PointKind::kNoise);
    EXPECT_EQ(r.density, 0u);
    ++far_noise;
  }
  EXPECT_GT(far_noise, 0u);
}

TEST(ServeTest, ExactCertaintyImpliesTrainingLabelEvenWithoutRefs) {
  // Without border references the non-core-cell replay is unavailable:
  // those queries degrade to kApprox, but everything still served kExact
  // must carry its training label.
  const uint64_t seed = TestSeed(6500);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset ds = synth::Blobs(1200, 5, 1.2, seed, 3);
  auto run = RunRpDbscan(ds, Opts(1.5, 30));
  ASSERT_TRUE(run.ok()) << run.status();
  const Labels labels = run->labels;
  SnapshotOptions sopts;
  sopts.include_border_refs = false;
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model), sopts);
  ASSERT_TRUE(snap.ok()) << snap.status();
  const LabelServer server(
      std::make_shared<const ClusterModelSnapshot>(std::move(*snap)));

  size_t approx = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    const ServeResult r = server.Classify(ds.point(i));
    if (r.certainty == Certainty::kExact) {
      ASSERT_EQ(r.cluster, labels[i]) << "point " << i;
    } else {
      ++approx;
      // Approximate answers still honor the sandwich: a labeled cell
      // within eps exists, or the query is noise.
      if (r.cluster == kNoise) {
        EXPECT_EQ(labels[i], kNoise) << "point " << i;
      }
    }
  }
  // Core-cell points (the overwhelming majority here) stay exact.
  EXPECT_LT(approx, ds.size() / 2);
}

TEST(ServeTest, BatchRejectsQueriesItCannotServe) {
  const Dataset ds = synth::Blobs(600, 2, 1.0, 41);
  auto run = RunRpDbscan(ds, Opts(1.0, 10));
  ASSERT_TRUE(run.ok()) << run.status();
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  ASSERT_TRUE(snap.ok()) << snap.status();
  const std::vector<uint8_t> bytes = snap->Serialize();
  ThreadPool pool(2);
  std::vector<ServeResult> results;
  // A stencil snapshot runs the grouped batch loop, a stencil-less one
  // the per-query loop; both must reject the same batches.
  for (const bool stencil : {true, false}) {
    SCOPED_TRACE(stencil ? "grouped loop" : "per-query loop");
    const LabelServer server(Load(bytes, stencil));
    const Dataset wrong = synth::Blobs(10, 1, 1.0, 42, /*dim=*/3);
    const Status s = server.ClassifyBatch(wrong, pool, &results);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

    // Binning NaN, +-Inf or a coordinate beyond the int32 cell lattice is
    // undefined behaviour, so the batch is refused up front, naming the
    // offending query and dimension.
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 1e30f}) {
      SCOPED_TRACE("bad coordinate " + std::to_string(bad));
      Dataset queries(2);
      for (size_t i = 0; i < 4; ++i) {
        queries.Append({ds.point(i)[0], ds.point(i)[1]});
      }
      queries.Append({ds.point(4)[0], bad});
      const Status q = server.ClassifyBatch(queries, pool, &results);
      EXPECT_EQ(q.code(), StatusCode::kInvalidArgument) << q;
      EXPECT_NE(q.message().find("point 4 dimension 1"), std::string::npos)
          << q;
    }
  }
}

TEST(ServeTest, QueriesAtTheLatticeEdgeDoNotWrap) {
  // eps 4.656612875e-10 in 1-d puts 1.0 and -1.0 on the int32 lattice
  // extremes, INT32_MAX and INT32_MIN. Neither cell is in the model, so
  // each query walks its stencil offsets, and those past the edge must
  // find nothing rather than overflow or wrap onto the other extreme.
  constexpr double kEps = 4.656612875e-10;
  Dataset train(1);
  for (int i = 0; i < 3; ++i) train.Append({0.5f});
  auto run = RunRpDbscan(train, Opts(kEps, 2));
  ASSERT_TRUE(run.ok()) << run.status();
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  ASSERT_TRUE(snap.ok()) << snap.status();
  const LabelServer server(
      std::make_shared<const ClusterModelSnapshot>(std::move(*snap)));
  ASSERT_TRUE(server.snapshot().dictionary().has_stencil());
  Dataset queries(1);
  queries.Append({1.0f});
  queries.Append({-1.0f});
  queries.Append({0.5f});
  const GridGeometry& geom = server.snapshot().dictionary().geom();
  EXPECT_EQ(geom.CellOf(queries.point(0))[0],
            std::numeric_limits<int32_t>::max());
  EXPECT_EQ(geom.CellOf(queries.point(1))[0],
            std::numeric_limits<int32_t>::min());
  ThreadPool pool(2);
  std::vector<ServeResult> results;
  ASSERT_TRUE(server.ClassifyBatch(queries, pool, &results).ok());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].kind, PointKind::kNoise);
  EXPECT_EQ(results[0].cluster, kNoise);
  EXPECT_EQ(results[1].kind, PointKind::kNoise);
  EXPECT_EQ(results[1].cluster, kNoise);
  EXPECT_EQ(results[2].kind, PointKind::kCore);
  EXPECT_NE(results[2].cluster, kNoise);
}

}  // namespace
}  // namespace rpdbscan
