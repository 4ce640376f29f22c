#include "serve/label_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rp_dbscan.h"
#include "hierarchy/eps_ladder.h"
#include "serve/snapshot.h"
#include "synth/generators.h"
#include "test_seed.h"
#include "util/random.h"

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
    // Each query is a group of one: on a stencil snapshot it walks its
    // home cell's neighborhood (the cell itself at least), on a
    // stencil-less one it descends the kd-trees and walks none.
    if (stencil) {
      EXPECT_GE(stats.stencil_probes, ds.size());
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
  // Stencil and kd candidate lists alike: both must reject the same
  // batches.
  for (const bool stencil : {true, false}) {
    SCOPED_TRACE(stencil ? "stencil snapshot" : "stencil-less snapshot");
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
  // each query is a home-cell miss whose candidates come from a kd
  // descent, which must find nothing rather than reach a cell across a
  // wrapped edge.
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

/// What a query's answer must be, by brute force over every sub-cell of
/// the dictionary: the density of the centers within query_eps, whether
/// the home cell exists and is labeled, and the cluster of the labeled
/// cell with the least (box min², cell id) among the cells with a matched
/// sub-cell (kNoise when there is none).
struct OracleAnswer {
  uint64_t density = 0;
  bool home_hit = false;
  bool home_labeled = false;
  int64_t best_cluster = kNoise;
};

OracleAnswer BruteForce(const ClusterModelSnapshot& snap, const float* q) {
  const CellDictionary& dict = snap.dictionary();
  const GridGeometry& geom = dict.geom();
  const size_t dim = geom.dim();
  const double eps2 = snap.meta().query_eps * snap.meta().query_eps;
  const std::vector<uint32_t>& cell_cluster = snap.cell_cluster();
  const CellCoord home = geom.CellOf(q);
  OracleAnswer a;
  double best_min2 = 0.0;
  uint32_t best_cell = 0;
  bool found = false;
  for (const SubDictionary& sd : dict.subdictionaries()) {
    for (uint32_t c = 0; c < sd.num_cells(); ++c) {
      const DictCell& cell = sd.cells()[c];
      const bool labeled = cell_cluster[cell.cell_id] != kNoCluster;
      if (cell.coord == home) {
        a.home_hit = true;
        a.home_labeled = labeled;
      }
      const float* lanes = sd.lane_centers(c);
      const uint32_t padded = sd.lane_padded(c);
      uint64_t matched = 0;
      for (uint32_t s = 0; s < cell.subcell_end - cell.subcell_begin; ++s) {
        float center[CellCoord::kMaxDim];
        for (size_t d = 0; d < dim; ++d) center[d] = lanes[d * padded + s];
        if (DistanceSquared(q, center, dim) <= eps2) {
          matched += sd.lane_counts(c)[s];
        }
      }
      a.density += matched;
      if (matched == 0 || !labeled) continue;
      const double min2 = geom.CellMinDist2(cell.coord, q);
      if (!found || min2 < best_min2 ||
          (min2 == best_min2 && cell.cell_id < best_cell)) {
        best_min2 = min2;
        best_cell = cell.cell_id;
        found = true;
      }
    }
  }
  if (found) a.best_cluster = static_cast<int64_t>(cell_cluster[best_cell]);
  return a;
}

/// Training points, a second query in each one's cell (halfway to the
/// cell's center under `geom`, so the two share a home-cell group),
/// near-misses jittered by up to eps per coordinate, and queries uniform
/// in the data's bounding box widened by 4 eps per side: home-cell hits,
/// misses beside the data, and misses far from it.
Dataset OracleQueries(const Dataset& ds, const GridGeometry& geom, double eps,
                      uint64_t seed) {
  Rng rng(seed);
  std::vector<float> lo(ds.point(0), ds.point(0) + ds.dim());
  std::vector<float> hi = lo;
  for (size_t i = 0; i < ds.size(); ++i) {
    for (size_t d = 0; d < ds.dim(); ++d) {
      lo[d] = std::min(lo[d], ds.point(i)[d]);
      hi[d] = std::max(hi[d], ds.point(i)[d]);
    }
  }
  Dataset q(ds.dim());
  std::vector<float> p(ds.dim());
  for (size_t i = 0; i < ds.size(); i += 9) {
    q.Append(ds.point(i));
    const CellCoord home = geom.CellOf(ds.point(i));
    for (size_t d = 0; d < ds.dim(); ++d) {
      const double center =
          geom.CellOrigin(home, d) + 0.5 * geom.cell_side();
      p[d] = static_cast<float>(0.5 * (ds.point(i)[d] + center));
    }
    q.Append(p.data());
    for (size_t d = 0; d < ds.dim(); ++d) {
      p[d] = ds.point(i)[d] +
             static_cast<float>(rng.UniformDouble(-eps, eps));
    }
    q.Append(p.data());
    for (size_t d = 0; d < ds.dim(); ++d) {
      p[d] = static_cast<float>(
          rng.UniformDouble(lo[d] - 4 * eps, hi[d] + 4 * eps));
    }
    q.Append(p.data());
  }
  return q;
}

/// Serves `queries` one by one and as a batch at 1 and 4 threads, with
/// and without the border replay, and checks every answer against
/// BruteForce: the density always, and the cluster of every kApprox
/// answer that no border walk produced. The queries must hold home-cell
/// misses, hits, and hits that share a home cell with another query.
void ExpectOracleAnswers(std::shared_ptr<const ClusterModelSnapshot> snap,
                         const Dataset& queries) {
  const CellDictionary& dict = snap->dictionary();
  std::vector<OracleAnswer> want(queries.size());
  std::vector<size_t> per_home(dict.num_cells(), 0);
  size_t misses = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    want[i] = BruteForce(*snap, queries.point(i));
    misses += want[i].home_hit ? 0 : 1;
    const int64_t home =
        dict.FindCellRefIndex(dict.geom().CellOf(queries.point(i)));
    if (home >= 0) ++per_home[static_cast<size_t>(home)];
  }
  EXPECT_GT(misses, 0u);
  EXPECT_LT(misses, queries.size());
  EXPECT_GT(*std::max_element(per_home.begin(), per_home.end()), 1u);
  for (const bool exact_border : {true, false}) {
    SCOPED_TRACE(exact_border ? "border replay" : "approx border");
    LabelServerOptions opts;
    opts.exact_border = exact_border;
    const LabelServer server(snap, opts);
    std::vector<ServeResult> serial(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      serial[i] = server.Classify(queries.point(i));
    }
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      std::vector<ServeResult> batch;
      ASSERT_TRUE(server.ClassifyBatch(queries, pool, &batch).ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        const OracleAnswer& a = want[i];
        const bool replayed = a.home_hit && !a.home_labeled &&
                              exact_border && snap->has_border_refs();
        for (const ServeResult& r : {serial[i], batch[i]}) {
          ASSERT_EQ(r.density, a.density) << "query " << i;
          if (!a.home_hit) {
            ASSERT_EQ(r.certainty, Certainty::kApprox) << "query " << i;
          }
          if (r.certainty == Certainty::kApprox && !replayed) {
            ASSERT_EQ(r.cluster, a.best_cluster) << "query " << i;
          }
        }
      }
    }
  }
}

/// Trains on `ds` and checks ExpectOracleAnswers on its snapshot, loaded
/// with and without a stencil (only without at d >= 6, which has none).
void ExpectOracleOnRun(const Dataset& ds, double eps, size_t min_pts,
                       uint64_t seed) {
  auto run = RunRpDbscan(ds, Opts(eps, min_pts));
  ASSERT_TRUE(run.ok()) << run.status();
  // A model with clusters, so the nearest-labeled-cell answers are tested.
  EXPECT_GT(run->stats.num_clusters, 0u);
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  ASSERT_TRUE(snap.ok()) << snap.status();
  const bool has_stencil = snap->dictionary().has_stencil();
  const std::vector<uint8_t> bytes = snap->Serialize();
  const Dataset queries =
      OracleQueries(ds, snap->dictionary().geom(), eps, seed);
  for (const bool stencil : {true, false}) {
    if (stencil && !has_stencil) continue;
    SCOPED_TRACE(stencil ? "stencil snapshot" : "stencil-less snapshot");
    ExpectOracleAnswers(Load(bytes, stencil), queries);
  }
}

TEST(ServeTest, AnswersMatchBruteForceOracle) {
  uint64_t seed = TestSeed(6900);
  SCOPED_TRACE(SeedNote(seed));
  for (const size_t dim : {2, 3, 4, 5, 6, 8}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    // At d >= 6 the grid has no stencil: every group's candidates come
    // from one kd descent over its bounding box.
    const double eps =
        dim <= 5 ? 2.5 : 2.0 * std::sqrt(static_cast<double>(dim));
    ++seed;
    ExpectOracleOnRun(synth::Blobs(1200, 4, 2.0, seed, dim), eps, 20, seed);
  }
  SCOPED_TRACE("13-d TeraLike");
  ++seed;
  ExpectOracleOnRun(synth::TeraLike(2000, seed), 40.0, 20, seed);
}

TEST(ServeTest, LadderSnapshotAnswersMatchBruteForceOracle) {
  // A rung above the ladder's first serves at query_eps 1.5 over the grid
  // of eps 1.0: the oracle counts every center within 1.5.
  const uint64_t seed = TestSeed(7000);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset ds = synth::Blobs(1500, 4, 1.0, seed, 3);
  HierarchyOptions ho;
  ho.eps_levels = {1.0, 1.5};
  ho.min_pts_levels = {15};
  ho.num_threads = 2;
  ho.num_partitions = 4;
  ho.capture_models = true;
  auto h = BuildClusterHierarchy(ds, ho);
  ASSERT_TRUE(h.ok()) << h.status();
  auto snap = ClusterModelSnapshot::FromModel(std::move(*h->levels[1].model));
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_GT(snap->meta().query_eps, snap->meta().eps);
  const std::vector<uint8_t> bytes = snap->Serialize();
  const Dataset queries =
      OracleQueries(ds, snap->dictionary().geom(), 1.5, seed);
  for (const bool stencil : {true, false}) {
    SCOPED_TRACE(stencil ? "stencil snapshot" : "stencil-less snapshot");
    ExpectOracleAnswers(Load(bytes, stencil), queries);
  }
}

}  // namespace
}  // namespace rpdbscan
