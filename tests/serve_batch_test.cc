// The bit-identity contract of batched classification: ClassifyBatch —
// whichever candidate list a group walks (a stencil neighborhood or a kd
// descent over its bounding box), at any thread count and batch size —
// returns exactly what serial Classify (a group of one) returns, query by
// query.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rp_dbscan.h"
#include "parallel/thread_pool.h"
#include "serve/label_server.h"
#include "serve/snapshot.h"
#include "synth/generators.h"
#include "test_seed.h"

namespace rpdbscan {
namespace {

std::shared_ptr<const ClusterModelSnapshot> Load(
    const std::vector<uint8_t>& bytes, bool stencil) {
  SnapshotOptions sopts;
  if (!stencil) sopts.dict_opts.max_stencil_offsets = 0;
  auto loaded = ClusterModelSnapshot::Deserialize(bytes, sopts);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dictionary().has_stencil(), stencil);
  return std::make_shared<const ClusterModelSnapshot>(std::move(*loaded));
}

struct Trained {
  Dataset data{3};
  std::vector<uint8_t> snapshot_bytes;
};

Trained Train(Dataset data, double eps, size_t min_pts) {
  Trained t;
  t.data = std::move(data);
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = min_pts;
  o.num_threads = 2;
  o.num_partitions = 4;
  o.capture_model = true;
  auto run = RunRpDbscan(t.data, o);
  EXPECT_TRUE(run.ok()) << run.status();
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  EXPECT_TRUE(snap.ok()) << snap.status();
  t.snapshot_bytes = snap->Serialize();
  return t;
}

Trained Train(uint64_t seed) {
  return Train(synth::Blobs(1200, 4, 1.5, seed, 3), 2.0, 15);
}

/// A query mix exercising every serving branch: training points (all home
/// hits), jittered near-misses (some hit, some miss), and far outliers
/// (guaranteed home-cell misses, i.e. singleton groups whose candidates
/// come from a kd descent).
Dataset MixedQueries(const Dataset& training, size_t count) {
  Dataset q(training.dim());
  for (size_t i = 0; i < count && i < training.size(); ++i) {
    if (i % 3 == 0) {
      q.Append(training.point(i));
    } else if (i % 3 == 1) {
      std::vector<float> p(training.point(i),
                           training.point(i) + training.dim());
      for (float& v : p) v += 0.37f;
      q.Append(p.data());
    } else {
      std::vector<float> p(training.point(i),
                           training.point(i) + training.dim());
      for (size_t d = 0; d < p.size(); ++d) {
        p[d] += 500.0f + static_cast<float>(i % 7) * 31.0f +
                static_cast<float>(d) * 11.0f;
      }
      q.Append(p.data());
    }
  }
  return q;
}

Dataset Slice(const Dataset& q, size_t begin, size_t count) {
  Dataset out(q.dim());
  for (size_t i = begin; i < begin + count && i < q.size(); ++i) {
    out.Append(q.point(i));
  }
  return out;
}

void ExpectSame(const ServeResult& got, const ServeResult& want,
                const std::string& what) {
  ASSERT_EQ(got.cluster, want.cluster) << what;
  ASSERT_EQ(got.kind, want.kind) << what;
  ASSERT_EQ(got.certainty, want.certainty) << what;
  ASSERT_EQ(got.density, want.density) << what;
}

TEST(ServeBatchTest, BatchBitIdenticalToSerialEverywhere) {
  const uint64_t seed = TestSeed(6800);
  SCOPED_TRACE(SeedNote(seed));
  // A 3-d model loaded with and without its stencil, and a 13-d one,
  // which has none: groups walk stencil neighborhoods or kd lists.
  struct Case {
    const char* name;
    const Trained& trained;
    bool stencil;
  };
  const Trained low = Train(seed);
  const Trained high = Train(synth::TeraLike(1500, seed), 40.0, 20);
  const Case cases[] = {{"3-d stencil", low, true},
                        {"3-d stencil-less", low, false},
                        {"13-d", high, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Trained& t = c.trained;
    const Dataset queries = MixedQueries(t.data, 300);
    const LabelServer server(Load(t.snapshot_bytes, c.stencil));

    std::vector<ServeResult> serial(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      serial[i] = server.Classify(queries.point(i));
    }

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      // Batch sizes cover the edges: empty, single, odd sizes that leave
      // lane remainders and partial groups, and the full set.
      for (const size_t batch :
           {size_t{0}, size_t{1}, size_t{3}, size_t{17}, queries.size()}) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        const Dataset sub = Slice(queries, 0, batch);
        std::vector<ServeResult> got;
        const Status s = server.ClassifyBatch(sub, pool, &got);
        ASSERT_TRUE(s.ok()) << s;
        ASSERT_EQ(got.size(), sub.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ExpectSame(got[i], serial[i], "query " + std::to_string(i));
        }
      }
    }
  }
}

TEST(ServeBatchTest, BatchLatencySamplesOnePerQuery) {
  const uint64_t seed = TestSeed(7100);
  SCOPED_TRACE(SeedNote(seed));
  const Trained t = Train(seed);
  const Dataset queries = MixedQueries(t.data, 150);
  const LabelServer server(Load(t.snapshot_bytes, /*stencil=*/true));
  ThreadPool pool(2);

  std::vector<ServeResult> out;
  LatencyReservoir latency;
  ASSERT_TRUE(
      server.ClassifyBatch(queries, pool, &out, nullptr, &latency).ok());
  EXPECT_EQ(latency.seen(), queries.size());
  const LatencySummary s = latency.Summarize();
  EXPECT_EQ(s.samples, queries.size());
  EXPECT_GT(s.max_us, 0.0);
  EXPECT_LE(s.p50_us, s.p99_us);
  EXPECT_LE(s.p99_us, s.p999_us);
  EXPECT_LE(s.p999_us, s.max_us);
}

TEST(ServeBatchTest, DimensionMismatchRejected) {
  const uint64_t seed = TestSeed(7200);
  SCOPED_TRACE(SeedNote(seed));
  const Trained t = Train(seed);
  const LabelServer server(Load(t.snapshot_bytes, /*stencil=*/true));
  ThreadPool pool(2);
  const Dataset wrong = synth::Blobs(10, 2, 1.0, seed, 2);
  std::vector<ServeResult> out;
  EXPECT_FALSE(server.ClassifyBatch(wrong, pool, &out).ok());
}

}  // namespace
}  // namespace rpdbscan
