// Concurrency contract of the serving layer (run under TSan by
// tools/run_checks.sh): one immutable snapshot shared by any number of
// threads, batched classification deterministic and identical to the
// serial path regardless of thread count.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
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

struct Frozen {
  Dataset data{2};
  Labels labels;
  std::shared_ptr<const ClusterModelSnapshot> snapshot;
};

Frozen Freeze(uint64_t seed) {
  Frozen f;
  f.data = synth::Blobs(4000, 5, 1.5, seed, 3);
  RpDbscanOptions o;
  o.eps = 2.0;
  o.min_pts = 20;
  o.num_threads = 2;
  o.num_partitions = 4;
  o.capture_model = true;
  auto run = RunRpDbscan(f.data, o);
  EXPECT_TRUE(run.ok()) << run.status();
  f.labels = run->labels;
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  EXPECT_TRUE(snap.ok()) << snap.status();
  f.snapshot =
      std::make_shared<const ClusterModelSnapshot>(std::move(*snap));
  return f;
}

bool SameResult(const ServeResult& a, const ServeResult& b) {
  return a.cluster == b.cluster && a.kind == b.kind &&
         a.certainty == b.certainty && a.density == b.density;
}

TEST(ServeConcurrentTest, BatchMatchesSerialAcrossThreadCounts) {
  const uint64_t seed = TestSeed(6600);
  SCOPED_TRACE(SeedNote(seed));
  const Frozen f = Freeze(seed);
  const LabelServer server(f.snapshot);

  std::vector<ServeResult> serial(f.data.size());
  ServeStats serial_stats;
  for (size_t i = 0; i < f.data.size(); ++i) {
    serial[i] = server.Classify(f.data.point(i), &serial_stats);
    ASSERT_EQ(serial[i].cluster, f.labels[i]) << "point " << i;
  }

  uint64_t grouped_probes = 0;
  bool have_grouped = false;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::vector<ServeResult> batch;
    ServeStats stats;
    const Status s = server.ClassifyBatch(f.data, pool, &batch, &stats);
    ASSERT_TRUE(s.ok()) << s;
    ASSERT_EQ(batch.size(), serial.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(SameResult(batch[i], serial[i])) << "point " << i;
    }
    // Merged semantic counters are sums of per-point integers:
    // thread-count independent and equal to the serial path's.
    EXPECT_EQ(stats.queries, serial_stats.queries);
    EXPECT_EQ(stats.cell_hits, serial_stats.cell_hits);
    EXPECT_EQ(stats.exact, serial_stats.exact);
    EXPECT_EQ(stats.core, serial_stats.core);
    EXPECT_EQ(stats.border, serial_stats.border);
    EXPECT_EQ(stats.noise, serial_stats.noise);
    EXPECT_EQ(stats.border_ref_scans, serial_stats.border_ref_scans);
    // stencil_probes counts one neighborhood walk per home-cell group;
    // grouping is by home-cell slot, never by thread, so it must not
    // depend on the thread count.
    EXPECT_GT(stats.stencil_probes, 0u);
    if (!have_grouped) {
      grouped_probes = stats.stencil_probes;
      have_grouped = true;
    } else {
      EXPECT_EQ(stats.stencil_probes, grouped_probes);
    }
  }
  // Classify is a group of one: each serial query walks its home cell's
  // neighborhood, which the batch walks once per cell for every query
  // of the cell.
  EXPECT_GT(serial_stats.stencil_probes, grouped_probes);
}

TEST(ServeConcurrentTest, ManyClientsShareOneServerWaitFree) {
  // Several client threads, each running its own batches against the same
  // LabelServer (and one more hammering single-point Classify): the whole
  // read path must be free of data races — this is the test TSan watches.
  const uint64_t seed = TestSeed(6700);
  SCOPED_TRACE(SeedNote(seed));
  const Frozen f = Freeze(seed);
  const LabelServer server(f.snapshot);

  std::vector<ServeResult> expected(f.data.size());
  for (size_t i = 0; i < f.data.size(); ++i) {
    expected[i] = server.Classify(f.data.point(i));
  }

  constexpr size_t kClients = 3;
  std::vector<std::vector<ServeResult>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients + 1);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ThreadPool pool(2);
      const Status s = server.ClassifyBatch(f.data, pool, &got[c]);
      EXPECT_TRUE(s.ok()) << s;
    });
  }
  clients.emplace_back([&] {
    for (size_t i = 0; i < f.data.size(); i += 17) {
      const ServeResult r = server.Classify(f.data.point(i));
      EXPECT_TRUE(SameResult(r, expected[i])) << "point " << i;
    }
  });
  for (std::thread& t : clients) t.join();

  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(SameResult(got[c][i], expected[i]))
          << "client " << c << " point " << i;
    }
  }
}

}  // namespace
}  // namespace rpdbscan
