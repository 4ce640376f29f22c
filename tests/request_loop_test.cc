// The serving request loop and its framing: round-trips over real fds
// (pipes and socketpairs), truncation and corruption rejection, and a
// full client/server exchange whose results must match a local
// ClassifyBatch bit-for-bit. Runs in the TSan leg of tools/run_checks.sh
// (label sanitizer-safe): the loop's reader thread, admission queue and
// classification pool are all exercised concurrently here.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rp_dbscan.h"
#include "io/framing.h"
#include "parallel/thread_pool.h"
#include "serve/label_server.h"
#include "serve/request_loop.h"
#include "serve/snapshot.h"
#include "synth/generators.h"
#include "test_seed.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace {

constexpr uint32_t kTestMagic = 0x54455354;  // "TEST"

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
  void CloseWrite() {
    ::close(write_fd);
    write_fd = -1;
  }
};

TEST(FramingTest, RoundTripOverPipe) {
  Pipe p;
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(
      WriteFrame(p.write_fd, kTestMagic, 42, payload.data(), payload.size())
          .ok());
  ASSERT_TRUE(WriteFrame(p.write_fd, kTestMagic, 7, nullptr, 0).ok());
  p.CloseWrite();

  Frame f;
  ASSERT_TRUE(ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test").ok());
  EXPECT_EQ(f.type, 42u);
  EXPECT_EQ(f.payload, payload);
  ASSERT_TRUE(ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test").ok());
  EXPECT_EQ(f.type, 7u);
  EXPECT_TRUE(f.payload.empty());
  // Clean EOF between frames is NotFound, the loop's normal exit.
  const Status s = ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test");
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s;
}

TEST(FramingTest, RoutedFramesInterleaveWithClassic) {
  Pipe p;
  const std::vector<uint8_t> payload = {10, 20, 30};
  ASSERT_TRUE(WriteRoutedFrame(p.write_fd, kTestMagic, 5, /*model_id=*/42,
                               payload.data(), payload.size())
                  .ok());
  ASSERT_TRUE(
      WriteFrame(p.write_fd, kTestMagic, 6, payload.data(), payload.size())
          .ok());
  ASSERT_TRUE(
      WriteRoutedFrame(p.write_fd, kTestMagic, 7, /*model_id=*/0, nullptr, 0)
          .ok());
  p.CloseWrite();

  Frame f;
  ASSERT_TRUE(ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test").ok());
  EXPECT_TRUE(f.routed);
  EXPECT_EQ(f.type, 5u);
  EXPECT_EQ(f.model_id, 42u);
  EXPECT_EQ(f.payload, payload);
  ASSERT_TRUE(ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test").ok());
  EXPECT_FALSE(f.routed);  // a v1 frame resets the routing fields
  EXPECT_EQ(f.type, 6u);
  EXPECT_EQ(f.model_id, 0u);
  ASSERT_TRUE(ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test").ok());
  EXPECT_TRUE(f.routed);
  EXPECT_EQ(f.model_id, 0u);
  EXPECT_TRUE(f.payload.empty());
}

TEST(FramingTest, RoutedReservedFieldMustBeZero) {
  // Hand-build a routed header with a poisoned reserved word.
  Pipe p;
  std::vector<uint8_t> header(24, 0);
  const uint32_t magic = kTestMagic | kFrameRouted;
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(magic >> (8 * i));
  }
  header[4] = 1;   // type
  header[20] = 9;  // reserved != 0
  ASSERT_EQ(::write(p.write_fd, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  p.CloseWrite();
  Frame f;
  const Status s = ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test");
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s;
}

TEST(FramingTest, TruncationAndBadHeaderAreIOErrors) {
  {
    // Header cut mid-way.
    Pipe p;
    const uint8_t partial[7] = {0};
    ASSERT_EQ(::write(p.write_fd, partial, sizeof(partial)),
              static_cast<ssize_t>(sizeof(partial)));
    p.CloseWrite();
    Frame f;
    const Status s = ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test");
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s;
  }
  {
    // Payload shorter than the header's declared length.
    Pipe p;
    const std::vector<uint8_t> payload(100, 9);
    ASSERT_TRUE(
        WriteFrame(p.write_fd, kTestMagic, 1, payload.data(), payload.size())
            .ok());
    // Reopen the stream truncated: copy all but the last 10 bytes.
    Pipe q;
    std::vector<uint8_t> wire(16 + payload.size());
    ASSERT_EQ(::read(p.read_fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    ASSERT_EQ(::write(q.write_fd, wire.data(), wire.size() - 10),
              static_cast<ssize_t>(wire.size() - 10));
    q.CloseWrite();
    Frame f;
    const Status s = ReadFrame(q.read_fd, kTestMagic, 1 << 20, &f, "test");
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s;
  }
  {
    // Wrong magic.
    Pipe p;
    ASSERT_TRUE(WriteFrame(p.write_fd, kTestMagic + 1, 1, nullptr, 0).ok());
    p.CloseWrite();
    Frame f;
    const Status s = ReadFrame(p.read_fd, kTestMagic, 1 << 20, &f, "test");
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s;
  }
  {
    // Declared length above the cap is refused before allocation.
    Pipe p;
    const std::vector<uint8_t> payload(64, 1);
    ASSERT_TRUE(
        WriteFrame(p.write_fd, kTestMagic, 1, payload.data(), payload.size())
            .ok());
    p.CloseWrite();
    Frame f;
    const Status s = ReadFrame(p.read_fd, kTestMagic, /*max_payload=*/16, &f,
                               "test");
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s;
  }
}

TEST(RequestLoopTest, RequestCodecRoundTripAndCorruption) {
  const uint64_t seed = TestSeed(7300);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset queries = synth::Blobs(50, 3, 1.0, seed, 3);
  std::vector<uint8_t> payload = EncodeClassifyRequest(queries);

  auto decoded = DecodeClassifyRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), queries.size());
  ASSERT_EQ(decoded->dim(), queries.dim());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t d = 0; d < queries.dim(); ++d) {
      ASSERT_EQ(decoded->point(i)[d], queries.point(i)[d]);
    }
  }

  // One flipped payload byte must fail the container checksum.
  payload[payload.size() - 1] ^= 0x40;
  auto corrupted = DecodeClassifyRequest(payload);
  EXPECT_FALSE(corrupted.ok());

  // And a payload that is not a container at all is rejected up front.
  auto garbage = DecodeClassifyRequest({1, 2, 3});
  EXPECT_FALSE(garbage.ok());
}

TEST(RequestLoopTest, ResponseCodecRoundTrip) {
  std::vector<ServeResult> results(5);
  results[0] = {7, PointKind::kCore, Certainty::kExact, 123};
  results[1] = {kNoise, PointKind::kNoise, Certainty::kApprox, 0};
  results[2] = {2, PointKind::kBorder, Certainty::kExact, 11};
  const std::vector<uint8_t> payload = EncodeClassifyResponse(results);
  auto decoded = DecodeClassifyResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ((*decoded)[i].cluster, results[i].cluster);
    EXPECT_EQ((*decoded)[i].kind, results[i].kind);
    EXPECT_EQ((*decoded)[i].certainty, results[i].certainty);
    EXPECT_EQ((*decoded)[i].density, results[i].density);
  }
}

struct Served {
  Dataset data{3};
  std::shared_ptr<const ClusterModelSnapshot> snapshot;
};

Served Freeze(uint64_t seed) {
  Served f;
  f.data = synth::Blobs(1000, 4, 1.5, seed, 3);
  RpDbscanOptions o;
  o.eps = 2.0;
  o.min_pts = 15;
  o.num_threads = 2;
  o.num_partitions = 4;
  o.capture_model = true;
  auto run = RunRpDbscan(f.data, o);
  EXPECT_TRUE(run.ok()) << run.status();
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  EXPECT_TRUE(snap.ok()) << snap.status();
  f.snapshot =
      std::make_shared<const ClusterModelSnapshot>(std::move(*snap));
  return f;
}

TEST(RequestLoopTest, ServesFramedBatchesOverSocketpair) {
  const uint64_t seed = TestSeed(7400);
  SCOPED_TRACE(SeedNote(seed));
  const Served f = Freeze(seed);
  const LabelServer server(f.snapshot);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int server_fd = fds[0];
  const int client_fd = fds[1];

  RequestLoopStats stats;
  std::thread serving([&] {
    ThreadPool pool(2);
    const Status s = ServeRequestLoop(server_fd, server_fd, server, pool,
                                      RequestLoopOptions(), &stats);
    EXPECT_TRUE(s.ok()) << s;
  });

  // A batch holding a coordinate that cannot be binned (NaN) gets an
  // error frame naming the query; then several good requests on the same
  // connection, answered in order; then a malformed frame (the loop must
  // answer with an error and keep serving), then shutdown.
  const float* good = f.data.point(0);
  Dataset bad(3);
  bad.Append({good[0], good[1], good[2]});
  bad.Append({0.0f, std::numeric_limits<float>::quiet_NaN(), 0.0f});
  ASSERT_TRUE(SendClassifyRequest(client_fd, bad).ok());
  auto rejected = ReadClassifyResponse(client_fd);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("point 1 dimension 1"),
            std::string::npos)
      << rejected.status();
  std::vector<ServeResult> local;
  {
    ThreadPool pool(2);
    ASSERT_TRUE(server.ClassifyBatch(f.data, pool, &local).ok());
  }
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(SendClassifyRequest(client_fd, f.data).ok());
    auto results = ReadClassifyResponse(client_fd);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_EQ(results->size(), local.size());
    for (size_t i = 0; i < local.size(); ++i) {
      ASSERT_EQ((*results)[i].cluster, local[i].cluster) << i;
      ASSERT_EQ((*results)[i].kind, local[i].kind) << i;
      ASSERT_EQ((*results)[i].certainty, local[i].certainty) << i;
      ASSERT_EQ((*results)[i].density, local[i].density) << i;
    }
  }
  const std::vector<uint8_t> junk = {9, 9, 9};
  ASSERT_TRUE(WriteFrame(client_fd, kServeFrameMagic, kFrameClassify,
                         junk.data(), junk.size())
                  .ok());
  auto err = ReadClassifyResponse(client_fd);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal) << err.status();

  ASSERT_TRUE(SendShutdown(client_fd).ok());
  serving.join();
  ::close(client_fd);
  ::close(server_fd);

  EXPECT_EQ(stats.requests, 5u);  // 1 unbinnable + 3 good + 1 malformed
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.serve.queries, 3 * f.data.size());
  EXPECT_EQ(stats.latency.seen(), 3 * f.data.size());
  const LatencySummary lat = stats.latency.Summarize();
  EXPECT_GT(lat.max_us, 0.0);
  EXPECT_LE(lat.p50_us, lat.p999_us);
}

// Throughput is measured over busy time: a client that idles ~300 ms
// between two small requests leaves the loop's wall time long, but its
// busy time holds only the two requests, and the JSON's
// queries_per_second divides the queries by the busy time.
TEST(RequestLoopTest, BusySecondsExcludeIdleWaits) {
  const uint64_t seed = TestSeed(7450);
  SCOPED_TRACE(SeedNote(seed));
  const Served f = Freeze(seed);
  const LabelServer server(f.snapshot);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RequestLoopStats stats;
  double wall_seconds = 0;
  std::thread serving([&] {
    ThreadPool pool(2);
    const Stopwatch wall;
    const Status s = ServeRequestLoop(fds[0], fds[0], server, pool,
                                      RequestLoopOptions(), &stats);
    wall_seconds = wall.ElapsedSeconds();
    EXPECT_TRUE(s.ok()) << s;
  });
  Dataset small(3);
  for (size_t i = 0; i < 4; ++i) small.Append(f.data.point(i));
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    ASSERT_TRUE(SendClassifyRequest(fds[1], small).ok());
    ASSERT_TRUE(ReadClassifyResponse(fds[1]).ok());
  }
  ASSERT_TRUE(SendShutdown(fds[1]).ok());
  serving.join();
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(stats.serve.queries, 2 * small.size());
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_LT(stats.busy_seconds, wall_seconds - 0.25);
  const double qps =
      static_cast<double>(stats.serve.queries) / stats.busy_seconds;
  char want[64];
  std::snprintf(want, sizeof(want), "\"queries_per_second\":%.9g", qps);
  const std::string json =
      ServeStatsToJson(stats.serve, wall_seconds, stats.busy_seconds, 2);
  EXPECT_NE(json.find(want), std::string::npos) << json;
}

TEST(RequestLoopTest, CleanHangupEndsTheLoop) {
  const uint64_t seed = TestSeed(7500);
  SCOPED_TRACE(SeedNote(seed));
  const Served f = Freeze(seed);
  const LabelServer server(f.snapshot);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);  // the client vanishes without a shutdown frame
  ThreadPool pool(2);
  const Status s = ServeRequestLoop(fds[0], fds[0], server, pool);
  EXPECT_TRUE(s.ok()) << s;  // hangup between frames is a normal exit
  ::close(fds[0]);
}

}  // namespace
}  // namespace rpdbscan
