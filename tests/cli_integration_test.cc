// End-to-end tests of the rpdbscan_cli binary: drive the real executable
// (path injected via the RPDBSCAN_CLI environment variable from CMake)
// through its main flows and check exit codes and produced artifacts.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "io/csv.h"

namespace rpdbscan {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cli = std::getenv("RPDBSCAN_CLI");
    ASSERT_NE(cli, nullptr)
        << "RPDBSCAN_CLI must point at the rpdbscan_cli binary";
    cli_ = cli;
    dir_ = ::testing::TempDir() + "/cli_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
  }
  void TearDown() override {
    const std::string rm = "rm -rf " + dir_;
    (void)std::system(rm.c_str());
  }

  int Run(const std::string& args) {
    const std::string cmd = cli_ + " " + args + " > " + dir_ +
                            "/stdout.txt 2> " + dir_ + "/stderr.txt";
    const int rc = std::system(cmd.c_str());
    return rc == -1 ? -1 : WEXITSTATUS(rc);
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  std::string Stdout() { return ReadFile(dir_ + "/stdout.txt"); }
  std::string Stderr() { return ReadFile(dir_ + "/stderr.txt"); }

  std::string cli_;
  std::string dir_;
};

TEST_F(CliTest, HelpExitsZero) {
  EXPECT_EQ(Run("--help"), 0);
  EXPECT_NE(Stdout().find("usage:"), std::string::npos);
}

TEST_F(CliTest, MissingInputFails) {
  EXPECT_NE(Run("--eps=1"), 0);
}

TEST_F(CliTest, GenerateAndCluster) {
  EXPECT_EQ(Run("--generate=blobs --n=5000 --eps=1.0 --minpts=15"), 0);
  EXPECT_NE(Stdout().find("clusters"), std::string::npos);
}

TEST_F(CliTest, StatsSplitPhaseI2) {
  // --stats prints the Phase I-2 split and --stats-json carries it: the
  // histogram, fragment and neighborhood seconds, measured inside the
  // stage, sum to no more than its total.
  const std::string json_path = dir_ + "/stats.json";
  ASSERT_EQ(Run("--generate=blobs --n=5000 --eps=1.0 --minpts=15 --stats "
                "--stats-json=" +
                json_path),
            0);
  const std::string out = Stdout();
  const size_t line = out.find("Phase I-2");
  ASSERT_NE(line, std::string::npos);
  const std::string i2 = out.substr(line, out.find('\n', line) - line);
  for (const char* part : {"histograms ", "fragments ", "neighborhoods "}) {
    EXPECT_NE(i2.find(part), std::string::npos) << i2;
  }
  std::ifstream in(json_path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  auto value = [&](const std::string& key) {
    const size_t at = json.find("\"" + key + "\"");
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos) return -1.0;
    return std::strtod(json.c_str() + json.find(':', at) + 1, nullptr);
  };
  const double total = value("dictionary_seconds");
  const double histogram = value("histogram_seconds");
  const double fragment = value("fragment_seconds");
  const double neighborhood = value("neighborhood_seconds");
  EXPECT_GE(histogram, 0.0);
  EXPECT_GE(fragment, 0.0);
  EXPECT_GE(neighborhood, 0.0);
  // The slack covers the 9-digit rounding of the printed values.
  EXPECT_LE(histogram + fragment + neighborhood, total * (1 + 1e-8)) << json;
}

TEST_F(CliTest, LatticeEdgeCellsAreNotStencilNeighbors) {
  // At this eps the two points sit on INT32_MAX and INT32_MIN: each
  // cell's stencil list holds only itself, so Phase II walks 2 entries.
  const std::string csv = dir_ + "/edge.csv";
  {
    std::ofstream f(csv);
    f << "1.0\n-1.0\n";
  }
  ASSERT_EQ(Run("--input=" + csv +
                " --eps=4.656612875e-10 --minpts=1 --stats --audit=full"),
            0);
  const std::string out = Stdout();
  EXPECT_NE(out.find("stencil_probes=2\n"), std::string::npos) << out;
  EXPECT_NE(out.find(" 0 violations"), std::string::npos) << out;
}

TEST_F(CliTest, LabelsWrittenAndReadable) {
  const std::string out = dir_ + "/labels.csv";
  ASSERT_EQ(Run("--generate=moons --n=3000 --eps=0.07 --minpts=10 "
                "--output=" +
                out),
            0);
  auto ds = ReadCsv(out);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->size(), 3000u);
  EXPECT_EQ(ds->dim(), 3u);  // x, y, label
}

TEST_F(CliTest, CsvRoundTripThroughConvert) {
  // Generate labeled CSV, strip labels? Simpler: generate -> convert to
  // rpds -> cluster the rpds.
  const std::string csv = dir_ + "/points.csv";
  ASSERT_EQ(Run("--generate=blobs --n=2000 --eps=1 --minpts=10 --output=" +
                csv),
            0);
  // The output has a label column; cluster it anyway in 3-d (works), or
  // convert then cluster.
  const std::string rpds = dir_ + "/points.rpds";
  ASSERT_EQ(Run("--input=" + csv + " --convert=" + rpds), 0);
  EXPECT_EQ(Run("--input=" + rpds + " --eps=1.0 --minpts=10"), 0);
}

TEST_F(CliTest, AllAlgorithmsRun) {
  for (const char* algo :
       {"rp", "exact", "esp", "rbp", "cbp", "spark", "ng", "naive"}) {
    EXPECT_EQ(Run(std::string("--generate=blobs --n=1200 --eps=1.0 "
                              "--minpts=8 --algo=") +
                  algo),
              0)
        << algo;
  }
}

TEST_F(CliTest, UnknownAlgorithmFails) {
  EXPECT_NE(Run("--generate=blobs --n=100 --eps=1 --algo=optics"), 0);
}

TEST_F(CliTest, KdistDiagnostic) {
  EXPECT_EQ(Run("--generate=blobs --n=3000 --kdist=10"), 0);
  EXPECT_NE(Stdout().find("quantiles"), std::string::npos);
}

TEST_F(CliTest, NormalizeModes) {
  EXPECT_EQ(
      Run("--generate=blobs --n=1000 --eps=5 --minpts=8 --normalize=minmax"),
      0);
  EXPECT_NE(
      Run("--generate=blobs --n=1000 --eps=5 --minpts=8 --normalize=bogus"),
      0);
}

// End-to-end `stream`: ingest batches, publish epochs with the full
// against-run audit, persist .rpsnap files, and emit the JSON stats; the
// persisted final epoch must load back into `serve`.
TEST_F(CliTest, StreamPublishesAuditedEpochs) {
  const std::string epochs = dir_ + "/epochs";
  ASSERT_EQ(std::system(("mkdir -p " + epochs).c_str()), 0);
  const std::string stats = dir_ + "/stream.json";
  const std::string labels = dir_ + "/stream_labels.csv";
  ASSERT_EQ(Run("stream --generate=blobs --n=2500 --eps=1.0 --minpts=10 "
                "--seed-points=2000 --batch-size=250 --epoch-every=1 "
                "--audit=full --threads=2 --epoch-dir=" +
                epochs + " --stats-json=" + stats + " --output=" + labels),
            0);
  const std::string out = Stdout();
  EXPECT_NE(out.find("epoch 0:"), std::string::npos);
  EXPECT_NE(out.find("epoch 2:"), std::string::npos);
  EXPECT_NE(out.find("[audit pass]"), std::string::npos);
  EXPECT_NE(out.find("stream done: 3 epochs"), std::string::npos);

  const std::string json = ReadFile(stats);
  EXPECT_NE(json.find("\"dirty_cells\""), std::string::npos);
  EXPECT_NE(json.find("\"extended_cells\""), std::string::npos);
  EXPECT_NE(json.find("\"reclustered_points\""), std::string::npos);
  EXPECT_EQ(json.find("\"dirty_used_stencil\""), std::string::npos);
  EXPECT_NE(out.find(" extended), "), std::string::npos);
  EXPECT_EQ(out.find("(stencil "), std::string::npos);
  EXPECT_NE(json.find("\"epoch_publish_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"epochs_published\": 3"), std::string::npos);
  // Every record carries the stage split, and none is cut short: the last
  // one holds every key through the audit verdict, then the array closes.
  const size_t last = json.rfind("{\"sequence\":2,");
  ASSERT_NE(last, std::string::npos);
  const std::string record = json.substr(last);
  for (const char* key :
       {"\"dictionary_seconds\":", "\"phase2_seconds\":",
        "\"merge_seconds\":", "\"package_seconds\":"}) {
    EXPECT_NE(record.find(key), std::string::npos) << key;
  }
  EXPECT_NE(record.find("\"audit\":\"pass\"}\n  ]\n}"), std::string::npos)
      << record;

  auto ds = ReadCsv(labels);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->size(), 2500u);

  // The last persisted epoch is a regular snapshot: serve from it (the
  // labels CSV has a label column, so hand-write 2-d queries instead).
  const std::string queries = dir_ + "/queries.csv";
  {
    std::ofstream q(queries);
    q << "0.0,0.0\n1.5,-2.0\n10.0,10.0\n";
  }
  EXPECT_EQ(Run("serve --snapshot=" + epochs + "/epoch-2.rpsnap --verify "
                "--queries=" + queries),
            0);
}

// With 8-point batches most epochs extend the last epoch's cell graph
// instead of re-running it. The final epoch's --output must still be the
// one-shot run's, byte for byte, on the stencil engine (GeoLife, d = 3)
// and on the kd-tree one (tera, d = 13).
TEST_F(CliTest, StreamSmallBatchesMatchOneShotRun) {
  const std::pair<std::string, std::string> cases[] = {
      {"--generate=geolife --n=4000 --eps=1.5 --minpts=10",
       "--seed-points=3600"},
      {"--generate=tera --n=3000 --eps=40 --minpts=20",
       "--seed-points=2700"},
  };
  const std::string once = dir_ + "/once.csv";
  const std::string streamed = dir_ + "/streamed.csv";
  for (const auto& [input, seed_points] : cases) {
    SCOPED_TRACE(input);
    ASSERT_EQ(Run(input + " --threads=2 --output=" + once), 0);
    ASSERT_EQ(Run("stream " + input + " " + seed_points +
                  " --batch-size=8 --threads=2 --output=" + streamed),
              0);
    const std::string want = ReadFile(once);
    EXPECT_FALSE(want.empty());
    EXPECT_TRUE(want == ReadFile(streamed));
  }
}

// A one-shot batch's percentiles are completion offsets from batch
// admission and are named so; only a --listen server's per-request
// sojourns are called latency.
TEST_F(CliTest, ServePercentileKeysNameWhatTheyMeasure) {
  const std::string snapshot = dir_ + "/m.rpsnap";
  ASSERT_EQ(Run("--generate=blobs --n=2000 --eps=1.0 --minpts=10 "
                "--save-snapshot=" + snapshot),
            0);
  const std::string queries = dir_ + "/queries.csv";
  {
    std::ofstream q(queries);
    q << "0.0,0.0\n1.5,-2.0\n10.0,10.0\n";
  }
  const std::string batch = dir_ + "/batch.json";
  ASSERT_EQ(Run("serve --snapshot=" + snapshot + " --queries=" + queries +
                " --stats-json=" + batch),
            0);
  EXPECT_NE(Stdout().find("completion p50 "), std::string::npos);
  EXPECT_EQ(Stdout().find("latency"), std::string::npos);
  const std::string batch_json = ReadFile(batch);
  for (const char* key :
       {"\"completion_samples\"", "\"completion_p50_us\"",
        "\"completion_p99_us\"", "\"completion_p999_us\"",
        "\"completion_max_us\""}) {
    EXPECT_NE(batch_json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(batch_json.find("latency"), std::string::npos) << batch_json;

  // One client session against a listening server; the client retries
  // until the socket accepts, and the server exits on its shutdown frame.
  const std::string sock = dir_ + "/rp.sock";
  const std::string listen = dir_ + "/listen.json";
  const std::string session =
      "timeout 60 " + cli_ + " serve --snapshot=" + snapshot +
      " --listen=" + sock + " --stats-json=" + listen + " > " + dir_ +
      "/listen.txt 2>&1 & ok=1; for i in $(seq 1 200); do " + cli_ +
      " serve --connect=" + sock + " --queries=" + queries + " > " + dir_ +
      "/client.txt 2>&1 && ok=0 && break; sleep 0.05; done; wait; exit $ok";
  const int rc = std::system(("sh -c '" + session + "'").c_str());
  ASSERT_EQ(rc == -1 ? -1 : WEXITSTATUS(rc), 0)
      << ReadFile(dir_ + "/client.txt");
  const std::string listen_json = ReadFile(listen);
  for (const char* key :
       {"\"latency_samples\"", "\"latency_p50_us\"", "\"latency_p99_us\"",
        "\"latency_p999_us\"", "\"latency_max_us\""}) {
    EXPECT_NE(listen_json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(listen_json.find("completion"), std::string::npos) << listen_json;
}

TEST_F(CliTest, StreamRejectsBadAuditLevel) {
  EXPECT_NE(Run("stream --generate=blobs --n=500 --eps=1.0 --minpts=10 "
                "--audit=bogus"),
            0);
}

TEST_F(CliTest, UnknownFlagsFailBeforeInputLoads) {
  // Every entry point refuses a flag it does not read — a typo or a
  // retired engine switch — instead of silently running the defaults.
  const std::pair<std::string, std::string> cases[] = {
      {"--generate=blobs --n=500 --eps=0.5 --perpoint", "--perpoint"},
      {"--generate=blobs --n=500 --eps=0.5 --shard-workers=2",
       "--shard-workers"},
      {"--generate=blobs --n=500 --eps=0.5 --epss=2", "--epss"},
      {"hierarchy --generate=blobs --n=500 --eps-levels=0.5,0.7 "
       "--force-probe",
       "--force-probe"},
      {"stream --generate=blobs --n=500 --eps=0.5 --perpoint", "--perpoint"},
      {"serve --snapshot=missing.rpsnap --queries=missing.csv --epss=2",
       "--epss"},
      // The kernel tier follows the host alone.
      {"--generate=blobs --n=500 --eps=0.5 --scalar-kernels",
       "--scalar-kernels"},
      {"hierarchy --generate=blobs --n=500 --eps-levels=0.5,0.7 "
       "--scalar-kernels",
       "--scalar-kernels"},
      {"stream --generate=blobs --n=500 --eps=0.5 --scalar-kernels",
       "--scalar-kernels"},
  };
  for (const auto& [args, flag] : cases) {
    SCOPED_TRACE(args);
    EXPECT_EQ(Run(args), 1);
    const std::string err = Stderr();
    EXPECT_NE(err.find("unknown flag " + flag), std::string::npos) << err;
    EXPECT_EQ(err.find("loaded"), std::string::npos) << err;
  }
}

TEST_F(CliTest, ServeModesRefuseFlagsTheyDoNotRead) {
  // Each serve mode (batch, --listen, --models, --connect) reads its own
  // flags; any other serve flag fails like an unknown flag, before any
  // query file, snapshot or socket is touched (all of them are missing).
  const std::string missing = dir_ + "/missing";
  const std::string batch =
      "serve --snapshot=" + missing + ".rpsnap --queries=" + missing + ".csv";
  const std::string listen =
      "serve --snapshot=" + missing + ".rpsnap --listen=" + dir_ + "/rp.sock";
  const std::string models =
      "serve --models=1=" + missing + ".rpsnap --listen=" + dir_ + "/rp.sock";
  const std::string connect = "serve --connect=" + dir_ +
                              "/rp.sock --queries=" + missing + ".csv";
  const std::pair<std::string, std::string> cases[] = {
      {batch + " --model-id=9", "--model-id"},
      {batch + " --default-model=5", "--default-model"},
      {listen + " --queries=" + missing + ".csv", "--queries"},
      {listen + " --output=" + dir_ + "/out.csv", "--output"},
      {listen + " --model-id=9", "--model-id"},
      {listen + " --default-model=5", "--default-model"},
      {models + " --snapshot=" + missing + ".rpsnap", "--snapshot"},
      {models + " --queries=" + missing + ".csv", "--queries"},
      {models + " --verify", "--verify"},
      {models + " --output=" + dir_ + "/out.csv", "--output"},
      {models + " --model-id=9", "--model-id"},
      {connect + " --threads=2", "--threads"},
      {connect + " --verify", "--verify"},
      {connect + " --approx-border", "--approx-border"},
      {connect + " --stats-json=" + dir_ + "/s.json", "--stats-json"},
      {connect + " --snapshot=" + missing + ".rpsnap", "--snapshot"},
      {connect + " --default-model=5", "--default-model"},
  };
  for (const auto& [args, flag] : cases) {
    SCOPED_TRACE(args);
    EXPECT_EQ(Run(args), 1);
    const std::string err = Stderr();
    EXPECT_NE(err.find("unknown flag " + flag + " "), std::string::npos)
        << err;
    EXPECT_EQ(err.find("failed"), std::string::npos) << err;
  }
  // Both misplaced model ids at once, on a one-shot batch.
  EXPECT_EQ(Run(batch + " --default-model=5 --model-id=9"), 1);
  EXPECT_NE(Stderr().find("unknown flag --"), std::string::npos);
  EXPECT_FALSE(std::ifstream(dir_ + "/rp.sock").good());
  EXPECT_FALSE(std::ifstream(dir_ + "/out.csv").good());
  EXPECT_FALSE(std::ifstream(dir_ + "/s.json").good());
}

TEST_F(CliTest, BadNumericFlagFails) {
  // A malformed or negative count fails, naming the flag, instead of
  // wrapping to a huge size_t (minPts 2^64 - 1 labels everything noise;
  // 2^64 - 1 partitions or threads cannot be allocated) or silently
  // falling back to a default. The serve, stream and --kdist counts and
  // the serve model ids are read before any input, snapshot or socket is
  // opened, so the missing files below are never touched.
  const std::string missing = dir_ + "/missing";
  const std::pair<std::string, std::string> cases[] = {
      {"--generate=blobs --n=abc --eps=1", "--n"},
      {"--generate=blobs --n=-1 --eps=1", "--n"},
      {"--generate=blobs --n=2000 --eps=1 --minpts=-1", "--minpts"},
      {"--generate=blobs --n=200 --eps=1 --partitions=-1", "--partitions"},
      {"--generate=blobs --n=200 --eps=1 --threads=-1", "--threads"},
      {"--generate=blobs --n=200 --eps=1 --algo=esp --threads=-1",
       "--threads"},
      {"--generate=blobs --n=200 --eps=1 --memory-budget=-1",
       "--memory-budget"},
      {"hierarchy --generate=blobs --n=200 --eps-levels=0.5,0.7 "
       "--min-pts=-1",
       "--min-pts"},
      {"hierarchy --generate=blobs --n=200 --eps-levels=0.5,0.7 "
       "--minpts=-1",
       "--minpts"},
      {"stream --generate=blobs --n=200 --eps=1 --partitions=-1",
       "--partitions"},
      {"stream --input=" + missing + ".csv --eps=1 --seed-points=-1",
       "--seed-points"},
      {"stream --input=" + missing + ".csv --eps=1 --batch-size=-5",
       "--batch-size"},
      {"stream --input=" + missing + ".csv --eps=1 --epoch-every=-2",
       "--epoch-every"},
      {"--input=" + missing + ".csv --eps=1 --kdist=-3", "--kdist"},
      {"serve --snapshot=" + missing + ".rpsnap --queries=" + missing +
           ".csv --threads=-3",
       "--threads"},
      {"serve --models=1=" + missing + ".rpsnap --listen=stdio --threads=-3",
       "--threads"},
      // A negative id is refused instead of sending an unrouted request,
      // and an id past the u32 wire field instead of being truncated
      // (4294967303 would name model 7).
      {"serve --connect=" + missing + ".sock --queries=" + missing +
           ".csv --model-id=-5",
       "--model-id"},
      {"serve --models=7=" + missing +
           ".rpsnap --listen=stdio --default-model=4294967303",
       "--default-model"},
  };
  for (const auto& [args, flag] : cases) {
    SCOPED_TRACE(args);
    EXPECT_EQ(Run(args), 1);
    const std::string err = Stderr();
    EXPECT_NE(err.find(flag + " "), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace rpdbscan
