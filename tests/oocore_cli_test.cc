// Drives the real rpdbscan_cli binary through the out-of-core flags:
// convert to .rpds, cluster it --mmap'd under a deliberately small
// --memory-budget, and check the produced labels byte-equal the ordinary
// in-RAM run. Mirrors cli_integration_test
// (binary path injected via RPDBSCAN_CLI).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace rpdbscan {
namespace {

class OocoreCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cli = std::getenv("RPDBSCAN_CLI");
    ASSERT_NE(cli, nullptr)
        << "RPDBSCAN_CLI must point at the rpdbscan_cli binary";
    cli_ = cli;
    dir_ = ::testing::TempDir() + "/oocore_cli_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    const std::string mkdir = "mkdir -p " + dir_;
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

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  std::string cli_;
  std::string dir_;
};

TEST_F(OocoreCliTest, MmapLabelsMatchInRamRun) {
  const std::string rpds = dir_ + "/pts.rpds";
  ASSERT_EQ(Run("--generate=geolife --n=20000 --seed=5 --convert=" + rpds),
            0);
  const std::string ram_csv = dir_ + "/ram.csv";
  const std::string mmap_csv = dir_ + "/mmap.csv";
  ASSERT_EQ(Run("--input=" + rpds +
                " --eps=2.0 --minpts=20 --output=" + ram_csv),
            0);
  // 256k budget over a ~240KB payload forces several spill runs.
  ASSERT_EQ(Run("--input=" + rpds +
                " --mmap --memory-budget=256k "
                "--audit=cheap --eps=2.0 --minpts=20 --stats "
                "--output=" +
                mmap_csv),
            0);
  const std::string ram = ReadFile(ram_csv);
  const std::string mm = ReadFile(mmap_csv);
  ASSERT_FALSE(ram.empty());
  EXPECT_EQ(mm, ram) << "labels diverged between mmap and in-RAM runs";
  // The stats block must record that the out-of-core path actually ran.
  const std::string out = ReadFile(dir_ + "/stdout.txt");
  EXPECT_NE(out.find("out-of-core phase1"), std::string::npos) << out;
}

TEST_F(OocoreCliTest, StatsJsonRecordsOocoreFields) {
  const std::string rpds = dir_ + "/pts.rpds";
  ASSERT_EQ(Run("--generate=blobs --n=8000 --seed=6 --convert=" + rpds), 0);
  const std::string json_path = dir_ + "/stats.json";
  ASSERT_EQ(Run("--input=" + rpds +
                " --mmap --memory-budget=128k "
                "--eps=1.0 --minpts=15 --stats-json=" +
                json_path),
            0);
  const std::string json = ReadFile(json_path);
  for (const char* key :
       {"\"external_phase1\"", "\"external_chunks\"",
        "\"external_spill_bytes\"", "\"memory_budget_bytes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"external_phase1\":true"), std::string::npos)
      << json;
}

TEST_F(OocoreCliTest, MmapRequiresRpdsInput) {
  const std::string csv = dir_ + "/pts.csv";
  ASSERT_EQ(Run("--generate=blobs --n=500 --eps=1.0 --minpts=10 --output=" +
                csv),
            0);
  EXPECT_NE(Run("--input=" + csv + " --mmap --eps=1.0 --minpts=10"), 0);
  EXPECT_NE(Run("--generate=blobs --n=500 --mmap --eps=1.0 --minpts=10"),
            0);
}

TEST_F(OocoreCliTest, MmapRejectsNormalizeAndNonRpAlgos) {
  const std::string rpds = dir_ + "/pts.rpds";
  ASSERT_EQ(Run("--generate=blobs --n=500 --seed=7 --convert=" + rpds), 0);
  EXPECT_NE(Run("--input=" + rpds +
                " --mmap --normalize=minmax --eps=1.0 --minpts=10"),
            0);
  EXPECT_NE(Run("--input=" + rpds +
                " --mmap --algo=exact --eps=1.0 --minpts=10"),
            0);
}

TEST_F(OocoreCliTest, BadByteSizeAndShardFlagsRejected) {
  const std::string rpds = dir_ + "/pts.rpds";
  ASSERT_EQ(Run("--generate=blobs --n=500 --seed=8 --convert=" + rpds), 0);
  EXPECT_NE(Run("--input=" + rpds +
                " --mmap --memory-budget=64q --eps=1.0 --minpts=10"),
            0);
  EXPECT_NE(Run("--input=" + rpds +
                " --mmap --memory-budget=0 --eps=1.0 --minpts=10"),
            0);
  // A retired engine flag is refused like any other unknown flag.
  EXPECT_EQ(Run("--input=" + rpds +
                " --shard-workers=2 --eps=1.0 --minpts=10"),
            1);
  const std::string err = ReadFile(dir_ + "/stderr.txt");
  EXPECT_NE(err.find("unknown flag --shard-workers"), std::string::npos)
      << err;
}

}  // namespace
}  // namespace rpdbscan
