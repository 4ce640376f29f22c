#include "io/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "util/random.h"

namespace rpdbscan {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/csv_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(CsvTest, ReadsCommaSeparated) {
  WriteFile("1.0,2.0\n3.5,-4.5\n");
  auto ds = ReadCsv(path_);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->dim(), 2u);
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_FLOAT_EQ(ds->point(1)[1], -4.5f);
}

TEST_F(CsvTest, ReadsWhitespaceSeparated) {
  WriteFile("1 2 3\n4 5 6\n");
  auto ds = ReadCsv(path_);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dim(), 3u);
  EXPECT_EQ(ds->size(), 2u);
}

TEST_F(CsvTest, SkipsCommentsAndBlankLines) {
  WriteFile("# header\n\n1,2\n# middle\n3,4\n");
  auto ds = ReadCsv(path_);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
}

TEST_F(CsvTest, RejectsArityMismatch) {
  WriteFile("1,2\n3,4,5\n");
  auto ds = ReadCsv(path_);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kIOError);
}

TEST_F(CsvTest, RejectsUnparsableRow) {
  WriteFile("1,2\nfoo,bar\n");
  EXPECT_FALSE(ReadCsv(path_).ok());
}

// Each malformed field fails the read with an IOError naming the path, the
// line and the field — never a silently split or non-finite point.
TEST_F(CsvTest, RejectsMalformedAndNonFiniteFields) {
  struct Case {
    const char* row;
    const char* field;  // expected "field N" in the message
  };
  const Case cases[] = {
      {"1.5.3,2", "field 1"},  // would have split into 1.5 and .3
      {"0.5.1,3", "field 1"},
      {"1-2,4", "field 1"},    // would have split into 1 and -2
      {"4,1-2", "field 2"},
      {"nan,1", "field 1"},
      {"1,inf", "field 2"},
      {"-inf,1", "field 1"},
      {"1,1e50", "field 2"},   // beyond the float range
      {"1,2x", "field 2"},
      {"1,abc", "field 2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.row);
    WriteFile(std::string("1,2\n# comment\n") + c.row + "\n");
    auto ds = ReadCsv(path_);
    ASSERT_FALSE(ds.ok());
    EXPECT_EQ(ds.status().code(), StatusCode::kIOError);
    const std::string msg = ds.status().message();
    EXPECT_NE(msg.find(path_ + ":3:"), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.field), std::string::npos) << msg;
  }
}

TEST_F(CsvTest, AcceptsEveryFieldSeparator) {
  WriteFile("1.5,2\t3 4\r\n-0.5 , 6 \t,7,8\n");
  auto ds = ReadCsv(path_);
  ASSERT_TRUE(ds.ok()) << ds.status();
  ASSERT_EQ(ds->dim(), 4u);
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->point(0)[3], 4.0f);
  EXPECT_EQ(ds->point(1)[0], -0.5f);
  EXPECT_EQ(ds->point(1)[3], 8.0f);
}

TEST_F(CsvTest, RoundTripKeepsExtremeFiniteValues) {
  // The parse-time checks must not reject what WriteCsv writes: a
  // subnormal, both zeros and the largest finite floats.
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float max = std::numeric_limits<float>::max();
  Dataset ds(3);
  ds.Append({denorm, 0.0f, -0.0f});
  ds.Append({max, -max, -denorm});
  ASSERT_TRUE(WriteCsv(path_, ds).ok());
  auto back = ReadCsv(path_);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(std::memcmp(back->point(i) + d, ds.point(i) + d,
                            sizeof(float)),
                0)
          << "point " << i << " dim " << d;
    }
  }
}

TEST_F(CsvTest, RejectsEmptyFile) {
  WriteFile("");
  EXPECT_FALSE(ReadCsv(path_).ok());
}

TEST_F(CsvTest, MissingFileIsIOError) {
  auto ds = ReadCsv("/nonexistent/dir/file.csv");
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kIOError);
}

TEST_F(CsvTest, RoundTripWithoutLabels) {
  Dataset ds(2);
  ds.Append({1.5f, 2.5f});
  ds.Append({-3.0f, 4.0f});
  ASSERT_TRUE(WriteCsv(path_, ds).ok());
  auto back = ReadCsv(path_);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_FLOAT_EQ(back->point(0)[0], 1.5f);
  EXPECT_FLOAT_EQ(back->point(1)[1], 4.0f);
}

TEST_F(CsvTest, RoundTripWithLabels) {
  Dataset ds(2);
  ds.Append({1.0f, 2.0f});
  ds.Append({3.0f, 4.0f});
  const Labels labels = {7, kNoise};
  ASSERT_TRUE(WriteCsv(path_, ds, &labels).ok());
  auto back = ReadCsv(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->dim(), 3u);  // label column appended
  EXPECT_FLOAT_EQ(back->point(0)[2], 7.0f);
  EXPECT_FLOAT_EQ(back->point(1)[2], -1.0f);
}

TEST_F(CsvTest, WrittenFloatsReadBackBitExactly) {
  // Magnitudes across the whole normal range, both signs, negative zero
  // and subnormals: every coordinate must come back with the same bits.
  Rng rng(1234);
  Dataset ds(3);
  for (int i = 0; i < 20000; ++i) {
    float p[3];
    for (float& v : p) {
      const double mag = std::pow(10.0, rng.UniformDouble(-38.0, 38.47));
      v = static_cast<float>(rng.UniformDouble() < 0.5 ? -mag : mag);
    }
    ds.Append(p);
  }
  const float denorm = std::numeric_limits<float>::denorm_min();
  ds.Append({-0.0f, 0.0f, denorm});
  ds.Append({-denorm, 3.0e-39f, -1.17e-38f});
  ds.Append({std::numeric_limits<float>::max(),
             std::numeric_limits<float>::lowest(), 0.1f});
  const Labels labels(ds.size(), 42);
  ASSERT_TRUE(WriteCsv(path_, ds, &labels).ok());
  auto back = ReadCsv(path_);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), ds.size());
  ASSERT_EQ(back->dim(), 4u);
  for (size_t i = 0; i < ds.size(); ++i) {
    for (size_t d = 0; d < 3; ++d) {
      uint32_t want = 0;
      uint32_t got = 0;
      std::memcpy(&want, ds.point(i) + d, sizeof(want));
      std::memcpy(&got, back->point(i) + d, sizeof(got));
      ASSERT_EQ(got, want) << "point " << i << " dim " << d << ": wrote "
                           << ds.point(i)[d];
    }
    ASSERT_EQ(back->point(i)[3], 42.0f);
  }
}

TEST_F(CsvTest, WriteReportsUnwritablePath) {
  Dataset ds(1);
  ds.Append({1.0f});
  EXPECT_EQ(WriteCsv("/nonexistent/dir/out.csv", ds).code(),
            StatusCode::kIOError);
  // A full device fails the buffered write or the close, never silently.
  if (std::FILE* full = std::fopen("/dev/full", "wb")) {
    std::fclose(full);
    EXPECT_EQ(WriteCsv("/dev/full", ds).code(), StatusCode::kIOError);
  }
}

TEST_F(CsvTest, WriteRejectsLabelSizeMismatch) {
  Dataset ds(2);
  ds.Append({1.0f, 2.0f});
  const Labels labels = {1, 2, 3};
  EXPECT_EQ(WriteCsv(path_, ds, &labels).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rpdbscan
