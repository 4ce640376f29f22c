#include "util/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rpdbscan {
namespace {

FlagSet MustParse(std::vector<const char*> argv) {
  auto f = FlagSet::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.ok());
  return *f;
}

TEST(FlagsTest, EqualsSyntax) {
  const FlagSet f = MustParse({"--eps=0.5", "--minpts=10"});
  EXPECT_TRUE(f.Has("eps"));
  EXPECT_EQ(f.GetString("eps"), "0.5");
  EXPECT_EQ(*f.GetInt("minpts", 0), 10);
}

TEST(FlagsTest, SpaceSyntax) {
  const FlagSet f = MustParse({"--input", "data.csv", "--threads", "4"});
  EXPECT_EQ(f.GetString("input"), "data.csv");
  EXPECT_EQ(*f.GetInt("threads", 0), 4);
}

TEST(FlagsTest, BareBooleans) {
  const FlagSet f = MustParse({"--verbose", "--stats"});
  EXPECT_TRUE(f.GetBool("verbose"));
  EXPECT_TRUE(f.GetBool("stats"));
  EXPECT_FALSE(f.GetBool("quiet"));
  EXPECT_TRUE(f.GetBool("quiet", true));  // fallback honored
}

TEST(FlagsTest, BooleanValues) {
  const FlagSet f = MustParse({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(f.GetBool("a"));
  EXPECT_TRUE(f.GetBool("b"));
  EXPECT_TRUE(f.GetBool("c"));
  EXPECT_FALSE(f.GetBool("d"));
}

TEST(FlagsTest, Positionals) {
  const FlagSet f = MustParse({"input.csv", "--eps=1", "more.csv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "more.csv");
}

TEST(FlagsTest, Fallbacks) {
  const FlagSet f = MustParse({});
  EXPECT_EQ(f.GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(*f.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(*f.GetDouble("missing", 2.5), 2.5);
}

TEST(FlagsTest, NumericParseFailures) {
  const FlagSet f = MustParse({"--n=abc", "--x=1.5notanumber"});
  EXPECT_FALSE(f.GetInt("n", 0).ok());
  EXPECT_FALSE(f.GetDouble("x", 0).ok());
}

TEST(FlagsTest, DoubleParsing) {
  const FlagSet f = MustParse({"--rho=0.01", "--eps=1e-3"});
  EXPECT_DOUBLE_EQ(*f.GetDouble("rho", 0), 0.01);
  EXPECT_DOUBLE_EQ(*f.GetDouble("eps", 0), 1e-3);
}

TEST(FlagsTest, RejectsBareDashDash) {
  const char* argv[] = {"--"};
  EXPECT_FALSE(FlagSet::Parse(1, argv).ok());
}

TEST(FlagsTest, RejectsEmptyName) {
  const char* argv[] = {"--=value"};
  EXPECT_FALSE(FlagSet::Parse(1, argv).ok());
}

TEST(FlagsTest, CheckKnownRejectsUnreadFlags) {
  const std::vector<std::string> input = {"generate", "n"};
  const std::vector<std::string> rp = {"eps", "minpts"};
  EXPECT_TRUE(MustParse({"--generate=blobs", "--eps=0.5", "--minpts=3"})
                  .CheckKnown({input, rp})
                  .ok());
  EXPECT_TRUE(MustParse({}).CheckKnown({}).ok());
  for (const char* arg : {"--perpoint", "--force-probe", "--epss=2"}) {
    const Status s = MustParse({"--eps=0.5", arg}).CheckKnown({input, rp});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << arg;
    const std::string flag(arg);
    EXPECT_EQ(s.message(), "unknown flag " + flag.substr(0, flag.find('=')));
  }
}

TEST(FlagsTest, LastValueWins) {
  const FlagSet f = MustParse({"--eps=1", "--eps=2"});
  EXPECT_EQ(f.GetString("eps"), "2");
}

}  // namespace
}  // namespace rpdbscan
