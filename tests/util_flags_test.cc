// Tests for the command-line flag parser.

#include "src/util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace gjoin::util {
namespace {

Flags MustParse(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  auto result = Flags::Parse(static_cast<int>(args.size()),
                             const_cast<char**>(args.data()));
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ValueOrDie();
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = MustParse({"--tuples=1000", "--skew=0.75", "--name=fig8"});
  EXPECT_EQ(*f.GetInt("tuples", 0), 1000);
  EXPECT_DOUBLE_EQ(*f.GetDouble("skew", 0), 0.75);
  EXPECT_EQ(f.GetString("name", ""), "fig8");
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = MustParse({"--tuples", "1000"});
  EXPECT_EQ(*f.GetInt("tuples", 0), 1000);
}

TEST(FlagsTest, BareBooleanFlag) {
  Flags f = MustParse({"--materialize"});
  EXPECT_TRUE(*f.GetBool("materialize", false));
  EXPECT_TRUE(f.Has("materialize"));
  EXPECT_FALSE(f.Has("other"));
}

TEST(FlagsTest, ExplicitBooleans) {
  Flags f = MustParse({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(*f.GetBool("a", false));
  EXPECT_FALSE(*f.GetBool("b", true));
  EXPECT_TRUE(*f.GetBool("c", false));
  EXPECT_FALSE(*f.GetBool("d", true));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = MustParse({});
  EXPECT_EQ(*f.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(*f.GetDouble("missing", 2.5), 2.5);
  EXPECT_EQ(f.GetString("missing", "x"), "x");
  EXPECT_TRUE(*f.GetBool("missing", true));
}

TEST(FlagsTest, RejectsPositionalArguments) {
  std::vector<const char*> args = {"binary", "positional"};
  auto result = Flags::Parse(2, const_cast<char**>(args.data()));
  EXPECT_FALSE(result.ok());
}

TEST(FlagsTest, NumbersParseWhole) {
  Flags f = MustParse({"--neg=-12", "--big=9223372036854775807", "--exp=1e3",
                       "--frac=-0.5"});
  EXPECT_EQ(*f.GetInt("neg", 0), -12);
  EXPECT_EQ(*f.GetInt("big", 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(*f.GetDouble("exp", 0), 1000.0);
  EXPECT_DOUBLE_EQ(*f.GetDouble("frac", 0), -0.5);
  // An integer is a valid double.
  EXPECT_DOUBLE_EQ(*f.GetDouble("neg", 0), -12.0);
}

/// Expects `result` to be kInvalid naming both the flag and its value.
template <typename T>
void ExpectBadValue(const Result<T>& result, const std::string& flag,
                    const std::string& value) {
  ASSERT_FALSE(result.ok()) << "--" << flag << "=" << value << " accepted";
  EXPECT_EQ(result.status().code(), StatusCode::kInvalid);
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("--" + flag + "=" + value), std::string::npos)
      << message;
}

TEST(FlagsTest, MalformedValuesAreErrorsNamingFlagAndValue) {
  // Trailing junk, junk, empty, out-of-range and bare (read as "true")
  // values used to parse as a prefix or fall back to the default.
  Flags f = MustParse({"--divisor=8x", "--n=abc", "--empty=", "--huge=1e999",
                       "--overflow=99999999999999999999", "--bare",
                       "--strict=yes", "--skew=0.5.1", "--nan=nan"});
  ExpectBadValue(f.GetInt("divisor", 1), "divisor", "8x");
  ExpectBadValue(f.GetInt("n", 5), "n", "abc");
  ExpectBadValue(f.GetInt("empty", 5), "empty", "");
  ExpectBadValue(f.GetInt("overflow", 5), "overflow",
                 "99999999999999999999");
  ExpectBadValue(f.GetInt("bare", 5), "bare", "true");
  ExpectBadValue(f.GetInt("skew", 5), "skew", "0.5.1");
  ExpectBadValue(f.GetDouble("skew", 0), "skew", "0.5.1");
  ExpectBadValue(f.GetDouble("n", 0), "n", "abc");
  ExpectBadValue(f.GetDouble("empty", 0), "empty", "");
  ExpectBadValue(f.GetDouble("huge", 0), "huge", "1e999");
  ExpectBadValue(f.GetDouble("nan", 0), "nan", "nan");
  ExpectBadValue(f.GetBool("strict", false), "strict", "yes");
  ExpectBadValue(f.GetBool("divisor", false), "divisor", "8x");
  // The string reader takes any value.
  EXPECT_EQ(f.GetString("strict", ""), "yes");
}

TEST(FlagsTest, UnknownNamesAreIgnored) {
  // Readers ignore a flag they do not ask for; AllowOnly (below) is the
  // check that rejects it.
  Flags f = MustParse({"--bogus=1"});
  EXPECT_TRUE(f.Has("bogus"));
  EXPECT_EQ(*f.GetInt("divisor", 16), 16);
}

TEST(FlagsTest, AllowOnlyAcceptsListedNames) {
  Flags f = MustParse({"--divisor=8", "--strict", "--trace_dir", "out"});
  EXPECT_TRUE(f.AllowOnly({"divisor", "trace_dir", "strict"}).ok());
  EXPECT_TRUE(f.AllowOnly({"strict", "divisor", "trace_dir", "extra"}).ok());
  EXPECT_TRUE(MustParse({}).AllowOnly({}).ok());
  EXPECT_TRUE(MustParse({}).AllowOnly({"divisor"}).ok());
}

TEST(FlagsTest, AllowOnlyRejectsUnknownNamesNamingTheToken) {
  // A retired or misspelled flag is an error, not a silent default run.
  for (const char* bad :
       {"--depth=1", "--bogus", "--divisr=8", "--Divisor=8"}) {
    Flags f = MustParse({"--divisor=8", bad});
    const Status status = f.AllowOnly({"divisor", "strict"});
    ASSERT_FALSE(status.ok()) << "accepted: " << bad;
    EXPECT_EQ(status.code(), StatusCode::kInvalid) << bad;
    const std::string token = bad;
    const std::string name = token.substr(0, token.find('='));
    const std::string message = status.ToString();
    EXPECT_NE(message.find("unknown flag " + name), std::string::npos)
        << message;
    // The accepted names are listed, so the fix is in the message.
    EXPECT_NE(message.find("--divisor, --strict"), std::string::npos)
        << message;
  }
  // With no names allowed, any flag is unknown.
  EXPECT_FALSE(MustParse({"--divisor=8"}).AllowOnly({}).ok());
}

TEST(FlagsTest, MalformedArgumentsReportTypedErrorNamingTheToken) {
  for (const char* bad : {"-x", "positional", "tuples=1000", "-"}) {
    std::vector<const char*> args = {"binary", bad};
    auto result = Flags::Parse(2, const_cast<char**>(args.data()));
    ASSERT_FALSE(result.ok()) << "accepted: " << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalid) << bad;
    // The message names the offending token so a bench invocation error
    // is diagnosable from the exit line alone.
    EXPECT_NE(result.status().ToString().find(bad), std::string::npos) << bad;
  }
}

}  // namespace
}  // namespace gjoin::util
