#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/file_util.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace cpd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIOError, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, OkStatusIsRejected) {
  StatusOr<int> result((Status()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(StringUtilTest, SplitBasic) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, SplitSkipEmpty) {
  const auto parts = Split("a,,b,", ',', /*skip_empty=*/true);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "b");
}

TEST(StringUtilTest, SplitWhitespaceCollapsesRuns) {
  const auto parts = SplitWhitespace("  hello \t world\n");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[1], "world");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  abc \t"), "abc");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, ToLowerAscii) { EXPECT_EQ(ToLower("MiXeD123"), "mixed123"); }

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("ftp://x", "http://"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("file.csv", ".tsv"));
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(FileUtilTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cpd_file_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "line1\nline2\n").ok());
  EXPECT_TRUE(FileExists(path));
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "line1\nline2\n");
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 2u);
  EXPECT_EQ((*lines)[1], "line2");
  std::filesystem::remove(path);
}

TEST(FileUtilTest, MissingFileIsIOError) {
  auto result = ReadFileToString("/nonexistent/path/file.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(FileExists("/nonexistent/path/file.txt"));
}

TEST(TableWriterTest, TextAndCsvRendering) {
  TableWriter table("Demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow("beta", {2.5}, 1);
  EXPECT_EQ(table.num_rows(), 2u);
  const std::string text = table.ToText();
  EXPECT_NE(text.find("Demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("beta,2.5"), std::string::npos);
}

TEST(TableWriterTest, CsvEscapesSpecials) {
  TableWriter table("T");
  table.SetHeader({"a"});
  table.AddRow({"x,y\"z"});
  EXPECT_NE(table.ToCsv().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(FlagsTest, TypedGettersParseAndReject) {
  FlagMap flags{{"port", "8080"},  {"seed", "18446744073709551615"},
                {"bad", "12x"},    {"neg", "-3"},
                {"empty", ""},     {"huge", "99999999999999999999999"},
                {"wide", "4294967298"}, {"wide_neg", "-4294967295"},
                {"int_max", "2147483647"}, {"int_min", "-2147483648"}};
  EXPECT_EQ(*GetInt64Flag(flags, "port", 0), 8080);
  EXPECT_EQ(*GetInt64Flag(flags, "absent", -7), -7);
  EXPECT_EQ(*GetInt64Flag(flags, "neg", 0), -3);
  EXPECT_EQ(*GetUint64Flag(flags, "seed", 0), 18446744073709551615ull);
  EXPECT_EQ(*GetUint64Flag(flags, "absent", 42), 42u);
  // Trailing junk, empty values, overflow, and negatives-for-unsigned are
  // typed errors naming the flag, never a silent zero.
  for (const char* bad : {"bad", "empty", "huge"}) {
    const auto value = GetInt64Flag(flags, bad, 0);
    EXPECT_FALSE(value.ok()) << bad;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(value.status().message().find(bad), std::string::npos);
  }
  EXPECT_FALSE(GetUint64Flag(flags, "neg", 0).ok());
  EXPECT_FALSE(GetUint64Flag(flags, "bad", 0).ok());
  // The int getter keeps int's full range and rejects anything wider by
  // name instead of wrapping it (4294967298 would narrow to 2).
  EXPECT_EQ(*GetIntFlag(flags, "port", 0), 8080);
  EXPECT_EQ(*GetIntFlag(flags, "absent", -7), -7);
  EXPECT_EQ(*GetIntFlag(flags, "int_max", 0), 2147483647);
  EXPECT_EQ(*GetIntFlag(flags, "int_min", 0), -2147483647 - 1);
  for (const char* bad : {"wide", "wide_neg", "bad", "huge"}) {
    const auto value = GetIntFlag(flags, bad, 0);
    EXPECT_FALSE(value.ok()) << bad;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(value.status().message().find(bad), std::string::npos);
  }
}

TEST(TableWriterTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

}  // namespace
}  // namespace cpd
