// Bench-harness utility tests: table formatting, stats, number formatting,
// and the dependency-free JSON reader/writer the reports and the serve
// protocol share.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_harness/ascii_plot.hpp"
#include "bench_harness/report.hpp"
#include "bench_harness/timing.hpp"
#include "tune/json.hpp"

using namespace cats::bench;

TEST(Table, AlignsColumnsAndPrintsAllRows) {
  Table t({"size", "naive", "cats"});
  t.add_row({"0.5M", "0.123", "0.045"});
  t.add_row({"128M", "99.5", "7.25"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("size"), std::string::npos);
  EXPECT_NE(s.find("128M"), std::string::npos);
  EXPECT_NE(s.find("7.25"), std::string::npos);
  // header + rule + 2 rows
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, ToleratesShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find('1'), std::string::npos);
}

TEST(Fmt, FixedSciMib) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_sci(12345.0, 2), "1.23e+04");
  EXPECT_EQ(fmt_mib(1024 * 1024), "1.0MiB");
  EXPECT_EQ(fmt_mib(1536 * 1024), "1.5MiB");
}

TEST(Stats, SummarizeOrderStatistics) {
  const Stats s = summarize({3.0, 1.0, 2.0, 10.0});
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 10.0);
  EXPECT_EQ(s.median, 3.0);  // upper median of even-sized sample
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  const Stats e = summarize({});
  EXPECT_EQ(e.min, 0.0);
}

TEST(Stats, TimerMeasuresSomething) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(SeriesPlot, MarksLandMonotonically) {
  SeriesPlot p;
  p.add_series("up", 'U', {{1.0, 0.1}, {10.0, 1.0}, {100.0, 10.0}});
  std::ostringstream os;
  p.render(os, 30, 10);
  const std::string s = os.str();
  // Three marks, rising left-to-right means later lines (lower y) hold the
  // earlier (smaller) points: the first 'U' in the text is the largest point.
  EXPECT_EQ(std::count(s.begin(), s.end(), 'U'), 3 + 1);  // 3 marks + legend
  const auto first = s.find('U');
  const auto last = s.rfind('U', s.find("legend") == std::string::npos
                                     ? s.find('+')
                                     : s.size());
  EXPECT_NE(first, std::string::npos);
  EXPECT_LT(first, last);
  EXPECT_NE(s.find("x: 1 .. 100"), std::string::npos);
}

TEST(SeriesPlot, OverlapsMarkedAndEmptyHandled) {
  SeriesPlot p;
  p.add_series("a", 'A', {{5.0, 5.0}});
  p.add_series("b", 'B', {{5.0, 5.0}});
  std::ostringstream os;
  p.render(os, 20, 8);
  EXPECT_NE(os.str().find('*'), std::string::npos);  // overlap marker

  SeriesPlot empty;
  empty.add_series("none", 'N', {{-1.0, 2.0}});  // non-positive x skipped
  std::ostringstream os2;
  empty.render(os2, 20, 8);
  EXPECT_NE(os2.str().find("no positive data"), std::string::npos);
}

TEST(Json, ParsesScalarsArraysObjects) {
  cats::tune::JsonValue v;
  ASSERT_TRUE(cats::tune::json_parse(R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x\n"},
                                         "t": true, "n": null})", v));
  EXPECT_EQ(v.get_number("a"), 1.5);
  ASSERT_NE(v.get("b"), nullptr);
  EXPECT_EQ(v.get("b")->items.size(), 3u);
  EXPECT_EQ(v.get("c")->get_string("d"), "x\n");
  EXPECT_TRUE(v.get("t")->boolean);
  EXPECT_EQ(v.get("n")->kind, cats::tune::JsonValue::Kind::Null);
}

TEST(Json, RejectsMalformedInput) {
  cats::tune::JsonValue v;
  EXPECT_FALSE(cats::tune::json_parse("{", v));
  EXPECT_FALSE(cats::tune::json_parse("{\"a\": }", v));
  EXPECT_FALSE(cats::tune::json_parse("[1, 2", v));
  EXPECT_FALSE(cats::tune::json_parse("{} trailing", v));
  EXPECT_FALSE(cats::tune::json_parse("", v));
}

TEST(Json, EscapeRoundTrips) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  cats::tune::JsonValue v;
  ASSERT_TRUE(cats::tune::json_parse("{\"k\": " + cats::tune::json_quote(nasty) + "}", v));
  EXPECT_EQ(v.get_string("k"), nasty);
  EXPECT_EQ(cats::tune::json_number(0.5), "0.5");
  EXPECT_EQ(cats::tune::json_number(1e300), "1e+300");
}

TEST(JsonLog, SerializesTablesAndScalars) {
  JsonLog log;
  log.set_title("unit bench");
  Table t({"size", "gflops"});
  t.add_row({"1M", "12.5"});
  t.add_row({"2M", "11.0"});
  log.add_table("fig", t);
  log.add_scalar("speedup", 2.5);

  cats::tune::JsonValue v;
  ASSERT_TRUE(cats::tune::json_parse(log.to_json(), v)) << log.to_json();
  EXPECT_EQ(v.get_string("title"), "unit bench");
  ASSERT_NE(v.get("machine"), nullptr);
  EXPECT_FALSE(v.get("machine")->get_string("fingerprint").empty());
  const auto* tables = v.get("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->items.size(), 1u);
  EXPECT_EQ(tables->items[0].get_string("caption"), "fig");
  const auto* rows = tables->items[0].get("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items.size(), 2u);
  EXPECT_EQ(rows->items[1].items[0].str, "2M");
  ASSERT_NE(v.get("scalars"), nullptr);
  EXPECT_EQ(v.get("scalars")->get_number("speedup"), 2.5);
}

TEST(JsonLog, GlobalLogCapturesPrintedTablesAndFlushes) {
  const std::string path = testing::TempDir() + "cats_benchlog.json";
  json_log().enable(path);
  std::ostringstream banner;
  print_banner(banner, "captured run");  // sets the JSON title

  Table t({"a", "b"});
  t.add_row({"x", "y"});
  std::ostringstream os;
  t.print(os);  // auto-recorded into the enabled global log

  ASSERT_TRUE(json_log().flush());
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  cats::tune::JsonValue v;
  ASSERT_TRUE(cats::tune::json_parse(text, v));
  EXPECT_EQ(v.get_string("title"), "captured run");
  const auto* tables = v.get("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_GE(tables->items.size(), 1u);
  std::remove(path.c_str());
}

TEST(Banner, PrintsMachineInfo) {
  std::ostringstream os;
  print_banner(os, "unit test");
  const std::string s = os.str();
  EXPECT_NE(s.find("unit test"), std::string::npos);
  EXPECT_NE(s.find("caches:"), std::string::npos);
  EXPECT_NE(s.find("simd"), std::string::npos);
}
